"""Recursive constructions and parameter planners."""

import dataclasses
import hashlib
import random
from itertools import combinations

import pytest

from pentgeo import construct, pent, verify
from pentgeo.construct import (
    GddFillPlan,
    Pent3Plan,
    construction36,
    gdd_fill,
    make_degenerate,
    plan_pent3,
    plan_pent5,
    product,
    triple,
)
from pentgeo.designs import Gdd, uniform_gdd
from pentgeo.errors import PentError, UsageError
from pentgeo.graphs import (
    distance3_graph,
    generalized_petersen,
    graph_from_edges,
    hoffman_singleton,
    inflate,
    orbit_graph,
    petersen,
)
from pentgeo.hillclimb import COMPLETE, EXHAUSTED, ClimbConfig, ClimbProblem, climb

from pentgeo import geometry

# A 4-regular girth-5 graph on 23 vertices (found by random search, checked
# below); its inflation leaves a completion that no supported recipe covers.
QUARTIC_23 = [
    (0, 3), (0, 7), (0, 8), (0, 20), (1, 4), (1, 6), (1, 7), (1, 13),
    (2, 10), (2, 16), (2, 18), (2, 20), (3, 10), (3, 12), (3, 19), (4, 5),
    (4, 10), (4, 17), (5, 11), (5, 14), (5, 16), (6, 8), (6, 12), (6, 16),
    (7, 9), (7, 11), (8, 14), (8, 15), (9, 12), (9, 14), (9, 22), (10, 15),
    (11, 19), (11, 21), (12, 17), (13, 19), (13, 20), (13, 22), (14, 18),
    (15, 21), (15, 22), (16, 22), (17, 18), (17, 21), (18, 19), (20, 21),
]


def ring(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_make_degenerate_smallest():
    geom = make_degenerate(3, 3)
    assert (geom.params.k, geom.params.r, geom.params.w) == (3, 1, 3)
    assert geom.lines == frozenset({(0, 1, 2), (3, 4, 5)})


def test_make_degenerate_fano_pair():
    geom = make_degenerate(3, 7)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "F"
    assert (geom.params.v, geom.params.b) == (14, 14)


def test_make_degenerate_k4():
    geom = make_degenerate(4, 13)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "F"
    assert (geom.params.v, geom.params.r) == (26, 4)


def test_make_degenerate_verified_above_1500_points(monkeypatch):
    # v = 1502: every axiom is checked at this size, not only the shape
    checked = []
    real_check = pent.check_axioms

    def recording_check(geom):
        result = real_check(geom)
        checked.append((geom, result))
        return result

    monkeypatch.setattr(pent, "check_axioms", recording_check)
    geom = make_degenerate(3, 751)
    assert (geom.params.v, geom.params.r, len(geom.lines)) == (1502, 375, 187750)
    [(seen, (axioms, _))] = checked
    assert seen is geom
    assert [a.name for a in axioms] == [
        pent.AXIOM_PARTIAL_LINEAR,
        pent.AXIOM_UNIFORM,
        pent.AXIOM_REGULAR,
        pent.AXIOM_OPPOSITE,
    ]
    assert all(a.passed for a in axioms)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "F"
    assert rep.params == geom.params
    assert rep.kww_components == 1
    assert (rep.deficiency.regular_degree, rep.deficiency.girth) == (751, 4)


def test_finish_refuses_a_line_too_few(pent33):
    short = set(sorted(pent33.lines)[1:])
    with pytest.raises(PentError, match=r"^short geometry: built 9 lines, expected 10$"):
        construct._finish(short, 3, 3, 3, "short geometry")


def test_make_degenerate_no_system():
    with pytest.raises(
        PentError, match=r"^no S\(2,3,5\): w = 5 is not 1 or 3 \(mod 6\)$"
    ):
        make_degenerate(3, 5)
    with pytest.raises(PentError, match=r"^no S\(2,4,10\) recipe here$"):
        make_degenerate(4, 10)


def test_steiner_past_the_pair_bound_is_a_usage_error(pent33):
    # An admissible STS too large to build is a malformed request (exit 2),
    # refused before the ingredient is built; an inadmissible order stays a
    # missing recipe (exit 1), however large.
    refusal = r"^S\(2,3,20001\): 200010000 pairs to cover > 1048576$"
    with pytest.raises(UsageError, match=refusal):
        make_degenerate(3, 20001)
    with pytest.raises(UsageError, match=refusal):
        product(pent33, 20001)
    with pytest.raises(PentError, match=r"^no S\(2,3,20003\): w = 20003 is not") as info:
        make_degenerate(3, 20003)
    assert type(info.value) is PentError


def test_construction36_names_an_inadmissible_3gdd_once():
    # A 4-regular seed with h = 3 asks for a 3-GDD of type 3^4, and 3(4-1) is odd.
    with pytest.raises(PentError, match=r"^no 3-GDD of type 3\^4$"):
        construction36(graph_from_edges(23, QUARTIC_23), 3, 3)


def test_triple(pent33):
    once = triple(pent33)
    rep = verify(once)
    assert rep.valid and rep.geometry_type == "C"
    assert (once.params.k, once.params.r, once.params.w) == (3, 10, 9)
    assert (once.params.v, once.params.b) == (30, 100)
    assert rep.deficiency.girth == 4
    assert rep.deficiency.connected

    twice = triple(once)
    assert (twice.params.r, twice.params.w) == (31, 27)
    assert (twice.params.v, twice.params.b) == (90, 930)
    assert verify(twice).valid


def test_triple_rejects_other_block_sizes():
    with pytest.raises(UsageError, match=r"^k = 4, tripling needs k = 3$"):
        triple(make_degenerate(4, 13))


def test_triple_rejects_invalid_ingredient(pent33):
    broken = geometry(pent33.params, sorted(pent33.lines)[1:])
    with pytest.raises(
        PentError, match=r"^tripling input: axioms failed: regular, opposite_designs$"
    ):
        triple(broken)


def test_triple_rejects_disconnected(pent33):
    parts = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33}))
    with pytest.raises(PentError, match=r"^tripling needs a connected deficiency graph$"):
        triple(parts)


def test_product(pent33):
    geom = product(pent33, 7)
    rep = verify(geom)
    assert rep.valid
    assert (geom.params.k, geom.params.r, geom.params.w) == (3, 24, 21)
    assert (geom.params.v, geom.params.b) == (70, 560)
    assert rep.deficiency.girth == 4
    assert rep.deficiency.connected


def test_product_h3_matches_tripled_parameters(pent33):
    geom = product(pent33, 3)
    assert (geom.params.r, geom.params.w, geom.params.v) == (10, 9, 30)
    assert verify(geom).valid


def test_product_k4_of_degenerate_is_degenerate():
    geom = product(make_degenerate(4, 13), 4)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "F"
    assert (geom.params.v, geom.params.w, geom.params.b) == (104, 52, 442)


def test_product_rejections(pent33):
    with pytest.raises(UsageError, match=r"^h = 2 < 3$"):
        product(pent33, 2)
    with pytest.raises(PentError, match=r"^\(k-1\) = 2 does not divide h-1 = 3$"):
        product(pent33, 4)  # parity: 2 does not divide 3
    with pytest.raises(
        PentError, match=r"^no S\(2,3,5\): w = 5 is not 1 or 3 \(mod 6\)$"
    ):
        product(pent33, 5)  # no S(2,3,5)
    parts = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33}))
    with pytest.raises(PentError, match=r"^product needs a connected deficiency graph$"):
        product(parts, 3)


# Lines of a double tripling and of a product by h = 5, pinned before
# tripling was laid as the product over the idempotent TD(3,3).
PINNED_INFLATIONS = {"triple2": "4df188156a51", "product5": "b7e98045de42"}


@pytest.mark.parametrize("name", sorted(PINNED_INFLATIONS))
def test_triple_and_product_pinned(geometries, name):
    if name == "triple2":
        geom = triple(triple(geometries["pent_3_3_3"]))
    else:
        geom = product(geometries["pent_5_21_5"], 5)
    digest = hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12]
    assert digest == PINNED_INFLATIONS[name]


def climbed_gdd(sizes):
    """A 3-GDD with groups of the given sizes, in order, by hill climbing."""
    groups = []
    for size in sizes:
        start = sum(map(len, groups))
        groups.append(tuple(range(start, start + size)))
    group_of = {x: i for i, grp in enumerate(groups) for x in grp}
    v = len(group_of)
    pairs = frozenset(p for p in combinations(range(v), 2) if group_of[p[0]] != group_of[p[1]])
    outcome = climb(ClimbProblem(v=v, target_pairs=pairs), ClimbConfig(seed=0))
    return Gdd(k=3, groups=tuple(groups), blocks=outcome.lines)


def test_gdd_fill_plan_errors(pent33):
    # Nothing to put in the groups.
    with pytest.raises(UsageError, match=r"^no ingredient for group size 10$"):
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={}))
    # 6 points cannot fill a 10-group.
    with pytest.raises(UsageError, match=r"^ingredient for size 10 has v = 6$"):
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: make_degenerate(3, 3)}))
    # Line sizes disagree.
    with pytest.raises(UsageError, match=r"^ingredient for size 3 has k = 3 != 4$"):
        gdd_fill(GddFillPlan(gdd=uniform_gdd(4, 3), ingredients={3: pent33}))
    # Deficiency degrees disagree.
    with pytest.raises(UsageError, match=r"^ingredient for size 14 has w = 7 != 3$"):
        gdd_fill(
            GddFillPlan(
                gdd=climbed_gdd((6,) * 6 + (14,)),
                ingredients={6: make_degenerate(3, 3), 14: make_degenerate(3, 7)},
            )
        )
    bad = Gdd(k=3, groups=((0, 1), (2, 3)), blocks=frozenset({(0, 1, 2)}))
    match = r"^gdd does not verify: within-group pair \(0, 1\) covered by \(0, 1, 2\)$"
    with pytest.raises(UsageError, match=match):
        gdd_fill(GddFillPlan(gdd=bad, ingredients={}))


def test_gdd_fill_ignores_unused_ingredients(pent33):
    # No group has 14 points, so the w = 7 ingredient is neither checked nor
    # verified; nor is a broken one.
    broken = geometry(pent33.params, sorted(pent33.lines)[1:])
    for unused in (make_degenerate(3, 7), broken):
        geom = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33, 14: unused}))
        assert (geom.params.v, geom.params.w) == (30, 3)
        assert verify(geom).valid
    # Groups of 2 points and no ingredient for them: the unused 6 and 14 do
    # not help.
    with pytest.raises(UsageError, match=r"^no ingredient for group size 2$"):
        gdd_fill(
            GddFillPlan(
                gdd=uniform_gdd(3, 2),
                ingredients={6: make_degenerate(3, 3), 14: make_degenerate(3, 7)},
            )
        )


def test_gdd_fill_gdd_fault_is_plan_invalid(pent33):
    unpaired = Gdd(k=3, groups=((0,), (1,), (2,)), blocks=frozenset())
    with pytest.raises(UsageError, match=r"^gdd does not verify: "):
        gdd_fill(GddFillPlan(gdd=unpaired, ingredients={1: pent33}))


def test_gdd_fill_does_not_mask_type_errors():
    # A non-integer point is a caller's programming error, not a bad plan.
    malformed = Gdd(k=3, groups=((0, "a"),), blocks=frozenset())
    with pytest.raises(TypeError):
        gdd_fill(GddFillPlan(gdd=malformed, ingredients={}))


def test_gdd_fill_rejects_invalid_ingredient(pent33):
    broken = geometry(pent33.params, sorted(pent33.lines)[1:])
    with pytest.raises(
        PentError, match=r"^ingredient for group size 10: axioms failed: regular, opposite_designs$"
    ):
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: broken}))


def test_from_girth5_graph_petersen(pent33):
    geom = construction36(petersen(), 1, 3)
    assert geom.params == pent33.params
    assert verify(geom).valid


# Lines of the girth-5 completion construction36(generalized_petersen(n), 1, 3)
# at the default seed: the seed's neighbourhoods, laid, and a climb at step v,
# no symmetry, over the pairs at distance 3 or more.
PINNED_GIRTH5 = {21: "e727f8c9c1dc", 27: "402eff378748"}


@pytest.mark.parametrize("n", sorted(PINNED_GIRTH5))
def test_from_girth5_graph_pinned(n):
    geom = construction36(generalized_petersen(n), 1, 3)
    digest = hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12]
    assert digest == PINNED_GIRTH5[n]


# Lines of construction36(hoffman_singleton(), 1, k): HS is a Moore graph of
# degree 7, so every pair lies within distance 2 and nothing is climbed.
# Its neighbourhoods carry an S(2,3,7) each at k = 3 and one line at k = 7.
PINNED_HS = {3: ((21, 7), "aeee05ed438d"), 7: ((7, 7), "a82d8422f018")}


@pytest.mark.parametrize("k", sorted(PINNED_HS))
def test_girth5_completion_of_hoffman_singleton_pinned(k):
    geom = construction36(hoffman_singleton(), 1, k)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "A"
    (r, w), pin = PINNED_HS[k]
    assert (geom.params.k, geom.params.r, geom.params.w) == (k, r, w)
    assert hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12] == pin


# GP(12,5), girth 6: eleven shifts of the seed generate the symmetries of
# steps 2, 4, 6, 8 and 12 (core's step rule).  Lines of its girth-5
# completion at seed 0, taken before the climb read steps instead of shifts.
GP_12_5 = orbit_graph(((0, 2), (0, 1), (1, 11)), 2, 24)
PINNED_GP_12_5 = "f07e015691e2"


def test_girth5_completion_of_gp12_5_tries_each_step_once(monkeypatch):
    # c36 builds one problem per step, ascending, until one builds: steps 2,
    # 4 and 6 leave pair (0,12) a short orbit, step 8 builds and is climbed
    # to exhaustion, and the problem at step v = 24 completes.
    built, climbed = [], []

    def build(**kwargs):
        try:
            problem = ClimbProblem(**kwargs)
        except UsageError as exc:
            built.append((kwargs["step"], str(exc)))
            raise
        built.append((problem.step, None))
        return problem

    def record(problem, config=None):
        outcome = climb(problem, config)
        climbed.append((problem.step, outcome.status))
        return outcome

    monkeypatch.setattr(construct, "ClimbProblem", build)
    monkeypatch.setattr(construct, "climb", record)
    geom = construction36(GP_12_5, 1, 3, ClimbConfig(seed=0))
    assert built == [
        (2, "pair (0,12) has a short orbit under step 2"),
        (4, "pair (0,12) has a short orbit under step 4"),
        (6, "pair (0,12) has a short orbit under step 6"),
        (8, None),
        (24, None),
    ]
    assert climbed == [(8, EXHAUSTED), (24, COMPLETE)]
    digest = hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12]
    assert digest == PINNED_GP_12_5


def test_from_girth5_graph_rejections():
    with pytest.raises(PentError, match=r"^\(k-1\) does not divide v-w-1 = 3$"):
        construction36(ring(6), 1, 3)  # not cubic: w = 2
    k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    with pytest.raises(PentError, match=r"^seed girth 4 < 5$"):
        construction36(k33, 1, 3)  # girth 4
    with pytest.raises(UsageError, match=r"^k = 3 does not divide v\*r = 160$"):
        construction36(generalized_petersen(10), 1, 3)  # r = 8 is inadmissible
    two = generalized_petersen(15)
    doubled = graph_from_edges(
        60, [(a, b) for a, b in two.edges()] + [(a + 30, b + 30) for a, b in two.edges()]
    )
    with pytest.raises(PentError, match=r"^seed graph must be connected$"):
        construction36(doubled, 1, 3)  # disconnected


def test_from_girth5_graph_refuses_pair_count_before_distance3(monkeypatch):
    # A cubic girth-5 seed on n vertices has n(n-10)/2 pairs to complete:
    # n = 730 is the first even n past MAX_COMPLETION_PAIRS = 2^18.
    def built(what):
        def refuse(*args):
            raise AssertionError(f"{what} built")

        return refuse

    for name in ("distance3_graph", "inflate", "shift_automorphisms"):
        monkeypatch.setattr(construct, name, built(name))
    refusal = r"^PENT\(3,363,3\) completion: 262800 pairs to complete > 262144$"
    with pytest.raises(UsageError, match=refusal):
        construction36(generalized_petersen(365), 1, 3)
    with pytest.raises(AssertionError, match="shift_automorphisms built"):
        construction36(generalized_petersen(363), 1, 3)  # 259,908 pairs are admitted


@pytest.mark.parametrize(
    "seed,h,pairs",
    [
        (petersen(), 1, 0),
        (generalized_petersen(15), 1, 300),
        (orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20), 3, 900),
        (hoffman_singleton(), 1, 0),
        (hoffman_singleton(), 7, 0),
    ],
    ids=["petersen-1", "gp15-1", "orbit-3", "hs-1", "hs-7"],
)
def test_construction36_pair_count_is_the_distance3_edge_count(monkeypatch, seed, h, pairs):
    # construction36 bounds v(v - h(1 + u^2))/2, read from n, h and u alone,
    # which must be the pairs the completion climbs.
    assert distance3_graph(inflate(seed, h)).edge_count() == pairs
    counted = []
    monkeypatch.setattr(construct, "_check_pair_count", lambda n, what: counted.append(n))
    construction36(seed, h, 3)
    assert counted == [pairs]


@pytest.mark.parametrize(
    "seed,h,k",
    [
        (orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20), 3, 3),
        (petersen(), 3, 3),
        (hoffman_singleton(), 1, 3),
        (hoffman_singleton(), 1, 7),
        (orbit_graph(((0, 2), (0, 1), (1, 7)), 2, 22), 1, 3),
        (GP_12_5, 1, 3),
    ],
    ids=["orbit-3", "petersen-3", "hs-1-k3", "hs-1-k7", "gp11_3-1", "gp12_5-1"],
)
def test_construction36_laid_lines_miss_the_climbed_pairs(monkeypatch, seed, h, k):
    # The lines laid over the seed's neighbourhoods and groups lie inside
    # opposite designs, so each of their pairs is at distance <= 2 in the
    # inflated seed, while the climb covers only the pairs at distance 3 or
    # more: no laid line can meet a climb target.
    inflated, laid = construct._inflated, []

    def record(*args):
        lines = inflated(*args)
        laid.append(frozenset(lines))  # construction36 adds the climbed lines to its set
        return lines

    monkeypatch.setattr(construct, "_inflated", record)
    construction36(seed, h, k)
    (lines,) = laid
    masks = inflate(seed, h).masks
    for ln in lines:
        for x, y in combinations(ln, 2):
            assert masks[x] >> y & 1 or masks[x] & masks[y], (x, y)


def test_construction36_moore_seed():
    geom = construction36(petersen(), 3, 3)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "C"
    assert (geom.params.r, geom.params.w) == (10, 9)
    assert (geom.params.v, geom.params.b) == (30, 100)
    split = rep.line_split
    assert split.b_non_opp == 0  # Moore seed: every line is opposite


def test_construction36_single_edge_seed_degenerates():
    k2 = graph_from_edges(2, [(0, 1)])
    geom = construction36(k2, 13, 4)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "F"
    assert (geom.params.k, geom.params.r, geom.params.w) == (4, 4, 13)
    assert (geom.params.v, geom.params.b) == (26, 26)


def test_construction36_parameter_errors():
    with pytest.raises(UsageError, match=r"^k = 2 < 3$"):
        construction36(petersen(), 3, 2)
    with pytest.raises(UsageError, match=r"^h = 2 < k = 3$"):
        construction36(petersen(), 2, 3)


def test_construction36_seed_rejections():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(PentError, match=r"^seed graph must be regular of positive degree$"):
        construction36(path, 3, 3)  # irregular
    k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    with pytest.raises(PentError, match=r"^seed girth 4 < 5$"):
        construction36(k33, 3, 3)  # girth 4
    two_rings = graph_from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )
    with pytest.raises(PentError, match=r"^seed graph must be connected$"):
        construction36(two_rings, 3, 3)  # disconnected
    with pytest.raises(PentError, match=r"^\(k-1\) does not divide v-w-1 = 11$"):
        construction36(ring(5), 4, 4)  # (k-1) misses v-w-1


def test_construction36_no_recipe_for_k4_completion():
    seed = graph_from_edges(23, QUARTIC_23)
    with pytest.raises(PentError, match=r"^184 non-opposite lines needed but k = 4 > 3$"):
        construction36(seed, 4, 4)


def test_quartic_23_is_a_valid_seed():
    from pentgeo.graphs import report

    rep = report(graph_from_edges(23, QUARTIC_23))
    assert (rep.regular_degree, rep.girth, rep.connected) == (4, 5, True)


PENT3_TRIPLES = ((72, 25, 28, 9), (51, 47, 53, 7))
THRESHOLD = 5000


@pytest.mark.parametrize("r0,r1,r2,w", PENT3_TRIPLES)
def test_plan_pent3_identity_on_random_targets(r0, r1, r2, w):
    reachable_residues = {r0 % 3, r1 % 3}
    rng = random.Random(r0)
    hits = 0
    for _ in range(50):
        target = THRESHOLD + rng.randrange(100000)
        plan = plan_pent3(r0, r1, r2, w, target)
        if target % 3 in reachable_residues:
            assert plan is not None
            assert plan.target_r == target
            assert plan.r3 in (r0, r1)
            plan.check()
            hits += 1
        else:
            assert plan is None
    assert hits > 0


def test_plan_pent3_known_instance():
    plan = plan_pent3(72, 25, 28, 9, 30000)
    assert plan is not None
    assert plan.target_r == 30000
    assert (plan.v0, plan.v1, plan.v2) == (154, 60, 66)
    plan.check()


def test_plan_pent3_preconditions():
    with pytest.raises(UsageError, match=r"^r0 = 73 must be divisible by 3$"):
        plan_pent3(73, 25, 28, 9, 30000)  # r0 not divisible by 3
    with pytest.raises(UsageError, match=r"^r1 = 24 and r2 = 28 must not be divisible by 3$"):
        plan_pent3(72, 24, 28, 9, 30000)  # r1 divisible by 3
    with pytest.raises(UsageError, match=r"^gcd\(v1,v2\) = 12 != 6$"):
        plan_pent3(72, 25, 31, 9, 30000)  # gcd(v1,v2) = 12
    with pytest.raises(UsageError, match=r"^need w >= 3 and positive replication numbers$"):
        plan_pent3(72, 25, 28, 2, 30000)  # w too small
    with pytest.raises(UsageError, match=r"^target_r = 0 < 1$"):
        plan_pent3(72, 25, 28, 9, 0)


def test_pent3_plan_check_rejects_doctored_values():
    with pytest.raises(UsageError, match=r"^r3 = 28 not in \{r0, r1\}$"):
        Pent3Plan(r0=72, r1=25, r2=28, w=9, r3=28, t=12, u=896).check()
    with pytest.raises(UsageError, match=r"^t = 2 < t_min = 107/30$"):
        Pent3Plan(r0=72, r1=25, r2=28, w=9, r3=72, t=2, u=896).check()
    with pytest.raises(UsageError, match=r"^u = 3 < u_min = 470/33$"):
        Pent3Plan(r0=72, r1=25, r2=28, w=9, r3=72, t=12, u=3).check()


def first_admissible_r5(start, count):
    out = []
    r = start
    while len(out) < count:
        if r % 5 in (0, 1):
            out.append(r)
        r += 1
    return out


def test_plan_pent5_constraints():
    for r in first_admissible_r5(200000, 20):
        plan = plan_pent5(r)
        assert plan is not None
        plan.check()
        assert plan.v == 4 * r + 6
        assert plan.h == 86 + 4 * (r % 5)
        assert plan.q >= 1937 and plan.q % 2 == 1 and plan.q % 11 == 0
        assert plan.m == plan.v - 100 * plan.q
        assert plan.m % 4 == 2
        n10, n18, n30 = plan.part_counts
        assert n10 + n18 + n30 == plan.q
        assert 10 * n10 + 18 * n18 + 30 * n30 == plan.m
        assert min(n10, n18, n30) >= 0
        b = plan.m // plan.h
        assert plan.m % plan.h == 0 and b >= 21 and b % 2 == 1
        if plan.h == 86:
            assert b % 10 == 1


def test_plan_pent5_unreachable():
    assert plan_pent5(200002) is None  # r = 2 (mod 5)
    assert plan_pent5(100) is None  # far below the guaranteed range
    assert plan_pent5(0) is None
    assert plan_pent5(-5) is None


def test_pent5_plan_check_rejects_doctored_values():
    plan = plan_pent5(200000)
    assert plan is not None
    n10, n18, n30 = plan.part_counts
    worse = dataclasses.replace(plan, part_counts=(n10 - 1, n18 + 1, n30))
    match = r"^part counts \(1539, 3, 4849\) are not q = 6391 summands totalling m = 160906$"
    with pytest.raises(UsageError, match=match):
        worse.check()
    with pytest.raises(UsageError, match=r"^q = 6392 is not divisible by 11$"):
        dataclasses.replace(plan, q=plan.q + 1).check()


# Digest of the sorted lines of construction36 on a cubic girth-5 orbit
# graph on 20 vertices, h = k = 3, per climb seed.  Seeds 19, 9 and 17 are
# the slow tail of the benchmark's panel, seeds 0-19: 34,716, 18,937 and
# 12,113 climb iterations with 749, 407 and 260 kicks, where every other
# pinned seed takes at most 11,469 iterations.
PINNED_C36 = {
    0: "9d99744204ee",
    1: "fb150ae44823",
    2: "a64e7c2bf806",
    3: "081ec07ed269",
    4: "9d1017972794",
    8: "0ca0809b6557",
    9: "1bcd684895b3",
    13: "88aca7443bcd",
    17: "58824a36759d",
    19: "1a6b75e91cd5",
}


@pytest.mark.parametrize("seed", sorted(PINNED_C36))
def test_construction36_orbit_graph_pinned(seed):
    seed_graph = orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20)
    geom = construction36(seed_graph, 3, 3, ClimbConfig(seed=seed))
    digest = hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12]
    assert digest == PINNED_C36[seed]
