"""Recursive constructions and parameter planners."""

import dataclasses
import hashlib
import random

import pytest

from pentgeo import pent, verify
from pentgeo.construct import (
    GddFillPlan,
    Pent3Plan,
    construction36,
    from_girth5_graph,
    gdd_fill,
    make_degenerate,
    plan_pent3,
    plan_pent5,
    product,
    triple,
)
from pentgeo.designs import Gdd, uniform_gdd
from pentgeo.errors import (
    BadSeedGraph,
    CompletionUnsupported,
    Inadmissible,
    IngredientInvalid,
    NoIngredient,
    NotBlockSize3,
    ParameterDomain,
    PlanInvalid,
    PreconditionFailed,
)
from pentgeo.graphs import generalized_petersen, graph_from_edges, orbit_graph, petersen
from pentgeo.hillclimb import ClimbConfig

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
    verified = []
    real_verify = pent.verify

    def recording_verify(geom):
        rep = real_verify(geom)
        verified.append(rep)
        return rep

    monkeypatch.setattr(pent, "verify", recording_verify)
    geom = make_degenerate(3, 751)
    assert (geom.params.v, geom.params.r, len(geom.lines)) == (1502, 375, 187750)
    [rep] = verified
    assert rep.valid and rep.geometry_type == "F"
    assert rep.params == geom.params
    assert rep.kww_components == 1
    assert (rep.deficiency.regular_degree, rep.deficiency.girth) == (751, 4)


def test_make_degenerate_no_system():
    with pytest.raises(NoIngredient):
        make_degenerate(3, 5)
    with pytest.raises(NoIngredient):
        make_degenerate(4, 10)


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
    with pytest.raises(NotBlockSize3):
        triple(make_degenerate(4, 13))


def test_triple_rejects_invalid_ingredient(pent33):
    broken = geometry(pent33.params, sorted(pent33.lines)[1:])
    with pytest.raises(IngredientInvalid):
        triple(broken)


def test_triple_rejects_disconnected(pent33):
    parts = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33}))
    with pytest.raises(IngredientInvalid):
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
    with pytest.raises(ParameterDomain):
        product(pent33, 2)
    with pytest.raises(NoIngredient):
        product(pent33, 4)  # parity: 2 does not divide 3
    with pytest.raises(NoIngredient):
        product(pent33, 5)  # no S(2,3,5)
    parts = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33}))
    with pytest.raises(IngredientInvalid):
        product(parts, 3)


def test_gdd_fill_plan_errors(pent33):
    with pytest.raises(PlanInvalid):  # nothing to put in the groups
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={}))
    with pytest.raises(PlanInvalid):  # 6 points cannot fill a 10-group
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: make_degenerate(3, 3)}))
    with pytest.raises(PlanInvalid):  # line sizes disagree
        gdd_fill(GddFillPlan(gdd=uniform_gdd(4, 3), ingredients={3: pent33}))
    with pytest.raises(PlanInvalid):  # deficiency degrees disagree
        gdd_fill(
            GddFillPlan(
                gdd=uniform_gdd(3, 2),
                ingredients={6: make_degenerate(3, 3), 14: make_degenerate(3, 7)},
            )
        )
    bad = Gdd(k=3, groups=((0, 1), (2, 3)), blocks=frozenset({(0, 1, 2)}))
    with pytest.raises(PlanInvalid):
        gdd_fill(GddFillPlan(gdd=bad, ingredients={}))


def test_gdd_fill_gdd_fault_is_plan_invalid(pent33):
    unpaired = Gdd(k=3, groups=((0,), (1,), (2,)), blocks=frozenset())
    with pytest.raises(PlanInvalid, match=r"^gdd does not verify: "):
        gdd_fill(GddFillPlan(gdd=unpaired, ingredients={1: pent33}))


def test_gdd_fill_does_not_mask_type_errors():
    # A non-integer point is a caller's programming error, not a bad plan.
    malformed = Gdd(k=3, groups=((0, "a"),), blocks=frozenset())
    with pytest.raises(TypeError):
        gdd_fill(GddFillPlan(gdd=malformed, ingredients={}))


def test_gdd_fill_rejects_invalid_ingredient(pent33):
    broken = geometry(pent33.params, sorted(pent33.lines)[1:])
    with pytest.raises(IngredientInvalid):
        gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: broken}))


def test_from_girth5_graph_petersen(pent33):
    geom = from_girth5_graph(petersen())
    assert geom.params == pent33.params
    assert verify(geom).valid


def test_from_girth5_graph_rejections():
    with pytest.raises(BadSeedGraph):
        from_girth5_graph(ring(6))  # not cubic
    k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    with pytest.raises(BadSeedGraph):
        from_girth5_graph(k33)  # girth 4
    with pytest.raises(BadSeedGraph):
        from_girth5_graph(generalized_petersen(10))  # r = 8 is inadmissible
    two = generalized_petersen(15)
    doubled = graph_from_edges(
        60, [(a, b) for a, b in two.edges()] + [(a + 30, b + 30) for a, b in two.edges()]
    )
    with pytest.raises(BadSeedGraph):
        from_girth5_graph(doubled)  # disconnected


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
    with pytest.raises(ParameterDomain):
        construction36(petersen(), 3, 2)
    with pytest.raises(ParameterDomain):
        construction36(petersen(), 2, 3)


def test_construction36_seed_rejections():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(BadSeedGraph):
        construction36(path, 3, 3)  # irregular
    k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    with pytest.raises(BadSeedGraph):
        construction36(k33, 3, 3)  # girth 4
    two_rings = graph_from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )
    with pytest.raises(BadSeedGraph):
        construction36(two_rings, 3, 3)  # disconnected
    with pytest.raises(BadSeedGraph):
        construction36(ring(5), 4, 4)  # (k-1) misses v-w-1


def test_construction36_no_recipe_for_k4_completion():
    seed = graph_from_edges(23, QUARTIC_23)
    with pytest.raises(CompletionUnsupported):
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
    with pytest.raises(PreconditionFailed):
        plan_pent3(73, 25, 28, 9, 30000)  # r0 not divisible by 3
    with pytest.raises(PreconditionFailed):
        plan_pent3(72, 24, 28, 9, 30000)  # r1 divisible by 3
    with pytest.raises(PreconditionFailed):
        plan_pent3(72, 25, 31, 9, 30000)  # gcd(v1,v2) = 12
    with pytest.raises(PreconditionFailed):
        plan_pent3(72, 25, 28, 2, 30000)  # w too small
    with pytest.raises(PreconditionFailed):
        plan_pent3(72, 25, 28, 9, 0)


def test_pent3_plan_check_rejects_doctored_values():
    with pytest.raises(PlanInvalid):
        Pent3Plan(r0=72, r1=25, r2=28, w=9, r3=28, t=12, u=896).check()
    with pytest.raises(PlanInvalid):
        Pent3Plan(r0=72, r1=25, r2=28, w=9, r3=72, t=2, u=896).check()
    with pytest.raises(PlanInvalid):
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
        assert len(plan.parts) == plan.q
        assert sum(plan.parts) == plan.m
        assert set(plan.parts) <= {10, 18, 30}
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
    worse = dataclasses.replace(plan, parts=(18,) + plan.parts[1:])
    with pytest.raises(PlanInvalid):
        worse.check()
    with pytest.raises(PlanInvalid):
        dataclasses.replace(plan, q=plan.q + 1).check()


# Digest of the sorted lines of construction36 on a cubic girth-5 orbit
# graph on 20 vertices, h = k = 3, per climb seed.  Seeds 0, 8 and 13 are the
# slow tail of seeds 0-19, about 40,000 climb iterations each.
PINNED_C36 = {
    0: "fd3674115e80",
    1: "e95f00bcee70",
    2: "6cd3ff61637a",
    3: "7666e15193cb",
    4: "448f01e80b9e",
    8: "1cf18bd969d9",
    13: "c59c38c222db",
}


@pytest.mark.parametrize("seed", sorted(PINNED_C36))
def test_construction36_orbit_graph_pinned(seed):
    seed_graph = orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20)
    geom = construction36(seed_graph, 3, 3, ClimbConfig(seed=seed))
    digest = hashlib.sha256(repr(geom.lines_sorted()).encode()).hexdigest()[:12]
    assert digest == PINNED_C36[seed]
