"""Stochastic completion search: determinism, exhaustion, orbit climbing."""

import functools
import hashlib
import itertools
import random
from unittest import mock

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo import construct
from pentgeo.designs import SteinerSystem, sts, verify_gdd, verify_steiner
from pentgeo.errors import ClimbFailed, Inadmissible, ParameterDomain
from pentgeo.graphs import orbit_graph
from pentgeo.hillclimb import (
    COMPLETE,
    EXHAUSTED,
    ClimbConfig,
    ClimbProblem,
    _attempt,
    climb,
    climb_3gdd,
    climb_sts,
)


def all_pairs(v):
    return frozenset(itertools.combinations(range(v), 2))


def test_climb_sts_small():
    for w in (7, 9, 13):
        system = climb_sts(w)
        assert len(system.blocks) == w * (w - 1) // 6
        verify_steiner(system)


def test_climb_sts_deterministic():
    a = climb_sts(15, ClimbConfig(seed=5))
    b = climb_sts(15, ClimbConfig(seed=5))
    assert a.blocks == b.blocks


def test_climb_sts_seeds_vary_but_verify():
    for seed in range(4):
        verify_steiner(climb_sts(13, ClimbConfig(seed=seed)))


def test_climb_sts_inadmissible():
    for w in (2, 5, 11, 20):
        with pytest.raises(Inadmissible):
            climb_sts(w)


def test_climb_3gdd():
    for g, u in ((2, 3), (3, 3), (3, 7), (10, 3)):
        design = climb_3gdd(g, u)
        assert design.group_type() == {g: u}
        assert len(design.blocks) == g * g * u * (u - 1) // 6
        verify_gdd(design)


def test_climb_3gdd_type_1_cubed():
    design = climb_3gdd(1, 3)
    assert design.blocks == frozenset({(0, 1, 2)})


def test_climb_3gdd_rejections():
    with pytest.raises(ParameterDomain):
        climb_3gdd(0, 3)
    with pytest.raises(Inadmissible):
        climb_3gdd(4, 2)  # fewer than 3 groups
    with pytest.raises(Inadmissible):
        climb_3gdd(3, 4)  # odd point degree
    with pytest.raises(Inadmissible):
        climb_3gdd(1, 5)  # block count not integral


def test_exhausted_on_triangle_free_targets():
    # hexagon edges: no triple covers three of them at once
    targets = frozenset(tuple(sorted((i, (i + 1) % 6))) for i in range(6))
    problem = ClimbProblem(v=6, target_pairs=targets)
    outcome = climb(problem, ClimbConfig(seed=0, restarts=3, max_iterations=500))
    assert outcome.status == EXHAUSTED
    assert outcome.lines == frozenset()
    assert outcome.attempts_used == 3
    assert outcome.iterations_used > 0


def test_fixed_lines_completion():
    base = sts(9)
    blocks = sorted(base.blocks)
    fixed = frozenset(blocks[:8])
    problem = ClimbProblem(v=9, target_pairs=all_pairs(9), fixed_lines=fixed)
    outcome = climb(problem, ClimbConfig(seed=2))
    assert outcome.status == COMPLETE
    verify_steiner(SteinerSystem(k=3, w=9, blocks=fixed | outcome.lines))


def test_problem_validations():
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 9)}))
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=6, target_pairs=frozenset({(3, 3)}))
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=6, target_pairs=frozenset({(1, 0)}))
    # two fixed lines covering the same target pair
    with pytest.raises(ParameterDomain):
        ClimbProblem(
            v=6,
            target_pairs=frozenset({(0, 1)}),
            fixed_lines=frozenset({(0, 1, 2), (0, 1, 3)}),
        )


def test_shift_validations():
    pairs13 = all_pairs(13)
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=13, target_pairs=pairs13, shift=0)
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=13, target_pairs=pairs13, shift=13)
    # fixed lines may not touch any target when a shift is set
    with pytest.raises(ParameterDomain):
        ClimbProblem(
            v=13, target_pairs=pairs13, fixed_lines=frozenset({(0, 1, 2)}), shift=1
        )
    # targets not closed under the shift
    open_targets = frozenset(p for p in all_pairs(6) if 5 not in p)
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=6, target_pairs=open_targets, shift=1)
    # pair (0,3) maps to itself after 3 steps, not order = 2 steps... it IS
    # its own image under +3 (mod 6), a short orbit
    with pytest.raises(ParameterDomain):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 3)}), shift=3)


def test_order_property():
    assert ClimbProblem(v=6, target_pairs=frozenset({(0, 1)})).order == 1
    closed = frozenset(
        tuple(sorted(((a + 4 * i) % 12, (a + 1 + 4 * i) % 12)))
        for a in range(12)
        for i in range(3)
    )
    assert ClimbProblem(v=12, target_pairs=closed, shift=4).order == 3


def test_cyclic_sts_by_shift():
    problem = ClimbProblem(v=13, target_pairs=all_pairs(13), shift=1)
    assert problem.order == 13
    outcome = climb(problem, ClimbConfig(seed=0))
    assert outcome.status == COMPLETE
    assert len(outcome.lines) == 26  # two base triples developed mod 13
    verify_steiner(SteinerSystem(k=3, w=13, blocks=outcome.lines))


def test_cyclic_sts_deterministic():
    problem = ClimbProblem(v=13, target_pairs=all_pairs(13), shift=1)
    a = climb(problem, ClimbConfig(seed=3))
    b = climb(problem, ClimbConfig(seed=3))
    assert a.lines == b.lines
    assert a.iterations_used == b.iterations_used


def test_restart_config_rejected():
    problem = ClimbProblem(v=9, target_pairs=all_pairs(9))
    with pytest.raises(ParameterDomain):
        climb(problem, ClimbConfig(seed=0, restarts=0))


@pytest.mark.parametrize("budget", [0, -1, -100])
def test_empty_budget_rejected(budget):
    problem = ClimbProblem(v=9, target_pairs=all_pairs(9))
    with pytest.raises(ParameterDomain, match=rf"^max_iterations = {budget} < 1$"):
        climb(problem, ClimbConfig(seed=0, max_iterations=budget))


def test_outcome_accounting():
    problem = ClimbProblem(v=9, target_pairs=all_pairs(9))
    outcome = climb(problem, ClimbConfig(seed=1))
    assert outcome.status == COMPLETE
    assert outcome.attempts_used >= 1
    assert outcome.iterations_used >= len(outcome.lines)


def lines_digest(lines) -> str:
    return hashlib.sha256(repr(sorted(lines)).encode()).hexdigest()[:12]


# (iterations_used, attempts_used, digest of the sorted lines) per seed.
PINNED_CLIMBS = {
    (31, 0): (326, 1, "146c493c621c"),
    (31, 1): (463, 1, "0c117c48c2db"),
    (31, 2): (285, 1, "03b8c2b50502"),
    (69, 0): (1775, 1, "0a58b5257146"),
    (69, 1): (2435, 1, "710d126c6784"),
    (69, 2): (1747, 1, "cd9a4aebdac1"),
    (99, 0): (5222, 1, "8942c1528321"),
    (99, 1): (4413, 1, "9c37bfa25998"),
}


@pytest.mark.parametrize("w,seed", sorted(PINNED_CLIMBS))
def test_seeded_climb_pinned(w, seed):
    outcome = climb(ClimbProblem(v=w, target_pairs=all_pairs(w)), ClimbConfig(seed=seed))
    assert outcome.status == COMPLETE
    got = (outcome.iterations_used, outcome.attempts_used, lines_digest(outcome.lines))
    assert got == PINNED_CLIMBS[w, seed]


def test_problem_derives_classes():
    fixed = frozenset({(0, 1, 2)})
    plain = ClimbProblem(v=7, target_pairs=all_pairs(7), fixed_lines=fixed)
    assert plain.fixed_cover == frozenset({(0, 1), (0, 2), (1, 2)})
    assert plain.canon == {p: p for p in all_pairs(7)}
    assert plain.members == {p: (p,) for p in all_pairs(7)}

    cyclic = ClimbProblem(v=7, target_pairs=all_pairs(7), shift=1)
    assert cyclic.fixed_cover == frozenset()
    assert sorted(cyclic.members) == [(0, 1), (0, 2), (0, 3)]
    assert cyclic.members[0, 2] == ((0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (0, 5), (1, 6))
    assert all(cyclic.canon[q] == rep for rep, orbit in cyclic.members.items() for q in orbit)
    # derived data takes no part in equality or hashing
    assert cyclic == ClimbProblem(v=7, target_pairs=all_pairs(7), shift=1)
    assert hash(plain) == hash(ClimbProblem(v=7, target_pairs=all_pairs(7), fixed_lines=fixed))


def test_problem_validation_messages():
    with pytest.raises(ParameterDomain, match=r"^pair \(0,3\) has a short orbit under shift 3$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 3)}), shift=3)
    with pytest.raises(ParameterDomain, match=r"^shift 1 does not preserve the target pairs$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 1)}), shift=1)
    with pytest.raises(ParameterDomain, match=r"^fixed lines cover \(0, 1\) twice$"):
        ClimbProblem(
            v=6, target_pairs=frozenset({(0, 1)}), fixed_lines=frozenset({(0, 1, 2), (0, 1, 3)})
        )


@functools.cache
def c36_shift_problem() -> ClimbProblem:
    """The shift-12 completion problem construction36 climbs on the cubic
    girth-5 orbit graph on 20 vertices with h = k = 3."""
    seen = []

    def record(problem, config=None):
        seen.append(problem)
        return climb(problem, config)

    seed_graph = orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20)
    with mock.patch.object(construct, "climb", record):
        construct.construction36(seed_graph, 3, 3, ClimbConfig(seed=1))
    assert seen[0].shift == 12
    return seen[0]


def sts_problem(size):
    w = (7, 9, 13, 15, 19, 31)[size]
    return ClimbProblem(v=w, target_pairs=all_pairs(w))


def gdd_problem(size):
    g, u = ((2, 3), (3, 3), (2, 4), (4, 3), (3, 5), (6, 3))[size]
    pairs = frozenset((x, y) for x, y in all_pairs(g * u) if x // g != y // g)
    return ClimbProblem(v=g * u, target_pairs=pairs)


def fixed_problem(size):
    w, n_fixed = ((9, 3), (9, 8), (13, 5), (13, 15), (15, 10), (19, 20))[size]
    fixed = frozenset(sorted(sts(w).blocks)[:n_fixed])
    return ClimbProblem(v=w, target_pairs=all_pairs(w), fixed_lines=fixed)


def cyclic_problem(size):
    # w = 3 (mod 6) leaves a number of full pair orbits not divisible by 3,
    # so those attempts always run out.
    w = (7, 9, 13, 15, 19, 21)[size]
    return ClimbProblem(v=w, target_pairs=all_pairs(w), shift=1)


def c36_problem(size):
    return c36_shift_problem()


# Complete pair sets, 3-GDD pair sets, fixed lines, and the two kinds of
# shift problem.
FAMILIES = {
    "sts": sts_problem,
    "gdd": gdd_problem,
    "fixed": fixed_problem,
    "cyclic": cyclic_problem,
    "c36": c36_problem,
}


@settings(max_examples=300)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    size=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.integers(1, 60), st.integers(61, 3000)),
)
def test_attempt_matches_oracle(family, size, seed, budget):
    problem = FAMILIES[family](size)
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast = _attempt(problem, fast_rng, budget)
    slow = oracle._attempt(problem, slow_rng, budget)
    assert fast == slow
    assert fast_rng.getstate() == slow_rng.getstate()


@pytest.mark.parametrize(
    "make,seed",
    [
        (lambda: ClimbProblem(v=69, target_pairs=all_pairs(69)), 0),
        (lambda: ClimbProblem(v=99, target_pairs=all_pairs(99)), 3),
        (lambda: ClimbProblem(v=13, target_pairs=all_pairs(13), shift=1), 3),
        (c36_shift_problem, 6),
        (c36_shift_problem, 12),
    ],
    ids=["sts69", "sts99", "cyclic13", "c36-6", "c36-12"],
)
def test_attempt_matches_oracle_to_completion(make, seed):
    problem = make()
    budget = 100 * len(problem.target_pairs)
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast = _attempt(problem, fast_rng, budget)
    slow = oracle._attempt(problem, slow_rng, budget)
    assert fast[0] is not None
    assert fast == slow
    assert fast_rng.getstate() == slow_rng.getstate()
