"""Stochastic completion search: determinism, exhaustion, orbit climbing."""

import functools
import hashlib
import itertools
import random
import signal
import sys
from collections import Counter
from unittest import mock

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentgeo import construct, hillclimb
from pentgeo.designs import SteinerSystem, verify_gdd, verify_steiner
from pentgeo.errors import ClimbFailed, UsageError
from pentgeo.graphs import bits, orbit_graph
from pentgeo.hillclimb import (
    COMPLETE,
    EXHAUSTED,
    MAX_COMPLETION_PAIRS,
    AttemptLog,
    ClimbConfig,
    ClimbProblem,
    _attempt,
    _check_pair_count,
    _draw_below,
    _select,
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
        with pytest.raises(UsageError, match=rf"^no S\(2,3,{w}\): w must be 1 or 3 \(mod 6\)$"):
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
    with pytest.raises(UsageError, match=r"^group size 0 < 1$"):
        climb_3gdd(0, 3)
    with pytest.raises(UsageError, match=r"^2 groups < 3$"):
        climb_3gdd(4, 2)  # fewer than 3 groups
    with pytest.raises(UsageError, match=r"^no 3-GDD of type 3\^4$"):
        climb_3gdd(3, 4)  # odd point degree
    with pytest.raises(UsageError, match=r"^no 3-GDD of type 1\^5$"):
        climb_3gdd(1, 5)  # block count not integral


def test_climbs_past_the_pair_bound_refused():
    # STS(727) has 263,901 pairs, past 2^18; STS(723) has 261,003.  Both
    # refusals come before any pair is built.
    bound = f"pairs to complete > {MAX_COMPLETION_PAIRS}$"
    with pytest.raises(UsageError, match=rf"^S\(2,3,727\) climb: 263901 {bound}"):
        climb_sts(727)
    _check_pair_count(723 * 722 // 2, "S(2,3,723) climb")
    with pytest.raises(UsageError, match=rf"^3-GDD 300\^3 climb: 270000 {bound}"):
        climb_3gdd(300, 3)


def test_exhausted_on_triangle_free_targets():
    # hexagon edges: no triple covers three of them at once.  Each of the 20
    # attempts takes 100 steps per target pair and, with a stall limit of
    # 6 // 4 = 1, kicks on every second step.
    targets = frozenset(tuple(sorted((i, (i + 1) % 6))) for i in range(6))
    problem = ClimbProblem(v=6, target_pairs=targets)
    outcome = climb(problem)
    assert outcome.status == EXHAUSTED
    assert outcome.lines == frozenset()
    assert outcome.attempts == (AttemptLog(600, 300, 6),) * 20


def test_problem_validations():
    with pytest.raises(UsageError, match=r"^bad pair \(0,9\)$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 9)}))
    with pytest.raises(UsageError, match=r"^bad pair \(3,3\)$"):
        ClimbProblem(v=6, target_pairs=frozenset({(3, 3)}))
    with pytest.raises(UsageError, match=r"^bad pair \(1,0\)$"):
        ClimbProblem(v=6, target_pairs=frozenset({(1, 0)}))


def test_shift_validations():
    pairs13 = all_pairs(13)
    # The step rule of core: a step divides v, and the default is v.
    for step in (0, -13, 5, 26):
        with pytest.raises(UsageError, match=rf"^step = {step} does not divide v = 13$"):
            ClimbProblem(v=13, target_pairs=pairs13, step=step)
    assert ClimbProblem(v=13, target_pairs=pairs13).step == 13
    assert ClimbProblem(v=13, target_pairs=pairs13, step=13) == ClimbProblem(
        v=13, target_pairs=pairs13
    )
    # targets not closed under the step
    open_targets = frozenset(p for p in all_pairs(6) if 5 not in p)
    with pytest.raises(UsageError, match=r"^step 1 does not preserve the target pairs$"):
        ClimbProblem(v=6, target_pairs=open_targets, step=1)
    # pair (0,3) is its own image under +3 (mod 6), a short orbit
    with pytest.raises(UsageError, match=r"^pair \(0,3\) has a short orbit under step 3$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 3)}), step=3)


def test_order_property():
    assert ClimbProblem(v=6, target_pairs=frozenset({(0, 1)})).order == 1
    closed = frozenset(
        tuple(sorted(((a + 4 * i) % 12, (a + 1 + 4 * i) % 12)))
        for a in range(12)
        for i in range(3)
    )
    assert ClimbProblem(v=12, target_pairs=closed, step=4).order == 3


def test_cyclic_sts_by_shift():
    problem = ClimbProblem(v=13, target_pairs=all_pairs(13), step=1)
    assert problem.order == 13
    outcome = climb(problem, ClimbConfig(seed=0))
    assert outcome.status == COMPLETE
    assert len(outcome.lines) == 26  # two base triples developed mod 13
    verify_steiner(SteinerSystem(k=3, w=13, blocks=outcome.lines))


def test_cyclic_sts_deterministic():
    problem = ClimbProblem(v=13, target_pairs=all_pairs(13), step=1)
    a = climb(problem, ClimbConfig(seed=3))
    b = climb(problem, ClimbConfig(seed=3))
    assert a.lines == b.lines
    assert a.iterations_used == b.iterations_used


@pytest.mark.parametrize("seed", [-1, -3])
def test_negative_seed_rejected(seed):
    # random.Random(-s) seeds as random.Random(s), so a negative seed would
    # silently replay the positive one.
    problem = ClimbProblem(v=9, target_pairs=all_pairs(9))
    with pytest.raises(UsageError, match=rf"^seed = {seed} < 0$"):
        climb(problem, ClimbConfig(seed=seed))
    with pytest.raises(UsageError, match=rf"^seed = {seed} < 0$"):
        climb_sts(31, ClimbConfig(seed=seed))


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
    (69, 1): (1942, 1, "6b61f47dbc3f"),
    (69, 2): (1747, 1, "cd9a4aebdac1"),
    (99, 0): (4377, 1, "a4891f4deadb"),
    (99, 1): (4054, 1, "4c8c9bec4697"),
}


@pytest.mark.parametrize("w,seed", sorted(PINNED_CLIMBS))
def test_seeded_climb_pinned(w, seed):
    outcome = climb(ClimbProblem(v=w, target_pairs=all_pairs(w)), ClimbConfig(seed=seed))
    assert outcome.status == COMPLETE
    got = (outcome.iterations_used, outcome.attempts_used, lines_digest(outcome.lines))
    assert got == PINNED_CLIMBS[w, seed]


@pytest.mark.parametrize("w,seed", sorted(PINNED_CLIMBS))
def test_attempt_logs_total_the_pins(w, seed):
    outcome = climb(ClimbProblem(v=w, target_pairs=all_pairs(w)), ClimbConfig(seed=seed))
    iterations, attempts, _ = PINNED_CLIMBS[w, seed]
    assert len(outcome.attempts) == attempts
    assert sum(a.iterations for a in outcome.attempts) == iterations
    assert outcome.attempts[-1].best_uncovered == 0
    assert all(a.best_uncovered > 0 for a in outcome.attempts[:-1])


# (iterations_used, attempts_used, digest of the sorted blocks) of
# climb_3gdd(6, 5) per seed: a climb at step = v on a pair set that is
# not complete.
PINNED_3GDD = {
    0: (276, 1, "746ea48ef5fa"),
    1: (561, 1, "fe5490d83bbe"),
    2: (284, 1, "e967109679e1"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_3GDD))
def test_seeded_3gdd_climb_pinned(seed):
    outcomes = []

    def record(problem, config=None):
        outcomes.append(climb(problem, config))
        return outcomes[-1]

    with mock.patch.object(hillclimb, "climb", record):
        design = climb_3gdd(6, 5, ClimbConfig(seed=seed))
    (outcome,) = outcomes
    got = (outcome.iterations_used, outcome.attempts_used, lines_digest(design.blocks))
    assert got == PINNED_3GDD[seed]


@pytest.mark.parametrize("budget,kicks", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2)])
def test_attempt_log_counts_kicks(budget, kicks):
    # No triple covers three hexagon edges, so nothing is ever covered.  The
    # 6 open classes give a stall limit of 6 // 4 = 1, so each attempt kicks
    # on every second iteration: budgets 1 | 2 and 3 | 4 straddle the first
    # two kicks.  The budget is set on the attempts of a climb at seed 0,
    # which draw from random.Random(0), random.Random(1), ...
    targets = frozenset(tuple(sorted((i, (i + 1) % 6))) for i in range(6))
    problem = ClimbProblem(v=6, target_pairs=targets)
    logs = [_attempt(problem, random.Random(i), budget) for i in range(3)]
    assert logs == [(None, AttemptLog(budget, kicks, 6))] * 3


def test_corrupted_problem_fails_instead_of_spinning():
    # A fourth class that no pair names: the one triple covers the three
    # real classes and empties every mask, so no point is left to draw
    # while one class still counts as open.  The draw used to redraw
    # getrandbits(0) = 0 forever; the alarm turns such a hang into a failure.
    problem = ClimbProblem(v=3, target_pairs=all_pairs(3))
    object.__setattr__(problem, "flips", problem.flips + problem.flips[:1])

    def hang(signum, frame):
        raise AssertionError("the corrupted climb did not stop")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        message = r"^internal: no live point with classes left uncovered$"
        with pytest.raises(ClimbFailed, match=message):
            climb(problem)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_small_climbs_complete_on_first_attempt():
    # The stall limit scales with the open classes: 5 at STS(7), 1 for the
    # 6 pair orbits of v = 13 under step 1, 0 for 3 open classes.  Small problems must
    # still finish without a restart.
    problems = [
        ClimbProblem(v=w, target_pairs=all_pairs(w)) for w in range(3, 28) if w % 6 in (1, 3)
    ]
    problems += [ClimbProblem(v=v, target_pairs=all_pairs(v), step=1) for v in (7, 13, 19, 25)]
    for problem in problems:
        for seed in range(30):
            outcome = climb(problem, ClimbConfig(seed=seed))
            assert outcome.status == COMPLETE, (problem.v, problem.step, seed)
            assert outcome.attempts_used == 1, (problem.v, problem.step, seed)


def class_members(problem):
    """The sorted pairs of each class, in id order, read from rows."""
    members = [[] for _ in problem.flips]
    for x, row in enumerate(problem.rows):
        for y, i in row.items():
            if x < y:
                members[i].append((x, y))
    return [tuple(sorted(pairs)) for pairs in members]


def avail_pairs(problem):
    pairs = {(x, y) for x, m in enumerate(problem.avail) for y in bits(m)}
    assert pairs == {(y, x) for x, y in pairs}
    return {(x, y) for x, y in pairs if x < y}


def test_problem_derives_classes():
    plain = ClimbProblem(v=7, target_pairs=all_pairs(7))
    assert avail_pairs(plain) == all_pairs(7)
    # the 21 pairs are numbered in sorted order
    assert [plain.rows[x][y] for x, y in sorted(all_pairs(7))] == list(range(21))

    cyclic = ClimbProblem(v=7, target_pairs=all_pairs(7), step=1)
    assert avail_pairs(cyclic) == all_pairs(7)
    assert class_members(cyclic) == [
        ((0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
        tuple(sorted(((0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (0, 5), (1, 6)))),
        ((0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)),
    ]
    # derived data takes no part in equality or hashing
    assert cyclic == ClimbProblem(v=7, target_pairs=all_pairs(7), step=1)
    assert hash(plain) == hash(ClimbProblem(v=7, target_pairs=all_pairs(7)))

    # rows[x][y] = rows[y][x] is the id of the class of {x,y}, with one entry
    # per end of a target pair.
    gdd = gdd_problem(4)
    for problem in (gdd, plain, cyclic, c36_shift_problem()):
        for x, row in enumerate(problem.rows):
            assert sorted(row) == bits(problem.avail[x])
            assert all(problem.rows[y][x] == i for y, i in row.items())
        assert set(itertools.chain.from_iterable(map(dict.values, problem.rows))) == set(
            range(len(problem.flips))
        )
    # At step g = v class {a,b} flips bit b of uncovered[a] and bit a of
    # uncovered[b]; at step g = 1 U(a) is uncovered[0] rotated by a.
    gdd_pairs = [pairs[0] for pairs in class_members(gdd)]
    assert all(gdd.flips[i] == (a, 1 << b, b, 1 << a) for i, (a, b) in enumerate(gdd_pairs))
    assert cyclic.flips == ((0, 1 << 1, 0, 1 << 6), (0, 1 << 2, 0, 1 << 5), (0, 1 << 3, 0, 1 << 4))


def test_problem_validation_messages():
    with pytest.raises(UsageError, match=r"^pair \(0,3\) has a short orbit under step 3$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 3)}), step=3)
    with pytest.raises(UsageError, match=r"^step 1 does not preserve the target pairs$"):
        ClimbProblem(v=6, target_pairs=frozenset({(0, 1)}), step=1)


@functools.cache
def c36_shift_problem() -> ClimbProblem:
    """The step-12 completion problem construction36 climbs on the cubic
    girth-5 orbit graph on 20 vertices with h = k = 3."""
    seen = []

    def record(problem, config=None):
        seen.append(problem)
        return climb(problem, config)

    seed_graph = orbit_graph(((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3)), 4, 20)
    with mock.patch.object(construct, "climb", record):
        construct.construction36(seed_graph, 3, 3, ClimbConfig(seed=1))
    assert seen[0].step == 12
    return seen[0]


def sts_problem(size):
    w = (7, 9, 13, 15, 19, 31)[size]
    return ClimbProblem(v=w, target_pairs=all_pairs(w))


def gdd_problem(size):
    g, u = ((2, 3), (3, 3), (2, 4), (4, 3), (3, 5), (6, 3))[size]
    pairs = frozenset((x, y) for x, y in all_pairs(g * u) if x // g != y // g)
    return ClimbProblem(v=g * u, target_pairs=pairs)


def cyclic_problem(size):
    # w = 3 (mod 6) leaves a number of full pair orbits not divisible by 3,
    # so those attempts always run out.
    w = (7, 9, 13, 15, 19, 21)[size]
    return ClimbProblem(v=w, target_pairs=all_pairs(w), step=1)


def c36_problem(size):
    return c36_shift_problem()


def quotient_problem(size):
    # 1 < step < v: several point orbits, and classes {a,b} with
    # a = b (mod gcd) whose two ends share a representative.  (15, 5) and
    # (21, 7) leave a number of pair orbits not divisible by 3, so those
    # attempts always run out.
    v, step = ((9, 3), (15, 3), (15, 5), (21, 3), (21, 7), (27, 9))[size]
    return ClimbProblem(v=v, target_pairs=all_pairs(v), step=step)


# Complete pair sets, 3-GDD pair sets, and the three kinds of problem with a
# step below v.
FAMILIES = {
    "sts": sts_problem,
    "gdd": gdd_problem,
    "cyclic": cyclic_problem,
    "c36": c36_problem,
    "quotient": quotient_problem,
}


# Problems at step = v at size, where the classes are numbered in bulk.
AT_SIZE = {
    "sts99": lambda size: ClimbProblem(v=99, target_pairs=all_pairs(99)),
}


@pytest.mark.parametrize(
    "family,size",
    [(family, size) for family in sorted(FAMILIES) if family != "c36" for size in range(6)]
    + [("c36", 0)]
    + [(family, 0) for family in sorted(AT_SIZE)],
)
def test_classes_match_oracle(family, size):
    # The oracle derives the classes pair by pair from the problem's inputs.
    # The ids run in the order of each class's least pair.
    problem = {**FAMILIES, **AT_SIZE}[family](size)
    _, members = oracle.climb_classes(problem)
    expected = sorted(tuple(sorted(c)) for c in members.values())
    assert class_members(problem) == expected
    assert avail_pairs(problem) == problem.target_pairs
    # Both ends of a pair hold its id, and class {a,b}, least pair (a, b),
    # flips bit b of U(a) and bit a of U(b), read at the representatives.
    rows = problem.rows
    assert all(rows[y][x] == i for x, row in enumerate(rows) for y, i in row.items())
    v, g = problem.v, problem.v // problem.order
    assert list(problem.flips) == [
        (a % g, 1 << (b - a + a % g) % v, b % g, 1 << (a - b + b % g) % v)
        for a, b in (pairs[0] for pairs in expected)
    ]


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
        (lambda: ClimbProblem(v=13, target_pairs=all_pairs(13), step=1), 3),
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


def net_move_counts(problem, seed, budget):
    """Run _attempt, counting the moves whose two far classes c_xz and c_yz
    one displaced triple held ("one triple") and those that displaced two
    distinct triples ("two triples").  A move calls remove_triple with the
    far classes as keep, first for t = cover[c_xz] when that is set; the
    spy reads t and u = cover[c_yz] from the calling frame."""
    counts = Counter()

    def spy(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "remove_triple":
            args = frame.f_locals
            if args["keep"]:
                move = frame.f_back.f_locals
                if args["t"] is move["t"]:
                    if move["u"] is move["t"]:
                        counts["one triple"] += 1
                    elif move["u"] is not None:
                        counts["two triples"] += 1

    rng = random.Random(seed)
    previous = sys.gettrace()
    sys.settrace(spy)
    try:
        result = _attempt(problem, rng, budget)
    finally:
        sys.settrace(previous)
    return result, rng, counts


@pytest.mark.parametrize(
    "make,seed,branch",
    [
        # At step 12, one placed triple can hold translates of both {x,z}
        # and {y,z}; seed 1 displaces such a triple twice in 3,970 steps.
        (c36_shift_problem, 1, "one triple"),
        # A cost-2 move on the 27-point problem at step 9.
        (lambda: quotient_problem(5), 2, "two triples"),
    ],
    ids=["c36-1", "quotient27-2"],
)
def test_net_move_branches_match_oracle(make, seed, branch):
    problem = make()
    budget = 100 * len(problem.target_pairs)
    fast, fast_rng, counts = net_move_counts(problem, seed, budget)
    slow_rng = random.Random(seed)
    slow = oracle._attempt(problem, slow_rng, budget)
    assert counts[branch] > 0
    assert fast[0] is not None
    assert fast == slow
    assert fast_rng.getstate() == slow_rng.getstate()


@pytest.mark.parametrize("v,step", [(20, 4), (28, 4)])
def test_attempt_matches_oracle_on_even_quotients(v, step):
    # The degenerate third points of a pair x = y (mod g) include z = y + d
    # with 2d = x - y (mod v), which has two roots d when v is even.  Of the
    # families above only c36 has an even v; here g = 4, and exactly one of
    # the two roots is a multiple of g.  Neither problem can complete, so
    # every attempt runs its whole budget.
    problem = ClimbProblem(v=v, target_pairs=all_pairs(v), step=step)
    for seed in range(10):
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        fast = _attempt(problem, fast_rng, 1500)
        slow = oracle._attempt(problem, slow_rng, 1500)
        assert fast == slow
        assert fast_rng.getstate() == slow_rng.getstate()


def test_attempt_matches_oracle_on_dense_masks():
    # The other oracle tests stop at v = 99.  At STS(201) every U(x) starts
    # with 200 set bits, so the partner and third-point draws go through
    # _select, which narrows them by halves; the 201 live representatives
    # are read from their sorted list by index.
    problem = ClimbProblem(v=201, target_pairs=all_pairs(201))
    sizes = []

    def spy(m, i, n):
        sizes.append(n)
        return _select(m, i, n)

    fast_rng, slow_rng = random.Random(7), random.Random(7)
    with mock.patch("pentgeo.hillclimb._select", spy):
        fast = _attempt(problem, fast_rng, 3000)
    slow = oracle._attempt(problem, slow_rng, 3000)
    assert fast == slow
    assert fast_rng.getstate() == slow_rng.getstate()
    assert max(sizes) > 100


def dense_masks():
    # A set top bit below 600 and arbitrary bits under it.
    return st.integers(1, 600).flatmap(lambda top: st.integers(1 << (top - 1), (1 << top) - 1))


def sparse_masks():
    return st.sets(st.integers(0, 599), min_size=1, max_size=12).map(
        lambda ps: sum(1 << p for p in ps)
    )


@given(st.one_of(dense_masks(), sparse_masks()))
@example(1)
@example(1 << 599)
@example((1 << 600) - 1)
@example(0b100000001 << 591)  # 2 bits, the top one at 599
@example(sum(1 << p for p in range(0, 600, 67)))  # 9 bits: one halving
def test_select_reads_bits_by_rank(m):
    n = m.bit_count()
    positions = bits(m)
    assert [_select(m, i, n) for i in range(n)] == positions


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_draw_below_is_randrange(seed):
    # below(n) must consume the generator exactly as randrange(n) does, so a
    # Python whose randrange draws differently fails here before any pin.
    # n = 2^j + 1 rejects almost half of its draws; n = 2^j none.
    sizes = list(range(1, 300)) + [2**j + e for j in range(9, 71) for e in (-1, 0, 1)]
    ours, theirs = random.Random(seed), random.Random(seed)
    below = _draw_below(ours)
    for n in sizes * 3:
        assert below(n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()
