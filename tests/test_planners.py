"""Planners against the original ones kept in tests/oracle.py.

The PENT(5,r) plan keeps three summand counts where the oracle keeps the q
summands, so oracle plans are compared through their counts.  Checks are
compared on doctored plans: whatever one accepts the other must accept.
"""

import dataclasses
import itertools
import random
import tracemalloc

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo.construct import (
    PENT5_PART_SIZES,
    Pent5Plan,
    _split_into_parts,
    plan_pent3,
    plan_pent5,
)
from pentgeo.errors import PentError

# Ingredient triples (r0, r1, r2, w) that pass the PENT(3,r) preconditions.
PENT3_TRIPLES = ((72, 25, 28, 9), (51, 47, 53, 7), (3, 1, 4, 3), (9, 10, 13, 3))


def counts_of(parts):
    return tuple(parts.count(size) for size in PENT5_PART_SIZES)


def parts_of(counts):
    return tuple(size for size, n in zip(PENT5_PART_SIZES, counts) for _ in range(n))


def pent5_fields(plan):
    if plan is None:
        return None
    if isinstance(plan, Pent5Plan):
        return (plan.r, plan.v, plan.h, plan.q, plan.m, plan.part_counts)
    return (plan.r, plan.v, plan.h, plan.q, plan.m, counts_of(plan.parts))


def outcome(fn, *args):
    """The plan's fields, None, or the type and message of the error raised."""
    try:
        plan = fn(*args)
    except PentError as exc:
        return (type(exc).__name__, str(exc))
    return None if plan is None else dataclasses.astuple(plan)


def accepts(plan) -> bool:
    try:
        plan.check()
    except PentError:
        return False
    return True


@pytest.mark.parametrize("lo,hi", [(50000, 56000), (199000, 201000)])
def test_plan_pent5_matches_oracle_on_ranges(lo, hi):
    found = 0
    for r in range(lo, hi):
        new = plan_pent5(r)
        assert pent5_fields(new) == pent5_fields(oracle.plan_pent5(r)), r
        found += new is not None
    assert found > 0


@settings(max_examples=200)
@given(st.integers(min_value=-20, max_value=2_000_000))
def test_plan_pent5_matches_oracle(r):
    assert pent5_fields(plan_pent5(r)) == pent5_fields(oracle.plan_pent5(r))


def test_split_into_parts_matches_oracle():
    for q in range(-3, 70):
        for m in range(-40, 31 * 70):
            old = oracle._split_into_parts(m, q)
            assert _split_into_parts(m, q) == (None if old is None else counts_of(old)), (m, q)


@settings(max_examples=300)
@given(st.sampled_from(PENT3_TRIPLES), st.integers(min_value=-3, max_value=10**6))
def test_plan_pent3_matches_oracle(triple, target):
    assert outcome(plan_pent3, *triple, target) == outcome(oracle.plan_pent3, *triple, target)


@settings(max_examples=300)
@given(
    st.integers(min_value=-1, max_value=40),
    st.integers(min_value=-1, max_value=40),
    st.integers(min_value=-1, max_value=40),
    st.integers(min_value=-1, max_value=20),
    st.integers(min_value=-1, max_value=5000),
)
def test_plan_pent3_matches_oracle_on_any_ingredients(r0, r1, r2, w, target):
    args = (r0, r1, r2, w, target)
    assert outcome(plan_pent3, *args) == outcome(oracle.plan_pent3, *args)


# Plans to doctor: both values of h, the smallest reachable r (54051), and
# random r up to 10^6.
_rng = random.Random(5)
PENT5_BASES = tuple(
    plan_pent5(r)
    for r in [200000, 200001, 200005, 200006, 54051, 10**6 + 1]
    + [5 * _rng.randrange(40000, 200000) + _rng.randrange(2) for _ in range(6)]
)
assert all(PENT5_BASES)


def doctored_pent5(plan):
    """Each field moved by +-1, and one summand moved from each size to each
    other size."""
    for field in ("r", "v", "h", "q", "m"):
        for step in (-1, 1):
            yield dataclasses.replace(plan, **{field: getattr(plan, field) + step})
    for i, j in itertools.permutations(range(3), 2):
        counts = list(plan.part_counts)
        counts[i] -= 1
        counts[j] += 1
        yield dataclasses.replace(plan, part_counts=tuple(counts))


def as_oracle_pent5(plan):
    return oracle.Pent5Plan(
        r=plan.r, v=plan.v, h=plan.h, q=plan.q, m=plan.m, parts=parts_of(plan.part_counts)
    )


def test_pent5_check_agrees_with_oracle_on_doctored_plans():
    rejected = 0
    for base in PENT5_BASES:
        assert accepts(base) and accepts(as_oracle_pent5(base))
        for plan in doctored_pent5(base):
            if min(plan.part_counts) < 0:
                assert not accepts(plan)  # no tuple of summands has a negative count
                continue
            assert accepts(plan) == accepts(as_oracle_pent5(plan)), plan
            rejected += not accepts(plan)
    assert rejected > 0


def test_pent5_check_agrees_with_oracle_on_count_moves():
    # Moves (d10, d18, d30) with d10 + d18 + d30 = 0 and 10d10 + 18d18 + 30d30
    # = 0 are multiples of (3, -5, 2); the bases have fewer than five 18s.
    for base in (PENT5_BASES[1], PENT5_BASES[4]):
        assert base.part_counts[1] < 5
        for step in itertools.product(range(-5, 6), repeat=3):
            counts = tuple(n + d for n, d in zip(base.part_counts, step))
            plan = dataclasses.replace(base, part_counts=counts)
            if min(counts) < 0:
                assert not accepts(plan)
            else:
                assert accepts(plan) == accepts(as_oracle_pent5(plan)), step


@settings(max_examples=500)
@given(
    st.integers(min_value=87, max_value=545),
    st.sampled_from((86, 90, 94)),
    st.integers(min_value=95, max_value=305),
    st.integers(min_value=0, max_value=4),
    st.sampled_from((0, 0, 0, 0, 0, -5, -1, 1, 5)),
    st.sampled_from((0, 0, 0, 0, 0, -20, -1, 1, 20)),
    st.sampled_from((0, 0, 0, 0, 0, -5, -1, 1, 5)),
)
def test_pent5_check_agrees_with_oracle_on_built_plans(k, h, tenths, odd, dm, dv, dr):
    """Plans built back from q = 11(2k+1), h and m/h, near m = tenths*q/10,
    and then possibly moved: every rule holds on some draws and is the only
    one broken on others, 11q <= m <= 29q, m = v - 100q and v = 4r+6
    included."""
    q = 11 * (2 * k + 1)
    b = q * tenths // (100 * h) * 10 + 2 * odd + 1
    m = h * b + dm
    v = m + 100 * q + dv
    r = (v - 6) // 4 + dr
    old_parts = oracle._split_into_parts(m, q) or (10,) * q
    plan = Pent5Plan(r=r, v=v, h=h, q=q, m=m, part_counts=counts_of(old_parts))
    old = oracle.Pent5Plan(r=r, v=v, h=h, q=q, m=m, parts=old_parts)
    assert accepts(plan) == accepts(old)


def test_pent5_check_rejects_malformed_counts():
    base = plan_pent5(200000)
    for counts in ((), base.part_counts[:2], base.part_counts + (0,)):
        assert not accepts(dataclasses.replace(base, part_counts=counts))


def test_pent3_check_agrees_with_oracle_on_doctored_plans():
    for triple in PENT3_TRIPLES:
        for target in (5000, 30000, 123457):
            base = plan_pent3(*triple, target)
            if base is None:
                continue
            for field in ("r0", "r1", "r2", "w", "r3", "t", "u"):
                for step in (-2, -1, 1, 2):
                    plan = dataclasses.replace(base, **{field: getattr(base, field) + step})
                    old = oracle.Pent3Plan(**dataclasses.asdict(plan))
                    assert accepts(plan) == accepts(old), plan


def test_plan_pent5_at_huge_r():
    plan = plan_pent5(10**30)
    assert plan is not None
    plan.check()
    assert sum(plan.part_counts) == plan.q


def test_plan_pent5_memory_does_not_grow_with_r():
    # The q-long summand tuple this replaces peaked at about 47 MiB here.
    tracemalloc.start()
    try:
        plan = plan_pent5(10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan is not None
    assert peak < 1 << 20
