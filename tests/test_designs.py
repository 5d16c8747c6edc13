"""Finite fields, Steiner systems, planes, MOLS, transversal designs."""

import dataclasses
import functools
import hashlib
import itertools
import random
import re

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo import designs
from pentgeo.designs import (
    MAX_FIELD_ORDER,
    MAX_RECIPE_PAIRS,
    Gdd,
    SteinerSystem,
    affine_plane,
    field,
    mols,
    prime_power,
    projective_plane,
    single_block_system,
    sts,
    uniform_gdd,
    verify_gdd,
    verify_steiner,
)
from pentgeo.errors import PentError, UsageError
from pentgeo.hillclimb import ClimbConfig, climb_3gdd, climb_sts

PRIME_POWERS_TO_49 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49)


def all_pairs_once(blocks, points):
    seen = set()
    for blk in blocks:
        for p in itertools.combinations(sorted(blk), 2):
            assert p not in seen
            seen.add(p)
    want = set(itertools.combinations(range(points), 2))
    assert seen == want


def test_prime_power():
    assert prime_power(4) == (2, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    assert prime_power(97) == (97, 1)
    assert prime_power(6) is None
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_field_known_products():
    assert field(4).mul(2, 2) == 3
    assert field(9).mul(3, 3) == 2


def test_field_inverses():
    for q in (5, 8, 9, 27):
        f = field(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(UsageError, match=r"^0 has no inverse$"):
        field(5).inv(0)


def test_field_distributive_spot():
    f = field(16)
    for a in range(16):
        for b in range(16):
            assert f.mul(2, f.add(a, b)) == f.add(f.mul(2, a), f.mul(2, b))


def test_every_small_prime_power_builds():
    for q in PRIME_POWERS_TO_49:
        assert field(q).q == q


def test_field_rejections():
    for q in (6, 10, 12, 15):
        with pytest.raises(UsageError, match=rf"^{q} is not a prime power$"):
            field(q)
    for q in (53, 64, 121):
        with pytest.raises(UsageError, match=rf"^q = {q} > 49$"):
            field(q)


@pytest.mark.parametrize("w", [3, 7, 9, 13, 15, 19, 21, 25, 27, 31])
def test_sts(w):
    system = sts(w)
    assert system.k == 3 and system.w == w
    assert len(system.blocks) == w * (w - 1) // 6
    all_pairs_once(system.blocks, w)


def test_sts_rejects_inadmissible():
    with pytest.raises(UsageError, match=r"^w = 2 < 3$"):
        sts(2)
    for w in (5, 11, 17):
        with pytest.raises(UsageError, match=rf"^no S\(2,3,{w}\): w = {w} is not 1 or 3 \(mod 6\)$"):
            sts(w)


def test_single_block_system():
    system = single_block_system(4)
    assert system.blocks == frozenset({(0, 1, 2, 3)})
    verify_steiner(system)
    with pytest.raises(UsageError, match=r"^k = 1 < 2$"):
        single_block_system(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_affine_plane(q):
    plane = affine_plane(q)
    assert plane.k == q and plane.w == q * q
    assert len(plane.blocks) == q * (q + 1)
    all_pairs_once(plane.blocks, q * q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_projective_plane(q):
    plane = projective_plane(q)
    assert plane.k == q + 1 and plane.w == q * q + q + 1
    assert len(plane.blocks) == q * q + q + 1
    all_pairs_once(plane.blocks, plane.w)


# Digests of the sorted blocks of AG(2,q) and PG(2,q) for every order the
# constructions can ask for: each prime power q up to MAX_FIELD_ORDER.
PINNED_PLANES = {
    2: ("8cf7c838487fa83b", "449879aac0a29ea1"),
    3: ("238334326924fd27", "04079c978ae64786"),
    4: ("4385130fedf1fbbc", "b3d3d512b9c064e4"),
    5: ("cf6624890c15d8ac", "a9cb74bdc5be2b96"),
    7: ("05f43b3806af5f84", "3e2d9d0c41eb520b"),
    8: ("69f9351d5fd4b980", "a30b06b6142d3110"),
    9: ("0e701c0dd7d3dd99", "902954e505a7c8b7"),
    11: ("bd5efa9a7a4a2db6", "a738ff6469012d03"),
    13: ("171766d222255af2", "5908aa226b818f51"),
    16: ("9bb3c5670200a535", "fb9bd3f4a969a889"),
    17: ("acead1937d257279", "b281de08e971b469"),
    19: ("5a00112e91203ac9", "1cfb47e5b3dd8148"),
    23: ("080c1a9f595b6ea1", "3e1ebdc0ca33c742"),
    25: ("4f9b41014f781a76", "f8b512d49d602d5b"),
    27: ("c921d61d7da41f1c", "024e22c01b352ce3"),
    29: ("6feaa18db5584ea2", "c2121330d8195dbd"),
    31: ("e4121d50b5db7eb6", "7547f743a07dd6c1"),
    32: ("02652fe69b3ad6d5", "3951c7a540e7f432"),
    37: ("4a8702f69156dabe", "81e3f4dc4d3ab664"),
    41: ("eab617ecf96d22c5", "593bda454fc30be3"),
    43: ("caed436a00d08b0d", "bccbc86108e34cad"),
    47: ("a9ed7598ebdc4814", "adf55e2b26d54e68"),
    49: ("b06bfd978325103c", "34df1f06601a8ec9"),
}


def test_planes_pinned():
    assert sorted(PINNED_PLANES) == [
        q for q in range(2, MAX_FIELD_ORDER + 1) if prime_power(q) is not None
    ]
    for q, digests in PINNED_PLANES.items():
        planes = (affine_plane(q), projective_plane(q))
        got = tuple(
            hashlib.sha256(repr(sorted(p.blocks)).encode()).hexdigest()[:16] for p in planes
        )
        assert got == digests, q


def test_mols_are_orthogonal_latin_squares():
    squares = mols(5, 3)
    assert len(squares) == 3
    for sq in squares:
        for row in sq:
            assert sorted(row) == list(range(5))
        for col in zip(*sq):
            assert sorted(col) == list(range(5))
    for a, b in itertools.combinations(squares, 2):
        pairs = {(a[x][y], b[x][y]) for x in range(5) for y in range(5)}
        assert len(pairs) == 25


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


FIELD_ORDERS = [q for q in range(2, 50) if is_prime_power(q)]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_mols_complete_sets_are_orthogonal(q):
    # mols builds its squares unchecked; count every pair of entries here.
    squares = mols(q, q - 1)
    assert len(squares) == q - 1
    symbols = list(range(q))
    for sq in squares:
        assert all(sorted(row) == symbols for row in sq)
        assert all(sorted(col) == symbols for col in zip(*sq))
    cells = [[e for row in sq for e in row] for sq in squares]
    for a, b in itertools.combinations(cells, 2):
        assert len(set(zip(a, b))) == q * q


def test_mols_errors():
    with pytest.raises(UsageError, match=r"^only 3 MOLS of side 4 available, 4 requested$"):
        mols(4, 4)
    with pytest.raises(UsageError, match=r"^t = 0 < 1$"):
        mols(4, 0)
    with pytest.raises(UsageError, match=r"^6 is not a prime power$"):
        mols(6, 1)


@pytest.mark.parametrize("k,g", [(3, 2), (3, 5), (3, 14), (4, 3), (4, 5), (5, 4)])
def test_uniform_gdd(k, g):
    design = uniform_gdd(k, g)
    assert design.k == k
    assert design.n == k * g
    assert design.group_type() == {g: k}
    assert len(design.blocks) == g * g
    verify_gdd(design)


# Digest of the sorted blocks of uniform_gdd(k, g), measured before the
# transversal designs were built from mols.
PINNED_TD = {
    (3, 2): "9d4263313ec3",
    (3, 10): "8549a94dd758",
    (4, 3): "96b8bc9a5c98",
    (4, 8): "d2642e2fb6f5",
    (5, 5): "44c48ff1d9ee",
    (7, 7): "758b6ec81422",
    (6, 9): "8cd788f30717",
    (11, 11): "35b18215332e",
}


@pytest.mark.parametrize("k,g", sorted(PINNED_TD))
def test_uniform_gdd_blocks_pinned(k, g):
    design = uniform_gdd(k, g)
    assert design.groups == tuple(tuple(range(i * g, (i + 1) * g)) for i in range(k))
    digest = hashlib.sha256(repr(sorted(design.blocks)).encode()).hexdigest()[:12]
    assert digest == PINNED_TD[(k, g)]


def test_uniform_gdd_errors():
    with pytest.raises(UsageError, match=r"^k = 2 < 3$"):
        uniform_gdd(2, 4)
    with pytest.raises(UsageError, match=r"^g = 1 < 2$"):
        uniform_gdd(3, 1)
    with pytest.raises(PentError, match=r"^no TD\(4,6\) recipe here: 6 is not a prime power$"):
        uniform_gdd(4, 6)  # needs MOLS of side 6
    with pytest.raises(
        PentError, match=r"^no TD\(5,2\) recipe here: only 1 MOLS of side 2 available, 3 requested$"
    ):
        uniform_gdd(5, 2)  # needs 3 MOLS of side 2


def test_recipes_refuse_past_the_pair_bound(monkeypatch):
    # STS(1447) and TD(3,591) are the largest admitted; STS(1449) and
    # TD(3,592), the next admissible orders, are refused before a block is
    # made, as are STS(20001) and TD(3,20000), which would take gigabytes.
    assert 1447 * 1446 // 2 <= MAX_RECIPE_PAIRS < 1449 * 1448 // 2
    assert 3 * 591 * 591 <= MAX_RECIPE_PAIRS < 3 * 592 * 592
    for recipe in ("_bose", "_skolem", "canonical_line"):
        monkeypatch.setattr(designs, recipe, lambda *args, name=recipe: pytest.fail(f"{name} ran"))
    for w, pairs in ((1449, 1049076), (20001, 200010000)):
        with pytest.raises(UsageError, match=rf"^S\(2,3,{w}\): {pairs} pairs to cover > 1048576$"):
            sts(w)
    for g, pairs in ((592, 1051392), (20000, 1200000000)):
        with pytest.raises(UsageError, match=rf"^TD\(3,{g}\): {pairs} pairs to cover > 1048576$"):
            uniform_gdd(3, g)
    # Admissibility is still decided first.
    with pytest.raises(UsageError, match=r"^no S\(2,3,20003\): w = 20003 is not 1 or 3"):
        sts(20003)


def test_uniform_gdd_field_too_large():
    with pytest.raises(PentError, match=r"^no TD\(4,53\) recipe here: q = 53 > 49$"):
        uniform_gdd(4, 53)


def test_verify_steiner_negatives():
    good = sts(7)
    missing = SteinerSystem(k=3, w=7, blocks=frozenset(list(good.blocks)[:-1]))
    with pytest.raises(PentError, match=r"^pair \(1, 4\) covered by no block$"):
        verify_steiner(missing)

    doubled = SteinerSystem(k=3, w=9, blocks=sts(9).blocks | {(0, 1, 8)})
    with pytest.raises(
        PentError, match=r"^pair \(0, 1\) covered by both \(0, 1, 5\) and \(0, 1, 8\)$"
    ):
        verify_steiner(doubled)

    with pytest.raises(UsageError, match=r"^bad S\(2,3,2\)$"):
        verify_steiner(SteinerSystem(k=3, w=2, blocks=frozenset()))
    with pytest.raises(UsageError, match=r"^bad block \(0, 1\)$"):
        verify_steiner(SteinerSystem(k=3, w=7, blocks=frozenset({(0, 1)})))


def test_verify_gdd_negatives():
    base = uniform_gdd(3, 3)

    overlap = Gdd(k=3, groups=((0, 1), (1, 2)), blocks=frozenset())
    with pytest.raises(UsageError, match=r"^point 1 in two groups$"):
        verify_gdd(overlap)

    gappy = Gdd(k=3, groups=((0, 1), (3, 4)), blocks=frozenset())
    with pytest.raises(UsageError, match=r"^groups do not partition 0\.\.n-1$"):
        verify_gdd(gappy)

    intra = Gdd(k=3, groups=((0, 1), (2, 3), (4, 5)), blocks=frozenset({(0, 1, 2)}))
    with pytest.raises(PentError, match=r"^within-group pair \(0, 1\) covered by \(0, 1, 2\)$"):
        verify_gdd(intra)

    doubled = Gdd(k=3, groups=base.groups, blocks=base.blocks | {(0, 4, 8)})
    with pytest.raises(
        PentError, match=r"^pair \(0, 4\) covered by both \(0, 4, 7\) and \(0, 4, 8\)$"
    ):
        verify_gdd(doubled)

    short = Gdd(k=3, groups=base.groups, blocks=frozenset(list(base.blocks)[:-1]))
    with pytest.raises(PentError, match=r"^pair \(1, 4\) covered by no block$"):
        verify_gdd(short)

    bad_block = Gdd(k=3, groups=base.groups, blocks=frozenset({(0, 3)}))
    with pytest.raises(UsageError, match=r"^bad block \(0, 3\)$"):
        verify_gdd(bad_block)

    # With the block count right, a point out of range must be refused
    # before it indexes a table or is shifted into a mask.
    for blk in ((-1, 3, 6), (0, 3, 2**62)):
        bad_point = Gdd(k=3, groups=base.groups, blocks=base.blocks - {(0, 3, 6)} | {blk})
        with pytest.raises(UsageError, match=f"^{re.escape(f'bad block {blk}')}$"):
            verify_gdd(bad_point)


def test_gdd_group_type_mixed():
    d = Gdd(k=3, groups=((0, 1), (2, 3), (4, 5, 6)), blocks=frozenset())
    assert d.group_type() == {2: 2, 3: 1}
    assert d.n == 7


def test_steiner_block_with_repeated_point():
    # Not a Line: the repeated point's pair lies inside its singleton group.
    system = SteinerSystem(k=3, w=7, blocks=sts(7).blocks | {(1, 1, 2)})
    with pytest.raises(PentError, match=r"pair \(1, 1\)"):
        verify_steiner(system)


def test_pair_doubled_inside_one_block():
    # (0, 1, 1) sorts before every other block on 0 and 1 and covers (0, 1)
    # twice before its within-group pair (1, 1) is read.
    system = SteinerSystem(k=3, w=7, blocks=sts(7).blocks | {(0, 1, 1)})
    match = r"pair \(0, 1\) covered by both \(0, 1, 1\) and \(0, 1, 1\)$"
    with pytest.raises(PentError, match=match):
        verify_steiner(system)
    with pytest.raises(PentError, match=match):
        oracle.verify_steiner(system)


# --- the shared pair loop against the original verifiers in tests/oracle.py --

# The larger designs are built once per module: a seeded climb is the
# slowest part of an example.
DESIGNS = {
    "sts7": (lambda: sts(7), verify_steiner, oracle.verify_steiner),
    "sts9": (lambda: sts(9), verify_steiner, oracle.verify_steiner),
    "ag2_3": (lambda: affine_plane(3), verify_steiner, oracle.verify_steiner),
    "td3_3": (lambda: uniform_gdd(3, 3), verify_gdd, oracle.verify_gdd),
    "sts69_climbed": (
        functools.cache(lambda: climb_sts(69, ClimbConfig(seed=0))),
        verify_steiner,
        oracle.verify_steiner,
    ),
    "gdd4_4_climbed": (
        functools.cache(lambda: climb_3gdd(4, 4, ClimbConfig(seed=0))),
        verify_gdd,
        oracle.verify_gdd,
    ),
    "td5_5": (functools.cache(lambda: uniform_gdd(5, 5)), verify_gdd, oracle.verify_gdd),
}


def delete_block(blocks, rng, n, k):
    del blocks[rng.randrange(len(blocks))]


def add_block(blocks, rng, n, k):
    blocks.append(tuple(sorted(rng.sample(range(n), k))))


def move_point(blocks, rng, n, k):
    """Replace one point of a block by a point off it, possibly out of range."""
    i = rng.randrange(len(blocks))
    blk = blocks[i]
    p = blk[rng.randrange(k)]
    q = rng.choice([x for x in range(n + 1) if x not in blk])
    blocks[i] = tuple(sorted(q if x == p else x for x in blk))


def reverse_block(blocks, rng, n, k):
    """Reverse the points of one block: its pairs are then read high point
    first, so none of them meets the same pair of a sorted block."""
    i = rng.randrange(len(blocks))
    blocks[i] = blocks[i][::-1]


def swap_points(blocks, rng, n, k):
    """Swap a point of one block with a point of another and re-sort both:
    the block count stays, so a doubled pair and a missing pair balance in
    the pair count and only the cover of each point tells them apart."""
    i, j = rng.sample(range(len(blocks)), 2)
    p = rng.choice([x for x in blocks[i] if x not in blocks[j]])
    q = rng.choice([x for x in blocks[j] if x not in blocks[i]])
    blocks[i] = tuple(sorted(q if x == p else x for x in blocks[i]))
    blocks[j] = tuple(sorted(p if x == q else x for x in blocks[j]))


def outcome(verifier, design):
    try:
        return verifier(design)
    except Exception as exc:  # the oracle's exceptions are part of its answer
        return (type(exc).__name__, str(exc))


@settings(max_examples=200)
@given(
    name=st.sampled_from(sorted(DESIGNS)),
    kind=st.sampled_from((delete_block, add_block, move_point, reverse_block, swap_points)),
    seed=st.integers(0, 2**32 - 1),
)
def test_design_verifier_matches_oracle(name, kind, seed):
    build, verifier, reference = DESIGNS[name]
    design = build()
    n = design.w if isinstance(design, SteinerSystem) else design.n
    blocks = sorted(design.blocks)
    kind(blocks, random.Random(seed), n, design.k)
    mutant = dataclasses.replace(design, blocks=frozenset(blocks))
    assert outcome(verifier, mutant) == outcome(reference, mutant)
