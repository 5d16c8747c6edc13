"""Steiner systems, finite fields, Latin squares and group divisible designs.

Everything a geometry construction consumes as an ingredient is built here
from first principles: S(2,3,w) by the Bose and Skolem recipes, planes over
explicit finite fields, transversal designs from mutually orthogonal Latin
squares.  Verification is exhaustive pair counting; no ingredient leaves this
module unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .core import Line, canonical_line
from .errors import PentError, UsageError

MAX_FIELD_ORDER = 49

# The most pairs a recipe without a field order to cap it (sts, and
# uniform_gdd at k = 3) is asked to cover.  Building the design peaks at
# 65-73 bytes per covered pair (tracemalloc: sts(751), sts(1501),
# uniform_gdd(3, 300)), so 2^20 pairs is about 73 MiB.  This admits STS(w)
# up to w = 1447, which holds make_degenerate(3, 751) and its 281,625 pairs,
# and TD(3,g) up to g = 591.  A larger design is refused before it is built:
# STS(20001) has 200,010,000 pairs and TD(3,20000) 1,200,000,000.
MAX_RECIPE_PAIRS = 1 << 20

# Monic irreducible polynomials over GF(p), coefficients low degree first.
IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
}


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return (q, 1)


class FiniteField:
    """GF(q) for prime powers q <= 49.

    Elements are 0..q-1 encoding base-p digit vectors, so 0 and 1 are the
    additive and multiplicative identities.  Prime-power arithmetic reduces
    polynomials modulo a fixed irreducible; the field axioms are checked
    exhaustively on construction.
    """

    def __init__(self, q: int):
        # The bound first: prime_power factors by trial division.
        if q > MAX_FIELD_ORDER:
            raise UsageError(f"q = {q} > {MAX_FIELD_ORDER}")
        pe = prime_power(q)
        if pe is None:
            raise UsageError(f"{q} is not a prime power")
        self.q = q
        self.p, self.e = pe
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                self._add[a][b] = self._combine(a, b, add=True)
                self._mul[a][b] = self._combine(a, b, add=False)
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            self._inv[a] = row.index(1)
        self._check_axioms()

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def _combine(self, a: int, b: int, add: bool) -> int:
        if self.e == 1:
            return (a + b) % self.p if add else (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        if add:
            return self._encode([(x + y) % self.p for x, y in zip(da, db)])
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        poly = IRREDUCIBLE[self.q]
        for i in range(len(prod) - 1, self.e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.e):
                    prod[i - self.e + j] = (prod[i - self.e + j] - c * poly[j]) % self.p
        return self._encode(prod[: self.e])

    def _check_axioms(self):
        q = self.q
        add, mul = self._add, self._mul
        for a in range(q):
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise UsageError(f"identity axiom fails at {a} in GF({q})")
            for b in range(q):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise UsageError(f"commutativity fails in GF({q})")
                for c in range(q):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise UsageError(f"associativity fails in GF({q})")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise UsageError(f"distributivity fails in GF({q})")
        for a in range(1, q):
            if mul[a][self._inv[a]] != 1:
                raise UsageError(f"no inverse for {a} in GF({q})")

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise UsageError("0 has no inverse")
        return self._inv[a]


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    return FiniteField(q)


@dataclass(frozen=True)
class SteinerSystem:
    """S(2,k,w): blocks of size k on points 0..w-1 covering every pair once."""

    k: int
    w: int
    blocks: frozenset[Line]


@dataclass(frozen=True)
class Gdd:
    """K-GDD: groups partition the points; blocks of size k cover every
    cross-group pair exactly once and no within-group pair."""

    k: int
    groups: tuple[tuple[int, ...], ...]
    blocks: frozenset[Line]

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.groups)

    def group_type(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for g in self.groups:
            out[len(g)] = out.get(len(g), 0) + 1
        return out


def verify_steiner(s: SteinerSystem) -> None:
    """Exhaustive pair check; raises on the first defect found.

    An S(2,k,w) is a k-GDD of type 1^w, so the pairs are counted by
    verify_gdd over singleton groups."""
    if s.k < 2 or s.w < s.k:
        raise UsageError(f"bad S(2,{s.k},{s.w})")
    verify_gdd(Gdd(k=s.k, groups=tuple((x,) for x in range(s.w)), blocks=s.blocks))


def verify_gdd(d: Gdd) -> None:
    """Exhaustive cross-pair check; raises on the first defect found.

    A valid design is first accepted by counting (_covers_once): when every
    block is strictly increasing, has k points in 0..n-1 and meets each
    group at most once, it covers k(k-1)/2 distinct cross-group pairs.  If
    the b blocks then cover b k(k-1)/2 pairs, the number of cross-group
    pairs, and every cross-group pair at least once, no pair can be covered
    twice.  Counting does not sort the blocks: a climbed STS(99) passes in
    0.83 ms where the walk took 2.3 ms (Python 3.11.7, 2-CPU Intel Xeon
    virtual machine).

    Only a design failing one of these conditions goes on to the walk, which
    starts afresh, so every refusal names the defect the walk meets first,
    as it did before counting was added.  The blocks are walked in sorted
    order, and the pairs of a block in the order of its points.  Bit y of
    seen[x] marks the pair (x, y) as covered and bit y of group[x] puts y in
    the group of x.  A block's point a covers the pairs (a, b) for the
    points b after it, whose mask tail is ORed into seen[a] in one step once
    tail & (group[a] | seen[a]) is 0 for every a.  Only a block failing that
    test, or with a repeated point, is walked pair by pair, to name its
    first defect.  The pairs no block covers are the cross-group points
    above x left out of seen[x].
    """
    n = d.n
    points = set()
    for grp in d.groups:
        for x in grp:
            if x in points:
                raise UsageError(f"point {x} in two groups")
            points.add(x)
    if sorted(points) != list(range(n)):
        raise UsageError("groups do not partition 0..n-1")
    group = [0] * n
    for grp in d.groups:
        m = sum(1 << x for x in grp)
        for x in grp:
            group[x] = m
    if _covers_once(d, group):
        return
    seen = [0] * n
    k = d.k
    blocks = sorted(d.blocks)
    for blk in blocks:
        if len(blk) != k or not points.issuperset(blk):
            raise UsageError(f"bad block {blk}")
        tail = clash = 0
        tails = []
        for a in reversed(blk):
            tails.append(tail)
            clash |= tail & (group[a] | seen[a])
            tail |= 1 << a
        if clash or tail.bit_count() < k:
            _block_defect(blk, blocks, group, seen)
        for a, after in zip(reversed(blk), tails):
            seen[a] |= after
    full = (1 << n) - 1
    for x in range(n):
        missing = (full >> x + 1 << x + 1) & ~(group[x] | seen[x])
        if missing:
            y = (missing & -missing).bit_length() - 1
            raise PentError(f"pair {(x, y)} covered by no block")


def _covers_once(d: Gdd, group: list[int]) -> bool:
    """Whether the counting argument of verify_gdd accepts d, whose points
    0..n-1 are partitioned into the groups with masks group."""
    n, k = len(group), d.k
    # Both sides count each pair twice: b k(k-1) and n^2 - sum |G|^2.
    if len(d.blocks) * k * (k - 1) != n * n - sum(len(grp) ** 2 for grp in d.groups):
        return False
    # reach[x] ORs the blocks on x, so it must hold every point outside the
    # group of x.  A point is tested for range before it indexes bit or
    # group: a gdd-fill spec may hold -1, which would read the last entry,
    # or 2**62, and the walk refuses either as a bad block.
    reach = [0] * n
    bit = [1 << x for x in range(n)]
    try:
        for blk in d.blocks:
            if len(blk) != k:
                return False
            m = 0
            last = -1
            for a in blk:
                if not last < a < n or group[a] & m:
                    return False
                m |= bit[a]
                last = a
            for a in blk:
                reach[a] |= m
    except TypeError:  # a point that is no int; the walk names its block
        return False
    full = (1 << n) - 1
    return all(r | grp == full for r, grp in zip(reach, group))


def _block_defect(blk: Line, blocks: list[Line], group: list[int], seen: list[int]) -> None:
    """Raise the first defect among blk's pairs, walked in order, given the
    pairs the blocks before it cover (verify_gdd's masks)."""
    for i, a in enumerate(blk):
        covered = seen[a]
        for b in blk[i + 1 :]:
            bit = 1 << b
            if group[a] & bit:
                raise PentError(f"within-group pair {(a, b)} covered by {blk}")
            if covered & bit:
                first = _first_cover(blocks, a, b)
                raise PentError(f"pair {(a, b)} covered by both {first} and {blk}")
            covered |= bit


def _first_cover(blocks: list[Line], a: int, b: int) -> Line:
    """The first of blocks holding a before b, so the first to cover (a, b)."""
    return next(blk for blk in blocks if a in blk and b in blk[blk.index(a) + 1 :])


def check_recipe_pairs(n_pairs: int, what: str) -> None:
    """Refuse a design covering more than MAX_RECIPE_PAIRS pairs."""
    if n_pairs > MAX_RECIPE_PAIRS:
        raise UsageError(f"{what}: {n_pairs} pairs to cover > {MAX_RECIPE_PAIRS}")


def single_block_system(k: int) -> SteinerSystem:
    """S(2,k,k): the one block covering everything."""
    if k < 2:
        raise UsageError(f"k = {k} < 2")
    return SteinerSystem(k=k, w=k, blocks=frozenset({tuple(range(k))}))


def _bose(t: int) -> frozenset[Line]:
    # Points (i,c) -> c*(2t+1)+i over the idempotent quasigroup
    # i*j = (i+j)(t+1) mod 2t+1.
    n = 2 * t + 1

    def pt(i: int, c: int) -> int:
        return c * n + i

    blocks = [canonical_line(pt(i, c) for c in range(3)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = ((i + j) * (t + 1)) % n
            for c in range(3):
                blocks.append(canonical_line([pt(i, c), pt(j, c), pt(q, (c + 1) % 3)]))
    return frozenset(blocks)


def _skolem(t: int) -> frozenset[Line]:
    # Points (i,c) -> c*2t+i plus an extra point 6t, over the half-idempotent
    # quasigroup i*j = pi((i+j) mod 2t) with pi(2x) = x, pi(2x+1) = t+x.
    n = 2 * t
    extra = 6 * t

    def pt(i: int, c: int) -> int:
        return c * n + i

    def star(i: int, j: int) -> int:
        s = (i + j) % n
        return s // 2 if s % 2 == 0 else t + (s - 1) // 2

    blocks = [canonical_line(pt(i, c) for c in range(3)) for i in range(t)]
    for i in range(t):
        for c in range(3):
            blocks.append(canonical_line([extra, pt(t + i, c), pt(i, (c + 1) % 3)]))
    for i in range(n):
        for j in range(i + 1, n):
            q = star(i, j)
            for c in range(3):
                blocks.append(canonical_line([pt(i, c), pt(j, c), pt(q, (c + 1) % 3)]))
    return frozenset(blocks)


def sts(w: int) -> SteinerSystem:
    """Steiner triple system on w points, w = 1 or 3 (mod 6)."""
    if w < 3:
        raise UsageError(f"w = {w} < 3")
    if w % 6 not in (1, 3):
        raise UsageError(f"no S(2,3,{w}): w = {w} is not 1 or 3 (mod 6)")
    check_recipe_pairs(w * (w - 1) // 2, f"S(2,3,{w})")
    blocks = _bose((w - 3) // 6) if w % 6 == 3 else _skolem((w - 1) // 6)
    system = SteinerSystem(k=3, w=w, blocks=blocks)
    verify_steiner(system)
    return system


def _affine_lines(q: int) -> Iterator[tuple[list[int], int]]:
    """Each line of AG(2,q), point (x,y) numbered x*q+y, with its direction:
    the slope m of y = mx + c, or q for the verticals x = c."""
    f = field(q)
    for m in range(q):
        for c in range(q):
            yield [x * q + f.add(f.mul(m, x), c) for x in range(q)], m
    for c in range(q):
        yield [c * q + y for y in range(q)], q


def affine_plane(q: int) -> SteinerSystem:
    """AG(2,q) as S(2,q,q^2); point (x,y) is numbered x*q+y."""
    blocks = frozenset(canonical_line(ln) for ln, _ in _affine_lines(q))
    system = SteinerSystem(k=q, w=q * q, blocks=blocks)
    verify_steiner(system)
    return system


def projective_plane(q: int) -> SteinerSystem:
    """PG(2,q) as S(2,q+1,q^2+q+1): AG(2,q) with the point q^2+d at infinity
    added to each line of direction d, and the line at infinity on those
    q+1 points."""
    blocks = [canonical_line(ln + [q * q + d]) for ln, d in _affine_lines(q)]
    blocks.append(canonical_line(range(q * q, q * q + q + 1)))
    system = SteinerSystem(k=q + 1, w=q * q + q + 1, blocks=frozenset(blocks))
    verify_steiner(system)
    return system


def mols(q: int, t: int) -> list[list[list[int]]]:
    """t mutually orthogonal Latin squares of side q, as L_a(x,y) = ax + y
    for the first t non-zero field elements.

    Over a field they need no check.  Each L_a is Latin, since y -> ax + y
    and x -> ax + y (a != 0) are bijections.  L_a and L_b (a != b) are
    orthogonal, since L_a(x,y) = s and L_b(x,y) = s' give (a - b)x = s - s',
    which fixes x, and then y: every (s,s') arises from exactly one cell.
    """
    if t < 1:
        raise UsageError(f"t = {t} < 1")
    f = field(q)
    if t > q - 1:
        raise UsageError(f"only {q - 1} MOLS of side {q} available, {t} requested")
    return [
        [[f.add(f.mul(a, x), y) for y in range(q)] for x in range(q)]
        for a in range(1, t + 1)
    ]


def uniform_gdd(k: int, g: int) -> Gdd:
    """Transversal design TD(k,g): a k-GDD of type g^k.

    Groups are the contiguous ranges ig..ig+g-1, and block (x,y) takes x, y
    and the entry (x,y) of each of k-2 mutually orthogonal Latin squares.
    For k = 3 the cyclic Latin square works for every g >= 2; otherwise
    the squares come from mols, so g must be a prime power field order
    with k <= g+1.
    """
    if k < 3:
        raise UsageError(f"k = {k} < 3")
    if g < 2:
        raise UsageError(f"g = {g} < 2")
    if k == 3:
        check_recipe_pairs(3 * g * g, f"TD(3,{g})")
        squares = [[[(x + y) % g for y in range(g)] for x in range(g)]]
    else:
        try:
            squares = mols(g, k - 2)
        except UsageError as exc:
            raise PentError(f"no TD({k},{g}) recipe here: {exc}") from exc
    groups = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(k))
    blocks = frozenset(
        canonical_line([x, g + y] + [(i + 2) * g + sq[x][y] for i, sq in enumerate(squares)])
        for x in range(g)
        for y in range(g)
    )
    design = Gdd(k=k, groups=groups, blocks=blocks)
    # The one check of every TD, the k = 3 cyclic square's included.
    verify_gdd(design)
    return design


def steiner_to_json_dict(s: SteinerSystem) -> dict:
    return {"k": s.k, "w": s.w, "lines": [list(b) for b in sorted(s.blocks)]}


def gdd_to_json_dict(d: Gdd) -> dict:
    return {
        "k": d.k,
        "groups": [list(g) for g in d.groups],
        "lines": [list(b) for b in sorted(d.blocks)],
    }
