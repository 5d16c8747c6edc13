"""Randomized hill climbing for triple systems over a prescribed pair set.

The climb maintains a partial system in which every tracked pair is covered
at most once.  Each step picks a point with an uncovered incident pair, an
uncovered partner, and a third point closing a triple of target pairs; any
triples already covering the two far pairs are displaced.  Moves displacing
fewer triples are preferred, and a long stall sheds a couple of placed
triples so the walk can leave the basin it is circling.

The state is Python int masks.  Bit y of avail[x] marks a target pair {x,y},
and bit y of U(x) one whose pair class is still uncovered.  The step scores
candidates by mask algebra rather than point by point: a third point z
common to the target neighbourhoods of x and y displaces
2 - [z in U(x)] - [z in U(y)] triples, so its tiers are U(x) & U(y),
(U(x) ^ U(y)) & avail(x) & avail(y), and the rest of the common points.

A problem's symmetry is a step g, by core's step rule: g divides v, the
translation x -> x + g (mod v) permutes the target pairs, and g = v, the
default, is no symmetry.  The climb works on whole pair orbits and develops
every chosen triple around the cycle, which shrinks the search space by the
orbit length v // g.  Since whole orbits are covered,
U(x + g) = rotate(U(x), g) (mod v) holds throughout, so U is stored for the
point-orbit representatives 0..g-1 only and read by rotation, and covering
or uncovering a class flips two bits.  At g = v every rotation is by 0: both
kinds of problem run the same code.

The step hashes no pair.  A problem derives avail and numbers its pair
classes once, and an attempt reads them by id: rows[x][y] is the id of the
class of {x,y}, flips[i] the two mask bits class i owns, and cover[i] the
placed triple covering class i, or None.  The attempt keeps each placed
triple with the ids of its three classes, read from rows once when the move
places it, so displacing or kicking it out reads no row.  avail, the ids
and the flip bits depend only on the problem, so restarts share them;
rows holds one entry per end of a target pair and never a v x v table.
At step = v a class is its pair, and point a numbers its pairs (a, b),
b > a, as one run of ids.  A move flips only its net change: a class the
new triple takes over from a displaced triple (c_xz or c_yz, or below
step v both) keeps its bits, as two flips would cancel.  Only the
displaced triples' other classes and the new triple's open classes flip.

A step pays only for its own work.  remove_triple, called about once per
step, is a module-level function given the attempt's state as arguments:
as a closure inside _attempt it made uncovered, live, cover, added and
n_covered cell variables, read through a cell on every use in the step
loop.  It stays a function, not written out in the move, so that a move's
removals can be observed by name.  The move orders its triple by
comparisons rather than tuple(sorted(...)), and a drawn rank below
len(live), every draw of a problem at step = v, skips the divmod.
These took a step from 4.72 to 4.49 us on the c36 climbs of seeds 0-19
(141,170 steps) and from 3.88 to 3.59 us on ten STS(99) climbs, every draw
and AttemptLog unchanged (medians of five alternating runs, Python 3.11.7
on a 2-CPU Intel Xeon virtual machine).

The stall limit is the number of steps an attempt takes without a new
fewest uncovered count before it kicks, and it scales with the problem: an
attempt that starts with n_open open classes (pair orbits under the step,
single pairs at step = v) kicks after n_open // 4 idle steps.  A fixed
limit of 400 was 2.2 n_open for the c36 orbit-graph climb of construction36
(h = k = 3, n_open = 180), which then spent most of its steps circling a
plateau of 3 uncovered classes between kicks; for STS(69), STS(99) and
large GDDs n_open // 4 is above 400 (586, 1,212 and 29,715 for a 3-GDD of
type 60^3 66^5 10^1), so those climbs kick less often.  Each step resamples
its candidate pair up to 5 times, and a kick sheds 2 placed triples.  Over
whole climbs, on seeds not used to choose the rule, the iterations to
completion were:

    problem (seeds)         limit 400: sum, median, p90   n_open // 4
    c36 (40-199)            2,757,974  7,077  53,166      1,161,542  5,273  16,697
    c36 (200-359)           2,388,206  5,712  43,415      1,063,872  5,518  14,657
    STS(69) (1040-1069)        57,073  1,829   2,302         56,916  1,829   2,188
    STS(99) (1040-1069)       115,587  3,761   4,507        114,958  3,747   4,397

Runs are deterministic: restart i draws from random.Random(seed + i), and
every draw is a rank below n made by the getrandbits calls that
randrange(n) makes (_draw_below, written out in the step).  The rank picks
a point among the translates of the live orbit representatives, kept as an
ascending list; a partner or third point among the set bits of a mask in
ascending order (_select); or a triple from the kick's sorted snapshot of
the placed triples.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Callable, NamedTuple

from .core import Line
from .designs import Gdd, SteinerSystem, verify_gdd, verify_steiner
from .errors import ClimbFailed, UsageError
from .graphs import bits

Pair = tuple[int, int]

COMPLETE = "complete"
EXHAUSTED = "exhausted"

_PATIENCE = 5
_KICK_SIZE = 2
_ATTEMPTS = 20
_STEPS_PER_PAIR = 100

# The most target pairs a climb is built for.  Beyond the pair set itself,
# building a ClimbProblem and climbing it peaks at about 290 bytes per pair
# (tracemalloc, the 118,860 cross-group pairs of a 3-GDD of type
# 60^3 66^5 10^1, climbed at seed 0), so 2^18 pairs is about 73 MiB.  A cubic
# girth-5 seed on n vertices has n(n-10)/2 pairs at distance 3 or more, so
# this admits seeds up to n = 728, far beyond every completion the tests and
# the benchmark run (the largest has 900 pairs: the 20-vertex orbit graph
# inflated with h = 3), and STS(w) up to w = 723.  A larger pair set is
# refused before it is built: generalized_petersen(8192) has 134,135,808
# pairs and STS(20001) 200,010,000.
MAX_COMPLETION_PAIRS = 1 << 18


def _pair(x: int, y: int) -> Pair:
    return (x, y) if x < y else (y, x)


def _check_pair_count(n_pairs: int, what: str) -> None:
    if n_pairs > MAX_COMPLETION_PAIRS:
        raise UsageError(f"{what}: {n_pairs} pairs to complete > {MAX_COMPLETION_PAIRS}")


def _stall_limit(n_open: int) -> int:
    """Steps without a new best uncovered count before a kick, for an attempt
    that starts with n_open open classes (see the module docstring)."""
    return n_open // 4


@dataclass(frozen=True)
class ClimbProblem:
    """Cover every target pair exactly once by triples whose pairs are all
    target pairs.

    The step follows core's step rule: it divides v, and None, the default,
    is stored as v, no symmetry.  A step g below v asserts that x -> x + g
    (mod v) permutes the target pairs with every pair orbit of full length
    v // g; the solution is then searched for among unions of triple orbits.

    Checking the problem derives, once, everything a climb attempt reads.
    Bit y of avail[x] is set iff {x,y} is a target pair.  The target pairs
    fall into the classes the climb covers whole: the pair orbits under the
    step, single pairs at step = v.  Class ids run in the order of each
    class's least pair.  rows[x][y] is the id of the class of {x,y}, with
    one entry per end of a target pair, and flips[i] is (ra, ba, rb, bb):
    covering or uncovering class i flips mask bits ba of uncovered[ra] and
    bb of uncovered[rb] (see _attempt).
    """

    v: int
    target_pairs: frozenset[Pair]
    step: int | None = None
    avail: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rows: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)
    flips: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v, step, targets = self.v, self.step, self.target_pairs
        if step is None:
            step = v
            object.__setattr__(self, "step", v)
        if step < 1 or v % step:
            raise UsageError(f"step = {step} does not divide v = {v}")
        bit = [1 << y for y in range(v)]
        avail = [0] * v
        for x, y in targets:
            if not (0 <= x < y < v):
                raise UsageError(f"bad pair ({x},{y})")
            avail[x] |= bit[y]
            avail[y] |= bit[x]
        # Walked in sorted order, each class is first met at its least pair
        # (a, b), which numbers it.  Class {a,b} owns bit b of U(a), which lies
        # in uncovered[a % step] rotated by a - a % step, and bit a of U(b)
        # likewise.
        rows: tuple[dict[int, int], ...] = tuple({} for _ in range(v))
        flips = []
        if step == v:
            # A class is its pair: the pairs (a, b), b > a, take the next ids.
            for a, row in enumerate(rows):
                high = bits(avail[a] >> a + 1 << a + 1)
                ids = list(range(len(flips), len(flips) + len(high)))
                row.update(zip(high, ids))
                for b, i in zip(high, ids):
                    rows[b][a] = i
                flips.extend(zip(repeat(a), map(bit.__getitem__, high), high, repeat(bit[a])))
        else:
            for a in range(v):
                for b in bits(avail[a] >> a + 1):
                    b += a + 1
                    if b in rows[a]:
                        continue
                    i = len(flips)
                    rows[a][b] = rows[b][a] = i
                    x, y = a, b
                    for _ in range(v // step - 1):
                        x, y = (x + step) % v, (y + step) % v
                        if _pair(x, y) == (a, b):
                            raise UsageError(f"pair ({a},{b}) has a short orbit under step {step}")
                        if not avail[x] & bit[y]:
                            raise UsageError(f"step {step} does not preserve the target pairs")
                        rows[x][y] = rows[y][x] = i
                    ra, rb = a % step, b % step
                    flips.append((ra, bit[(b - a + ra) % v], rb, bit[(a - b + rb) % v]))
        object.__setattr__(self, "avail", tuple(avail))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "flips", tuple(flips))

    @property
    def order(self) -> int:
        return self.v // self.step


@dataclass(frozen=True)
class ClimbConfig:
    """Attempt i of a climb draws from random.Random(seed + i)."""

    seed: int = 0


class AttemptLog(NamedTuple):
    """What one climb attempt did: the steps it took, the kicks it gave after
    a stall, and the fewest classes it ever left uncovered (0 once complete)."""

    iterations: int
    kicks: int
    best_uncovered: int


@dataclass(frozen=True)
class ClimbOutcome:
    """attempts logs every attempt run, in order; when status is COMPLETE the
    last one completed."""

    status: str
    lines: frozenset[Line]
    attempts: tuple[AttemptLog, ...]

    @property
    def iterations_used(self) -> int:
        return sum(a.iterations for a in self.attempts)

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)


def _develop(added: set[Line], problem: ClimbProblem) -> frozenset[Line]:
    v, step = problem.v, problem.step
    if step == v:
        return frozenset(added)
    # A translate of a placed triple is canonical once sorted.
    out = {
        tuple(sorted(((a + d) % v, (b + d) % v, (c + d) % v)))
        for a, b, c in added
        for d in range(0, v, step)
    }
    if len(out) != problem.order * len(added):
        raise ClimbFailed("internal: developed triples collide")
    return frozenset(out)


def _select(m: int, i: int, n: int) -> int:
    """Position of the set bit of rank i (from 0, ascending) in m >= 0, which
    has n > i set bits."""
    # A dense mask is halved, keeping the half that holds rank i, until few
    # set bits are left; then the i lowest of them are cleared one by one.
    pos = 0
    while n > 8:
        half = m.bit_length() >> 1
        low = m & ((1 << half) - 1)
        k = low.bit_count()
        if i < k:
            m, n = low, k
        else:
            m >>= half
            pos += half
            i -= k
            n -= k
    while i:
        m &= m - 1
        i -= 1
    return pos + (m & -m).bit_length() - 1


def _draw_below(rng: random.Random) -> Callable[[int], int]:
    """below(n) for n > 0, a uniform draw from range(n).

    It makes the same getrandbits calls as rng.randrange(n), which is
    rng._randbelow(n) on Python 3.10 to 3.13, so it returns the same value
    and leaves rng in the same state, without randrange's argument checks.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def remove_triple(
    t: Line,
    keep: tuple[int, ...],
    added: dict[Line, tuple[int, int, int]],
    cover: list[Line | None],
    flips: tuple[tuple[int, int, int, int], ...],
    uncovered: list[int],
    live: list[int],
) -> None:
    """Take the placed triple t out of an attempt's state (see _attempt),
    uncovering its classes but those in keep; the caller takes its three
    classes off the covered count."""
    # Covering or uncovering a class flips its two bits, written out here and
    # in _attempt's move: a call per class took about 12% of a climb under
    # cProfile.  A move keeps the classes it takes over from t unflipped.
    for i in added.pop(t):
        if i in keep:
            continue
        cover[i] = None
        ra, ba, rb, bb = flips[i]
        m = uncovered[ra] = uncovered[ra] ^ ba
        if not m:
            live.remove(ra)
        elif m == ba:
            insort(live, ra)
        m = uncovered[rb] = uncovered[rb] ^ bb
        if not m:
            live.remove(rb)
        elif m == bb:
            insort(live, rb)


def _attempt(
    problem: ClimbProblem, rng: random.Random, budget: int
) -> tuple[set[Line] | None, AttemptLog]:
    v, avail, row, flips = problem.v, problem.avail, problem.rows, problem.flips
    # x, x + g, x + 2g, ... (mod v) make up the point orbit of x mod g, and it
    # has order points.  At g = v, no symmetry, order = 1.
    g = problem.step
    order = v // g
    full = (1 << v) - 1
    below = _draw_below(rng)
    getrandbits = rng.getrandbits
    select = _select

    # Bit y of U(x) is set iff bit y of avail[x] is and the class of {x,y} is
    # uncovered.  The climb covers whole classes, which are the pair orbits
    # under the step, so U(x + g) is U(x) rotated by g (mod v): U is kept
    # for the orbit representatives r < g only, and U(r + d) for d a multiple
    # of g is uncovered[r] rotated by d.  Class {a,b} then owns one bit of
    # uncovered[a % g] and one of uncovered[b % g] (distinct bits when
    # a = b (mod g), as its orbit is full), and covering or uncovering it
    # flips those two bits, which problem.flips names.
    uncovered = list(avail[:g])
    n_open = len(flips)
    stall_limit = _stall_limit(n_open)

    # cover[i] is the placed triple covering class i, or None, and added maps
    # each placed triple to the ids of its three classes.
    cover: list[Line | None] = [None] * len(flips)
    n_covered = 0
    added: dict[Line, tuple[int, int, int]] = {}
    # live lists, ascending, the r < g with uncovered[r] non-empty, so the
    # points with an uncovered pair are the d + r, r in live, d in 0, g, 2g,
    # ...; in ascending order, the i-th of them is (i // L) g + live[i % L],
    # with L = len(live).  Flipping a bit of uncovered[r] takes r out of live
    # when the mask becomes empty and puts it back when the mask becomes the
    # one bit just set; most flips do neither.
    live = [r for r in range(g) if uncovered[r]]

    iterations = kicks = 0
    best = n_open
    since_best = 0
    while n_covered < n_open and iterations < budget:
        iterations += 1
        since_best += 1
        if n_open - n_covered < best:
            best = n_open - n_covered
            since_best = 0
        if since_best > stall_limit:
            since_best = 0
            kicks += 1
            pool = sorted(added)
            for _ in range(min(_KICK_SIZE, len(pool))):
                t = pool[below(len(pool))]
                if t in added:
                    remove_triple(t, (), added, cover, flips, uncovered, live)
                    n_covered -= 3
        n_live = len(live)
        n_points = n_live * order
        k_points = n_points.bit_length()
        move = None
        # Each draw below is _draw_below's, written out: a value below n is
        # getrandbits(n.bit_length()) redrawn until it is below n.  The set
        # bit of rank i in a mask with n set bits is found as _select finds
        # it, by clearing the i lowest set bits when n <= 8.  A rotation by
        # d = 0 is skipped: at g = v every d is 0.
        for _ in range(_PATIENCE):
            i = getrandbits(k_points)
            while i >= n_points:
                if not n_points:
                    raise ClimbFailed("internal: no live point with classes left uncovered")
                i = getrandbits(k_points)
            # At g = v n_points = n_live, so every draw lands here.
            if i < n_live:
                d, r = 0, live[i]
            else:
                d, j = divmod(i, n_live)
                r = live[j]
            m = ux = uncovered[r]
            if d:
                d *= g
                ux = (m << d | m >> (v - d)) & full
            x = d + r
            n = m.bit_count()
            k = n.bit_length()
            i = getrandbits(k)
            while i >= n:
                if not n:
                    raise ClimbFailed(f"internal: live point {x} has no uncovered partner")
                i = getrandbits(k)
            if n > 8:
                y = select(ux, i, n)
            else:
                m = ux
                while i:
                    m &= m - 1
                    i -= 1
                y = (m & -m).bit_length() - 1
            r = y % g
            m = uy = uncovered[r]
            d = y - r
            if d:
                uy = (m << d | m >> (v - d)) & full
            # A third point z in avail[x] & avail[y] displaces one triple per
            # covered class among {x,z} and {y,z}, and the class of {x,z} is
            # covered iff z is not in U(x).  So z costs
            # 2 - [z in U(x)] - [z in U(y)], and the tiers by cost are:
            #   0: U(x) & U(y)
            #   1: (U(x) ^ U(y)) & avail[x] & avail[y]
            #   2: avail[x] & avail[y] & ~U(x) & ~U(y)
            # The move draws from the first non-empty tier, and a move of
            # cost 0 or 1 ends the resampling.
            common = avail[x] & avail[y]
            if (x - y) % g == 0:
                # Two of the three pairs share a class when one is the other
                # moved by a multiple d != 0 of g: {x,z} = {x,y} + d makes
                # d = x - y and z = 2x - y, {y,z} = {x,y} + d makes z = 2y - x,
                # and {x,z} = {y,z} + d makes z = y + d with 2d = x - y
                # (mod v).  Each needs x = y (mod g), which a problem at
                # g = v never has; these few z leave every tier.
                e = (x - y) % v
                bad = 1 << (x + e) % v | 1 << (y - e) % v
                if v & 1:
                    bad |= 1 << (y + e * ((v + 1) >> 1)) % v
                elif not e & 1:
                    for d in (e >> 1, (e + v) >> 1):
                        if not d % g:
                            bad |= 1 << (y + d) % v
                common &= ~bad
            cheap = ux & uy & common or (ux ^ uy) & common
            tier = cheap or common & ~(ux | uy)
            if tier:
                n = tier.bit_count()
                k = n.bit_length()
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                if n > 8:
                    z = select(tier, i, n)
                else:
                    while i:
                        tier &= tier - 1
                        i -= 1
                    z = (tier & -tier).bit_length() - 1
                move = (x, y, z)
                if cheap:
                    break
        if move is None:
            continue
        x, y, z = move
        rx = row[x]
        c_xy, c_xz, c_yz = rx[y], rx[z], row[y][z]
        # The net move (module docstring): a class taken over from a displaced
        # triple keeps its bits.  One triple may hold c_xz and c_yz; then u is t.
        t, u = cover[c_xz], cover[c_yz]
        if t is not None:
            remove_triple(t, (c_xz, c_yz), added, cover, flips, uncovered, live)
            n_covered -= 3
        if u is not None and u is not t:
            remove_triple(u, (c_xz, c_yz), added, cover, flips, uncovered, live)
            n_covered -= 3
        # y is in U(x), which excludes x, and z in avail[x] & avail[y], which
        # excludes both, so the three points are distinct, and put in order
        # by comparisons they make a canonical line.
        if x < y:
            triple = (x, y, z) if y < z else (x, z, y) if x < z else (z, x, y)
        else:
            triple = (y, x, z) if x < z else (y, z, x) if y < z else (z, y, x)
        added[triple] = (c_xy, c_xz, c_yz)
        for i in (c_xy, c_xz, c_yz):
            if cover[i] is None:
                ra, ba, rb, bb = flips[i]
                m = uncovered[ra] = uncovered[ra] ^ ba
                if not m:
                    live.remove(ra)
                elif m == ba:
                    insort(live, ra)
                m = uncovered[rb] = uncovered[rb] ^ bb
                if not m:
                    live.remove(rb)
                elif m == bb:
                    insort(live, rb)
            cover[i] = triple
        n_covered += 3
    n_uncovered = n_open - n_covered
    log = AttemptLog(iterations, kicks, min(best, n_uncovered))
    return (set(added) if n_uncovered == 0 else None), log


def climb(problem: ClimbProblem, config: ClimbConfig | None = None) -> ClimbOutcome:
    """Run up to _ATTEMPTS seeded attempts of _STEPS_PER_PAIR steps per
    target pair each; first completion wins."""
    seed = (config or ClimbConfig()).seed
    if seed < 0:  # random.Random(-s) would replay seed s
        raise UsageError(f"seed = {seed} < 0")
    budget = _STEPS_PER_PAIR * len(problem.target_pairs)
    logs: list[AttemptLog] = []
    for attempt in range(_ATTEMPTS):
        added, log = _attempt(problem, random.Random(seed + attempt), budget)
        logs.append(log)
        if added is not None:
            return ClimbOutcome(COMPLETE, _develop(added, problem), tuple(logs))
    return ClimbOutcome(EXHAUSTED, frozenset(), tuple(logs))


def _climb_gdd(sizes: tuple[int, ...], what: str, config: ClimbConfig | None) -> Gdd:
    """3-GDD by hill climbing on groups of the given sizes, consecutive
    ranges, unverified; what names the design in refusals."""
    v = sum(sizes)
    _check_pair_count((v * v - sum(s * s for s in sizes)) // 2, f"{what} climb")
    groups = tuple(tuple(range(e - s, e)) for s, e in zip(sizes, accumulate(sizes)))
    pairs = frozenset((x, y) for grp in groups for x in grp for y in range(grp[-1] + 1, v))
    outcome = climb(ClimbProblem(v=v, target_pairs=pairs), config)
    if outcome.status != COMPLETE:
        raise ClimbFailed(f"{what} climb exhausted after {outcome.iterations_used} iterations")
    return Gdd(k=3, groups=groups, blocks=outcome.lines)


def climb_sts(w: int, config: ClimbConfig | None = None) -> SteinerSystem:
    """Steiner triple system on w points: a 3-GDD of type 1^w, climbed."""
    if w < 3 or w % 6 not in (1, 3):
        raise UsageError(f"no S(2,3,{w}): w must be 1 or 3 (mod 6)")
    blocks = _climb_gdd((1,) * w, f"S(2,3,{w})", config).blocks
    system = SteinerSystem(k=3, w=w, blocks=blocks)
    verify_steiner(system)
    return system


def _gdd3_fault(g: int, u: int) -> str | None:
    """The first admissibility condition a 3-GDD of type g^u breaks, as a
    message, or None.  The conditions are at least 3 groups, g(u-1) even and
    g^2 u(u-1) = 0 (mod 3); they are also sufficient for this uniform type."""
    if u < 3:
        return f"{u} groups < 3"
    if (g * (u - 1)) % 2 != 0 or (g * g * u * (u - 1)) % 3 != 0:
        return f"no 3-GDD of type {g}^{u}"
    return None


def climb_3gdd(group_size: int, groups: int, config: ClimbConfig | None = None) -> Gdd:
    """3-GDD of type group_size^groups by hill climbing; the type must pass
    _gdd3_fault."""
    g, u = group_size, groups
    if g < 1:
        raise UsageError(f"group size {g} < 1")
    fault = _gdd3_fault(g, u)
    if fault:
        raise UsageError(fault)
    design = _climb_gdd((g,) * u, f"3-GDD {g}^{u}", config)
    verify_gdd(design)
    return design
