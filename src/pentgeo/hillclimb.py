"""Randomized hill climbing for triple systems over a prescribed pair set.

The climb maintains a partial system in which every tracked pair is covered
at most once.  Each step picks a point with an uncovered incident pair, an
uncovered partner, and a third point closing a triple of target pairs; any
triples already covering the two far pairs are displaced.  Moves displacing
fewer triples are preferred, and a long stall sheds a couple of placed
triples so the walk can leave the basin it is circling.

The step scores candidates by set algebra rather than point by point.  With
U(x) the partners of x whose pair class is still uncovered, a third point z
common to the target neighbourhoods of x and y displaces
2 - [z in U(x)] - [z in U(y)] triples, so its tiers are U(x) & U(y),
(U(x) ^ U(y)) & avail(x) & avail(y), and the rest of the common points.

A problem may declare a cyclic symmetry x -> x + shift (mod v) of its target
pairs.  The climb then works on whole pair orbits and develops every chosen
triple around the cycle, which shrinks the search space by the orbit length.

Runs are deterministic: restart i draws from random.Random(seed + i), and all
random choices are made over sorted snapshots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .core import Line, canonical_line
from .designs import Gdd, SteinerSystem, verify_gdd, verify_steiner
from .errors import ClimbFailed, Inadmissible, ParameterDomain

Pair = tuple[int, int]

COMPLETE = "complete"
EXHAUSTED = "exhausted"

# Walk tuning: candidate resampling per step, stall length before a kick,
# and triples removed per kick.
_PATIENCE = 5
_STALL_LIMIT = 400
_KICK_SIZE = 2


def _pair(x: int, y: int) -> Pair:
    return (x, y) if x < y else (y, x)


@dataclass(frozen=True)
class ClimbProblem:
    """Cover every target pair exactly once by triples whose pairs are all
    target pairs, on top of an immovable set of fixed lines.

    A non-None shift asserts that x -> x + shift (mod v) permutes the target
    pairs with every pair orbit of full length v/gcd(v, shift); the solution
    is then searched for among unions of triple orbits.

    Checking the problem derives what every climb attempt reads: the target
    pairs the fixed lines cover, and the pair classes the climb covers whole
    (the shift orbits, or single pairs without a shift).  canon maps a target
    pair to its class representative, members a representative to its class,
    and rows[x][y] is the class of {x,y}, read by the climb step.
    """

    v: int
    target_pairs: frozenset[Pair]
    fixed_lines: frozenset[Line] = frozenset()
    shift: int | None = None
    fixed_cover: frozenset[Pair] = field(init=False, repr=False, compare=False)
    canon: dict[Pair, Pair] = field(init=False, repr=False, compare=False)
    members: dict[Pair, tuple[Pair, ...]] = field(init=False, repr=False, compare=False)
    rows: tuple[dict[int, Pair], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v, shift, targets = self.v, self.shift, self.target_pairs
        for x, y in targets:
            if not (0 <= x < y < v):
                raise ParameterDomain(f"bad pair ({x},{y})")
        covered: set[Pair] = set()
        for ln in self.fixed_lines:
            for i in range(len(ln)):
                for j in range(i + 1, len(ln)):
                    p = _pair(ln[i], ln[j])
                    if p in targets:
                        if p in covered:
                            raise ParameterDomain(f"fixed lines cover {p} twice")
                        covered.add(p)
        if shift is None:
            canon = {p: p for p in targets}
            members = {p: (p,) for p in targets}
        else:
            if not (1 <= shift < v):
                raise ParameterDomain(f"shift {shift} out of range for v = {v}")
            if covered:
                raise ParameterDomain("shift requires fixed lines that cover no target pair")
            # Walked in sorted order, each orbit is first met at its least pair.
            canon = {}
            members = {}
            for p in sorted(targets):
                if p in canon:
                    continue
                orbit = [p]
                a, b = p
                for _ in range(self.order - 1):
                    a, b = (a + shift) % v, (b + shift) % v
                    q = _pair(a, b)
                    if q == p:
                        raise ParameterDomain(
                            f"pair ({p[0]},{p[1]}) has a short orbit under shift {shift}"
                        )
                    if q not in targets:
                        raise ParameterDomain(f"shift {shift} does not preserve the target pairs")
                    orbit.append(q)
                for q in orbit:
                    canon[q] = p
                members[p] = tuple(orbit)
        rows: tuple[dict[int, Pair], ...] = tuple({} for _ in range(v))
        for (x, y), c in canon.items():
            rows[x][y] = c
            rows[y][x] = c
        object.__setattr__(self, "fixed_cover", frozenset(covered))
        object.__setattr__(self, "canon", canon)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "rows", rows)

    @property
    def order(self) -> int:
        return 1 if self.shift is None else self.v // gcd(self.v, self.shift)


@dataclass(frozen=True)
class ClimbConfig:
    """max_iterations of None means 100 * |target_pairs| per attempt; a
    given budget must be at least 1."""

    seed: int = 0
    max_iterations: int | None = None
    restarts: int = 20


@dataclass(frozen=True)
class ClimbOutcome:
    status: str
    lines: frozenset[Line]
    iterations_used: int
    attempts_used: int


def _develop(added: set[Line], problem: ClimbProblem) -> frozenset[Line]:
    if problem.shift is None:
        return frozenset(added)
    order = problem.order
    out: set[Line] = set()
    for t in added:
        cur = t
        for _ in range(order):
            out.add(cur)
            cur = canonical_line(tuple((x + problem.shift) % problem.v for x in cur))
    if len(out) != order * len(added):
        raise ClimbFailed("internal: developed triples collide")
    return frozenset(out)


def _attempt(problem: ClimbProblem, rng: random.Random, budget: int):
    row, members, fixed_cover = problem.rows, problem.members, problem.fixed_cover
    shifted = problem.shift is not None

    # y in avail[x] iff {x,y} is a target pair not owned by a fixed line;
    # y in uncovered_at[x] additionally requires its class to be uncovered.
    avail: list[set[int]] = [set() for _ in range(problem.v)]
    for x, y in problem.target_pairs:
        if (x, y) not in fixed_cover:
            avail[x].add(y)
            avail[y].add(x)
    uncovered_at = [set(ys) for ys in avail]
    # Without a shift every class is one pair; with one, no pair is fixed.
    n_uncovered = len(members) - len(fixed_cover)

    cover: dict[Pair, Line] = {}
    added: set[Line] = set()
    # live holds exactly the points x with uncovered_at[x] non-empty.
    live = {x for x in range(problem.v) if uncovered_at[x]}
    live_list = sorted(live)
    live_dirty = False

    def cover_class(c: Pair, ln: Line):
        nonlocal n_uncovered, live_dirty
        cover[c] = ln
        n_uncovered -= 1
        for x, y in members[c]:
            at = uncovered_at[x]
            at.discard(y)
            if not at:
                live.discard(x)
                live_dirty = True
            at = uncovered_at[y]
            at.discard(x)
            if not at:
                live.discard(y)
                live_dirty = True

    def uncover_class(c: Pair):
        nonlocal n_uncovered, live_dirty
        del cover[c]
        n_uncovered += 1
        for x, y in members[c]:
            at = uncovered_at[x]
            at.add(y)
            if len(at) == 1:
                live.add(x)
                live_dirty = True
            at = uncovered_at[y]
            at.add(x)
            if len(at) == 1:
                live.add(y)
                live_dirty = True

    def remove_triple(t: Line):
        a, b, c = t
        added.discard(t)
        uncover_class(row[a][b])
        uncover_class(row[a][c])
        uncover_class(row[b][c])

    iterations = 0
    best = n_uncovered
    since_best = 0
    while n_uncovered > 0 and iterations < budget:
        iterations += 1
        since_best += 1
        if n_uncovered < best:
            best = n_uncovered
            since_best = 0
        if since_best > _STALL_LIMIT:
            since_best = 0
            pool = sorted(added)
            for _ in range(min(_KICK_SIZE, len(pool))):
                t = pool[rng.randrange(len(pool))]
                if t in added:
                    remove_triple(t)
        if live_dirty:
            live_list = sorted(live)
            live_dirty = False
        move = None
        for _ in range(_PATIENCE):
            x = live_list[rng.randrange(len(live_list))]
            ux = uncovered_at[x]
            partners = sorted(ux)
            if not partners:
                continue
            y = partners[rng.randrange(len(partners))]
            uy = uncovered_at[y]
            # A third point z in avail[x] & avail[y] displaces one triple per
            # covered class among {x,z} and {y,z}, and the class of {x,z} is
            # covered iff z is not in U(x) = uncovered_at[x].  So z costs
            # 2 - [z in U(x)] - [z in U(y)], and the tiers by cost are:
            #   0: U(x) & U(y)
            #   1: (U(x) ^ U(y)) & avail[x] & avail[y]
            #   2: (avail[x] & avail[y]) - U(x) - U(y)
            for cost in range(3):
                if cost == 0:
                    tier = ux & uy
                elif cost == 1:
                    common = avail[x] & avail[y]
                    tier = (ux ^ uy) & common
                else:
                    tier = common - ux - uy
                if not tier:
                    continue
                tier = sorted(tier)
                if shifted:
                    # Orbits can make two of the three pairs one class.
                    rx, ry = row[x], row[y]
                    c_xy = rx[y]
                    tier = [z for z in tier if c_xy != rx[z] != ry[z] != c_xy]
                    if not tier:
                        continue
                move = (x, y, tier[rng.randrange(len(tier))])
                break
            if tier and cost <= 1:
                break
        if move is None:
            continue
        x, y, z = move
        c_xy, c_xz, c_yz = row[x][y], row[x][z], row[y][z]
        for c in (c_xz, c_yz):
            t = cover.get(c)
            if t is not None:
                remove_triple(t)
        triple = canonical_line(move)
        added.add(triple)
        cover_class(c_xy, triple)
        cover_class(c_xz, triple)
        cover_class(c_yz, triple)
    return (added if n_uncovered == 0 else None), iterations


def climb(problem: ClimbProblem, config: ClimbConfig | None = None) -> ClimbOutcome:
    """Run up to config.restarts seeded attempts; first completion wins."""
    config = config or ClimbConfig()
    if config.restarts < 1:
        raise ParameterDomain(f"restarts = {config.restarts} < 1")
    budget = config.max_iterations
    if budget is None:
        budget = 100 * len(problem.target_pairs)
    elif budget < 1:
        raise ParameterDomain(f"max_iterations = {budget} < 1")
    total = 0
    for attempt in range(config.restarts):
        rng = random.Random(config.seed + attempt)
        added, used = _attempt(problem, rng, budget)
        total += used
        if added is not None:
            return ClimbOutcome(
                status=COMPLETE,
                lines=_develop(added, problem),
                iterations_used=total,
                attempts_used=attempt + 1,
            )
    return ClimbOutcome(
        status=EXHAUSTED,
        lines=frozenset(),
        iterations_used=total,
        attempts_used=config.restarts,
    )


def climb_sts(w: int, config: ClimbConfig | None = None) -> SteinerSystem:
    """Steiner triple system on w points by hill climbing."""
    if w < 3 or w % 6 not in (1, 3):
        raise Inadmissible(f"no S(2,3,{w}): w must be 1 or 3 (mod 6)")
    pairs = frozenset((x, y) for x in range(w) for y in range(x + 1, w))
    outcome = climb(ClimbProblem(v=w, target_pairs=pairs), config)
    if outcome.status != COMPLETE:
        raise ClimbFailed(f"S(2,3,{w}) climb exhausted after {outcome.iterations_used} iterations")
    system = SteinerSystem(k=3, w=w, blocks=outcome.lines)
    verify_steiner(system)
    return system


def climb_3gdd(group_size: int, groups: int, config: ClimbConfig | None = None) -> Gdd:
    """3-GDD of type group_size^groups by hill climbing.

    Admissibility: at least 3 groups, g(u-1) even and g^2 u(u-1) = 0 (mod 3);
    these necessary conditions are also sufficient for this uniform type.
    """
    g, u = group_size, groups
    if g < 1:
        raise ParameterDomain(f"group size {g} < 1")
    if u < 3:
        raise Inadmissible(f"{u} groups < 3")
    if (g * (u - 1)) % 2 != 0 or (g * g * u * (u - 1)) % 3 != 0:
        raise Inadmissible(f"no 3-GDD of type {g}^{u}")
    group_tuple = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(u))
    pairs = set()
    for gi in range(u):
        for gj in range(gi + 1, u):
            for x in group_tuple[gi]:
                for y in group_tuple[gj]:
                    pairs.add(_pair(x, y))
    outcome = climb(ClimbProblem(v=g * u, target_pairs=frozenset(pairs)), config)
    if outcome.status != COMPLETE:
        raise ClimbFailed(f"3-GDD {g}^{u} climb exhausted after {outcome.iterations_used} iterations")
    design = Gdd(k=3, groups=group_tuple, blocks=outcome.lines)
    verify_gdd(design)
    return design
