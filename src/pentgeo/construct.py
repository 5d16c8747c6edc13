"""Geometry constructions and the two large-parameter planners.

Constructions take verified geometries, designs or seed graphs, produce a new
geometry, and verify all four axioms before returning, whatever its size;
nothing leaves unchecked.  A construction builds each line as a plain tuple
in ascending order, mapping a sorted block or line through an increasing map
of its points (a block meets each group at most once); _finish then
canonicalises and checks every line once, in core.geometry().

construction36 (the paper's Construction 3.6) inflates each vertex of a
regular girth->=5 seed into h >= 1 points: h = 1, or h >= k so that an
S(2,k,h) can lie on each group.  At h = 1 it is the girth-5 completion: the
seed's neighbourhoods carry the opposite designs, the seed is the deficiency
graph, and for k = 3 a climb covers the pairs at distance 3 or more.

Planners do arithmetic only: they search for ingredient sizes satisfying a
recursion and return a plan object, never a geometry.  Each recursion's
rules are stated once, beside its plan class; the planner searches with them
and the plan's check() raises from them.  A PENT(5,r) plan keeps three
summand counts, so its size does not grow with r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping

from . import pent
from .core import Geometry, Line, derive_params, geometry
from .designs import (
    Gdd,
    SteinerSystem,
    affine_plane,
    check_recipe_pairs,
    projective_plane,
    single_block_system,
    sts,
    uniform_gdd,
    verify_gdd,
)
from .errors import ClimbFailed, PentError, UsageError
from .graphs import (
    MAX_VERTICES,
    Graph,
    bits,
    components,
    distance3_graph,
    inflate,
    report,
    shift_automorphisms,
)
from .hillclimb import (
    COMPLETE,
    MAX_COMPLETION_PAIRS,
    ClimbConfig,
    ClimbProblem,
    _check_pair_count,
    _gdd3_fault,
    climb,
    climb_3gdd,
)


def _named(what: str, reason: str) -> str:
    """reason as a refusal that names what failed, once: a callee's message
    may already start with what."""
    return reason if reason.startswith(what) else f"{what}: {reason}"


def _steiner(k: int, w: int) -> SteinerSystem:
    """S(2,k,w) from the recipes at hand, or PentError; an STS too large to
    build is refused as a UsageError (MAX_RECIPE_PAIRS), not a missing recipe."""
    if w == k:
        return single_block_system(k)
    if k == 3 and w % 6 in (1, 3):
        check_recipe_pairs(w * (w - 1) // 2, f"S(2,3,{w})")
    try:
        if k == 3:
            return sts(w)
        if w == k * k:
            return affine_plane(k)
        if w == k * k - k + 1:
            return projective_plane(k - 1)
    except UsageError as exc:
        raise PentError(_named(f"no S(2,{k},{w})", str(exc))) from exc
    raise PentError(f"no S(2,{k},{w}) recipe here")


def _verified(geom: Geometry, what: str) -> None:
    """Refuse geom unless all four axioms hold (pent.check_axioms)."""
    failed = [a.name for a in pent.check_axioms(geom)[0] if not a.passed]
    if failed:
        raise PentError(f"{what}: axioms failed: {', '.join(failed)}")


def _finish(lines: set[Line], k: int, r: int, w: int, provenance: str) -> Geometry:
    """The geometry on lines, refused unless it has the line count of
    PENT(k,r,w) and all four axioms hold, at every size.  The girth, K_{w,w}
    count, type, line split and overlap profile that pent.verify adds decide
    nothing here and are skipped; so are they for ingredients and for the
    inputs of tripling and the product, which only add a connectivity check."""
    params = derive_params(k, r, w)
    geom = geometry(params, lines)
    if len(geom.lines) != params.b:
        raise PentError(
            f"{provenance}: built {len(geom.lines)} lines, expected {params.b}"
        )
    _verified(geom, provenance)
    return geom


def make_degenerate(k: int, w: int) -> Geometry:
    """Two disjoint copies of S(2,k,w); the deficiency graph is K_{w,w}."""
    system = _steiner(k, w)
    if (w - 1) % (k - 1) != 0:
        raise PentError(f"(k-1) = {k - 1} does not divide w-1 = {w - 1}")
    r = (w - 1) // (k - 1)
    lines: set[Line] = set(system.blocks)
    lines.update(tuple([x + w for x in blk]) for blk in system.blocks)
    return _finish(lines, k, r, w, f"degenerate PENT({k},{r},{w})")


def _connected_input(g: Geometry, what: str) -> None:
    """Refuse g unless all four axioms hold and its deficiency graph is
    connected, as tripling and the product need."""
    _verified(g, f"{what} input")
    if len(components(g.incidence.deficiency)) > 1:
        raise PentError(f"{what} needs a connected deficiency graph")


def _inflated(n: int, h: int, system: SteinerSystem, gdd: Gdd, blocks: Iterable) -> set[Line]:
    """Lines on h copies h*p..h*p+h-1 of each point p < n: system on every
    copy group and, over each sorted block, gdd (of type h^len(block)) with
    its group c on the copies of the block's c-th point."""
    lines: set[Line] = set()
    for p in range(n):
        lines.update(tuple([h * p + x for x in blk]) for blk in system.blocks)
    for blk in blocks:
        lines.update(tuple([h * blk[x // h] + x % h for x in b]) for b in gdd.blocks)
    return lines


# The idempotent TD(3,3) laid over each tripled line: copies h and i of its
# first two points take copy (-h-i) % 3 of the third, so the three copies
# are all equal or all distinct.
_TRIPLE_GDD = Gdd(
    k=3,
    groups=((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    blocks=frozenset((h, 3 + i, 6 + (-h - i) % 3) for h in range(3) for i in range(3)),
)


def triple(g: Geometry) -> Geometry:
    """PENT(3,3r+1,3w) from a connected PENT(3,r,w): the product with h = 3
    over the idempotent TD(3,3), so one line per point ties its three copies
    together and nine lines lie over each original line."""
    params = g.params
    if params.k != 3:
        raise UsageError(f"k = {params.k}, tripling needs k = 3")
    _connected_input(g, "tripling")
    lines = _inflated(params.v, 3, single_block_system(3), _TRIPLE_GDD, g.lines)
    return _finish(lines, 3, 3 * params.r + 1, 3 * params.w, "tripled geometry")


def product(g: Geometry, h: int) -> Geometry:
    """PENT(k, hr + (h-1)/(k-1), hw) from a connected PENT(k,r,w): h copies
    of each point, an S(2,k,h) on each copy group, a transversal design over
    every line."""
    params = g.params
    k = params.k
    if h < 3:
        raise UsageError(f"h = {h} < 3")
    if (h - 1) % (k - 1) != 0:
        raise PentError(f"(k-1) = {k - 1} does not divide h-1 = {h - 1}")
    system = _steiner(k, h)
    td = uniform_gdd(k, h)
    _connected_input(g, "product")
    lines = _inflated(params.v, h, system, td, g.lines)
    r_out = h * params.r + (h - 1) // (k - 1)
    return _finish(lines, k, r_out, h * params.w, "product geometry")


@dataclass(frozen=True)
class GddFillPlan:
    """A group divisible design plus one verified ingredient geometry per
    group size; ingredient point counts must equal their group sizes.  An
    ingredient of a size that no group has is ignored."""

    gdd: Gdd
    ingredients: Mapping[int, Geometry]


def gdd_fill(plan: GddFillPlan) -> Geometry:
    """Fill every group of a k-GDD with the ingredient geometry of its size.

    Group divisible design blocks become lines covering all cross-group
    pairs, so each point keeps its opposite design inside its own group.  The
    deficiency graph is the disjoint union of the ingredients'.
    """
    # The filled geometry has the gdd's points, and core refuses more than
    # MAX_VERTICES; verify_gdd's masks are as many bits wide.
    if plan.gdd.n > MAX_VERTICES:
        raise UsageError(f"gdd: n = {plan.gdd.n} > {MAX_VERTICES} points")
    try:
        verify_gdd(plan.gdd)
    except PentError as exc:
        raise UsageError(f"gdd does not verify: {exc}") from exc
    if not plan.gdd.groups:
        raise UsageError("gdd has no groups")
    k = plan.gdd.k
    w = None
    for size in sorted({len(grp) for grp in plan.gdd.groups}):
        ingredient = plan.ingredients.get(size)
        if ingredient is None:
            raise UsageError(f"no ingredient for group size {size}")
        if ingredient.params.k != k:
            raise UsageError(f"ingredient for size {size} has k = {ingredient.params.k} != {k}")
        if w is None:
            w = ingredient.params.w
        elif ingredient.params.w != w:
            raise UsageError(f"ingredient for size {size} has w = {ingredient.params.w} != {w}")
        if ingredient.params.v != size:
            raise UsageError(f"ingredient for size {size} has v = {ingredient.params.v}")
        _verified(ingredient, f"ingredient for group size {size}")
    lines: set[Line] = set(plan.gdd.blocks)
    for grp in plan.gdd.groups:
        points = sorted(grp)
        ingredient = plan.ingredients[len(grp)]
        lines.update(tuple([points[x] for x in ln]) for ln in ingredient.lines)
    v_out = plan.gdd.n
    if (v_out - w - 1) % (k - 1) != 0:
        raise UsageError(f"(k-1) does not divide v-w-1 = {v_out - w - 1}")
    r_out = (v_out - w - 1) // (k - 1)
    return _finish(lines, k, r_out, w, "filled geometry")


def _climb_completion(
    dgraph: Graph, config: ClimbConfig | None, what: str, steps: list[int]
) -> frozenset[Line]:
    """Triples covering every pair at distance 3 or more in dgraph: first by
    a climb under each step in turn (core's step rule), up to the first whose
    problem builds, then at step v, no symmetry."""
    targets = frozenset(distance3_graph(dgraph).edges())
    spent = 0
    for step in steps:
        try:
            problem = ClimbProblem(v=dgraph.n, target_pairs=targets, step=step)
        except UsageError:
            continue
        outcome = climb(problem, config)
        spent += outcome.iterations_used
        if outcome.status == COMPLETE:
            return outcome.lines
        break
    outcome = climb(ClimbProblem(v=dgraph.n, target_pairs=targets), config)
    if outcome.status != COMPLETE:
        raise ClimbFailed(
            f"{what}: {len(targets)} pairs left, exhausted after "
            f"{spent + outcome.iterations_used} iterations"
        )
    return outcome.lines


def construction36(c: Graph, h: int, k: int, config: ClimbConfig | None = None) -> Geometry:
    """Inflate a u-regular girth->=5 graph into a PENT(k,r,hu) on h points
    per vertex, for h = 1 or h >= k.

    Each vertex p of the seed becomes a group H(p) of h points.  A k-GDD of
    type h^u laid over each vertex's neighbour groups plus an S(2,k,h) on
    every group supply all opposite designs; for k = 3 any remaining pairs
    are closed by hill climbing.  At h = 1 a group is one point and carries
    no block, and the GDD of type 1^u is an S(2,k,u): this is the girth-5
    completion, whose deficiency graph is the seed itself.
    """
    if k < 3:
        raise UsageError(f"k = {k} < 3")
    if h != 1 and h < k:
        raise UsageError(f"h = {h} < k = {k}")
    crep = report(c)
    if crep.regular_degree is None or crep.regular_degree < 1:
        raise PentError("seed graph must be regular of positive degree")
    if crep.girth is not None and crep.girth < 5:
        raise PentError(f"seed girth {crep.girth} < 5")
    if not crep.connected:
        raise PentError("seed graph must be connected")
    u = crep.regular_degree
    w = h * u
    v = h * c.n
    if (v - w - 1) % (k - 1) != 0:
        raise PentError(f"(k-1) does not divide v-w-1 = {v - w - 1}")
    r = (v - w - 1) // (k - 1)
    params = derive_params(k, r, w)
    # Girth >= 5 puts h - 1 + hu + hu(u-1) = h(1 + u^2) - 1 other points
    # within distance 2 of each point; the pairs of the rest need lines
    # through no opposite design.
    pairs = v * (v - h * (1 + u * u)) // 2
    if pairs and k != 3:
        raise PentError(
            f"{2 * pairs // (k * (k - 1))} non-opposite lines needed but k = {k} > 3"
        )
    what = f"PENT(3,{r},{w}) completion"
    _check_pair_count(pairs, what)

    gdd = _group_gdd(k, h, u, config)
    # At h = 1 a group is one point, with no pair for a block to cover.
    system = _steiner(k, h) if h > 1 else SteinerSystem(k=k, w=1, blocks=frozenset())

    lines = _inflated(c.n, h, system, gdd, map(bits, c.masks))
    expected_opp = v * (w * (w - h) + h * (h - 1)) // (h * k * (k - 1))
    if len(lines) != expected_opp:
        raise PentError(
            f"laid {len(lines)} opposite lines, expected {expected_opp}"
        )
    if pairs:
        # A shift s of the seed generates the symmetry of step gcd(n, s),
        # which lifts to step h * gcd(n, s) on the inflated points; climbing
        # whole orbits makes the completion tractable.  Ascending steps are
        # the longest orbits first, each orbit structure once.
        steps = sorted({h * math.gcd(c.n, s) for s in shift_automorphisms(c)})
        lines |= _climb_completion(inflate(c, h), config, what, steps)
    return _finish(lines, k, r, w, "inflated-seed geometry")


def _group_gdd(k: int, h: int, u: int, config: ClimbConfig | None) -> Gdd:
    """k-GDD of type h^u for laying over a seed vertex's neighbour groups."""
    if h == 1:  # type 1^u: an S(2,k,u) on singleton groups
        return Gdd(k=k, groups=tuple((p,) for p in range(u)), blocks=_steiner(k, u).blocks)
    if u == 1:
        return Gdd(k=k, groups=(tuple(range(h)),), blocks=frozenset())
    if u == k:
        return uniform_gdd(k, h)
    if k == 3:
        fault = _gdd3_fault(h, u)
        if fault:
            raise PentError(_named(f"no 3-GDD of type {h}^{u}", fault))
        return climb_3gdd(h, u, config)
    raise PentError(f"no {k}-GDD of type {h}^{u} recipe here")


@dataclass(frozen=True)
class Pent3Plan:
    """Recipe r = (v2/2)u + (v1/2)t + r3 for a PENT(3,target_r,w), from three
    ingredient replication numbers r0 = 0, r1, r2 != 0 (mod 3)."""

    r0: int
    r1: int
    r2: int
    w: int
    r3: int
    t: int
    u: int

    @property
    def v0(self) -> int:
        return 2 * self.r0 + self.w + 1

    @property
    def v1(self) -> int:
        return 2 * self.r1 + self.w + 1

    @property
    def v2(self) -> int:
        return 2 * self.r2 + self.w + 1

    @property
    def target_r(self) -> int:
        return (self.v2 // 2) * self.u + (self.v1 // 2) * self.t + self.r3

    def t_min(self) -> Fraction:
        return 1 + max(Fraction(2), Fraction(self.v0, self.v1))

    def u_min(self) -> Fraction:
        return 1 + max(
            Fraction(2),
            Fraction(self.v1 * (self.t + 1), self.v2),
            Fraction(self.v1 * self.t + self.v0, self.v2),
        )

    def _check_ingredients(self) -> None:
        r0, r1, r2, w = self.r0, self.r1, self.r2, self.w
        if w < 3 or min(r0, r1, r2) < 1:
            raise UsageError("need w >= 3 and positive replication numbers")
        if r0 % 3 != 0:
            raise UsageError(f"r0 = {r0} must be divisible by 3")
        if r1 % 3 == 0 or r2 % 3 == 0:
            raise UsageError(f"r1 = {r1} and r2 = {r2} must not be divisible by 3")
        if math.gcd(self.v1, self.v2) != 6:
            raise UsageError(f"gcd(v1,v2) = {math.gcd(self.v1, self.v2)} != 6")

    def check(self) -> None:
        self._check_ingredients()
        if self.r3 not in (self.r0, self.r1):
            raise UsageError(f"r3 = {self.r3} not in {{r0, r1}}")
        if self.t < self.t_min():
            raise UsageError(f"t = {self.t} < t_min = {self.t_min()}")
        if self.u < self.u_min():
            raise UsageError(f"u = {self.u} < u_min = {self.u_min()}")


def plan_pent3(r0: int, r1: int, r2: int, w: int, target_r: int) -> Pent3Plan | None:
    """Search for (t, u, r3) hitting target_r; None when no plan exists.

    t is scanned from its lower bound far enough to exhaust every residue
    class that could divide out, so None really means unreachable.
    """
    base = Pent3Plan(r0=r0, r1=r1, r2=r2, w=w, r3=r0, t=0, u=0)
    base._check_ingredients()
    if target_r < 1:
        raise UsageError(f"target_r = {target_r} < 1")
    t_start = math.ceil(base.t_min())
    half1, half2 = base.v1 // 2, base.v2 // 2
    for r3 in (r0, r1):
        for t in range(t_start, t_start + 6 * base.v2 + 1):
            rem = target_r - r3 - half1 * t
            if rem < 0:
                break
            if rem % half2 == 0:
                plan = replace(base, r3=r3, t=t, u=rem // half2)
                if plan.u >= plan.u_min():
                    return plan
    return None


# Summand sizes allowed when splitting m across q groups.
PENT5_PART_SIZES = (10, 18, 30)


@dataclass(frozen=True)
class Pent5Plan:
    """Decomposition v = 100q + m supporting a girth->=5 PENT(5,r,5) at
    v = 4r+6, where m is a sum of q summands and part_counts = (n10, n18,
    n30) counts those of each size in PENT5_PART_SIZES."""

    r: int
    v: int
    h: int
    q: int
    m: int
    part_counts: tuple[int, int, int]

    def check(self) -> None:
        fault = _pent5_r_fault(self.r, self.v, self.h) or _pent5_q_fault(
            self.v, self.h, self.q, self.m, self.part_counts
        )
        if fault:
            raise UsageError(fault.format(**vars(self)))


def _pent5_r_fault(r: int, v: int, h: int) -> str | None:
    """The first rule on r, v and h broken, as a message template over the
    plan's fields (so a search rejecting many q formats none), or None."""
    if r % 5 not in (0, 1):
        return "r = {r} is not 0 or 1 (mod 5)"
    if v != 4 * r + 6:
        return "v = {v} != 4r+6"
    if h != 86 + 4 * (r % 5):
        return "h = {h} != 86 + 4*(r mod 5)"
    return None


def _pent5_q_fault(v: int, h: int, q: int, m: int, counts: tuple[int, ...]) -> str | None:
    """As _pent5_r_fault, for the split v = 100q + m; most q break the first
    rule.  Conditions these rules imply are not tested again:
    - m = v - 100q = 4r + 6 (mod 20), so m = 2 (mod 4), and m/h is odd and,
      for h = 86, 1 (mod 10);
    - q summands, each 2 (mod 4), add up to m only when q is odd;
    - m >= 11q >= 21307 puts m/h above 21;
    - v/129 <= q <= v/111 is 11q <= m <= 29q."""
    if q % 11 != 0:
        return "q = {q} is not divisible by 11"
    if q < 1937:
        return "q = {q} < 1937"
    if m != v - 100 * q:
        return "m = {m} != v - 100q"
    if not 11 * q <= m <= 29 * q:
        return "m = {m} outside [11q, 29q]"
    if m % h != 0:
        return "h = {h} does not divide m = {m}"
    if (
        len(counts) != len(PENT5_PART_SIZES)
        or min(counts) < 0
        or sum(counts) != q
        or sum(map(mul, PENT5_PART_SIZES, counts)) != m
    ):
        return "part counts {part_counts} are not q = {q} summands totalling m = {m}"
    return None


def plan_pent5(r: int) -> Pent5Plan | None:
    """Plan a girth->=5 PENT(5,r,5); guaranteed for admissible r >= 200000,
    best effort below.  None when no q in [v/129, v/111] passes the rules."""
    v = 4 * r + 6
    h = 86 + 4 * (r % 5)
    if _pent5_r_fault(r, v, h):
        return None
    for q in range(-(-v // 129), v // 111 + 1):
        m = v - 100 * q
        counts = _split_into_parts(m, q)
        if counts is not None and not _pent5_q_fault(v, h, q, m, counts):
            return Pent5Plan(r=r, v=v, h=h, q=q, m=m, part_counts=counts)
    return None


def _split_into_parts(m: int, q: int) -> tuple[int, int, int] | None:
    """m as q summands from {10,18,30}: the counts (n10, n18, n30) with the
    most 30s, or None.  Over q tens an 18 adds 8 and a 30 adds 20, so one 30
    fewer fixes a remainder of 4 (mod 8), and fewer still need more parts."""
    extra = m - 10 * q
    n30 = min(extra // 20, q)
    if (extra - 20 * n30) % 8:
        n30 -= 1
    n18, rest = divmod(extra - 20 * n30, 8)
    if rest or n30 < 0 or n18 + n30 > q:
        return None
    return (q - n18 - n30, n18, n30)
