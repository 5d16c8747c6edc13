"""Geometry constructions and the two large-parameter planners.

Constructions take verified geometries, designs or seed graphs, produce a new
geometry, and verify all four axioms before returning, whatever its size;
nothing leaves unchecked.  Planners do arithmetic only: they search for
ingredient sizes satisfying a recursion and return a plan object, never a
geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import pent
from .core import Geometry, Line, canonical_line, derive_params, geometry, is_admissible
from .designs import (
    Gdd,
    SteinerSystem,
    affine_plane,
    projective_plane,
    single_block_system,
    sts,
    uniform_gdd,
    verify_gdd,
)
from .errors import (
    BadSeedGraph,
    ClimbFailed,
    CompletionUnsupported,
    FieldTooLarge,
    Inadmissible,
    IngredientInvalid,
    NoConstructionAvailable,
    NoIngredient,
    NotBlockSize3,
    NotPrimePower,
    ParameterDomain,
    PentError,
    PlanInvalid,
    PreconditionFailed,
    ResultFailedVerification,
)
from .graphs import Graph, distance3_graph, inflate, report, shift_automorphisms
from .hillclimb import COMPLETE, ClimbConfig, ClimbProblem, climb, climb_3gdd

def _steiner(k: int, w: int) -> SteinerSystem:
    """S(2,k,w) from the recipes at hand, or NoIngredient."""
    try:
        if w == k:
            return single_block_system(k)
        if k == 3:
            return sts(w)
        if w == k * k:
            return affine_plane(k)
        if w == k * k - k + 1:
            return projective_plane(k - 1)
    except (Inadmissible, NotPrimePower, FieldTooLarge, NoConstructionAvailable) as exc:
        raise NoIngredient(f"no S(2,{k},{w}): {exc}") from exc
    raise NoIngredient(f"no S(2,{k},{w}) recipe here")


def _verified(geom: Geometry, error, what: str) -> pent.VerificationReport:
    rep = pent.verify(geom)
    if not rep.valid:
        raise error(f"{what}: axioms failed: {', '.join(rep.failed_axioms())}")
    return rep


def _finish(lines: set[Line], k: int, r: int, w: int, provenance: str) -> Geometry:
    params = derive_params(k, r, w)
    geom = geometry(params, lines)
    if len(geom.lines) != params.b:
        raise ResultFailedVerification(
            f"{provenance}: built {len(geom.lines)} lines, expected {params.b}"
        )
    _verified(geom, ResultFailedVerification, provenance)
    return geom


def make_degenerate(k: int, w: int) -> Geometry:
    """Two disjoint copies of S(2,k,w); the deficiency graph is K_{w,w}."""
    system = _steiner(k, w)
    if (w - 1) % (k - 1) != 0:
        raise NoIngredient(f"(k-1) = {k - 1} does not divide w-1 = {w - 1}")
    r = (w - 1) // (k - 1)
    lines: set[Line] = set(system.blocks)
    lines.update(canonical_line(x + w for x in blk) for blk in system.blocks)
    return _finish(lines, k, r, w, f"degenerate PENT({k},{r},{w})")


# The nine blocks laid over one tripled line: each point of the original line
# contributes one of three copies, all equal or all distinct.
_TRIPLE_PATTERNS = tuple(
    [(i, i, i) for i in range(3)]
    + [(h, i, j) for h in range(3) for i in range(3) for j in range(3) if {h, i, j} == {0, 1, 2}]
)


def triple(g: Geometry) -> Geometry:
    """PENT(3,3r+1,3w) from a connected PENT(3,r,w): three copies of each
    point, one line per point tying its copies together, nine lines per
    original line."""
    params = g.params
    if params.k != 3:
        raise NotBlockSize3(f"k = {params.k}, tripling needs k = 3")
    rep = _verified(g, IngredientInvalid, "tripling input")
    if not rep.deficiency.connected:
        raise IngredientInvalid("tripling needs a connected deficiency graph")
    lines: set[Line] = set()
    for a in range(params.v):
        lines.add(canonical_line((3 * a, 3 * a + 1, 3 * a + 2)))
    for ln in g.lines:
        a, b, c = ln
        for h, i, j in _TRIPLE_PATTERNS:
            lines.add(canonical_line((3 * a + h, 3 * b + i, 3 * c + j)))
    return _finish(lines, 3, 3 * params.r + 1, 3 * params.w, "tripled geometry")


def product(g: Geometry, h: int) -> Geometry:
    """PENT(k, hr + (h-1)/(k-1), hw) from a connected PENT(k,r,w): h copies
    of each point, an S(2,k,h) on each copy group, a transversal design over
    every line."""
    params = g.params
    k = params.k
    if h < 3:
        raise ParameterDomain(f"h = {h} < 3")
    if (h - 1) % (k - 1) != 0:
        raise NoIngredient(f"(k-1) = {k - 1} does not divide h-1 = {h - 1}")
    system = _steiner(k, h)
    try:
        td = uniform_gdd(k, h)
    except NoConstructionAvailable as exc:
        raise NoIngredient(str(exc)) from exc
    rep = _verified(g, IngredientInvalid, "product input")
    if not rep.deficiency.connected:
        raise IngredientInvalid("product needs a connected deficiency graph")
    lines: set[Line] = set()
    for a in range(params.v):
        lines.update(canonical_line(h * a + x for x in blk) for blk in system.blocks)
    for ln in g.lines:
        for blk in td.blocks:
            lines.add(canonical_line(h * ln[x // h] + x % h for x in blk))
    r_out = h * params.r + (h - 1) // (k - 1)
    return _finish(lines, k, r_out, h * params.w, "product geometry")


@dataclass(frozen=True)
class GddFillPlan:
    """A group divisible design plus one verified ingredient geometry per
    group size; ingredient point counts must equal their group sizes."""

    gdd: Gdd
    ingredients: Mapping[int, Geometry]


def gdd_fill(plan: GddFillPlan) -> Geometry:
    """Fill every group of a k-GDD with the ingredient geometry of its size.

    Group divisible design blocks become lines covering all cross-group
    pairs, so each point keeps its opposite design inside its own group.  The
    deficiency graph is the disjoint union of the ingredients'.
    """
    try:
        verify_gdd(plan.gdd)
    except PentError as exc:
        raise PlanInvalid(f"gdd does not verify: {exc}") from exc
    k = plan.gdd.k
    w = None
    for size, ingredient in sorted(plan.ingredients.items()):
        if ingredient.params.k != k:
            raise PlanInvalid(f"ingredient for size {size} has k = {ingredient.params.k} != {k}")
        if w is None:
            w = ingredient.params.w
        elif ingredient.params.w != w:
            raise PlanInvalid(f"ingredient for size {size} has w = {ingredient.params.w} != {w}")
        if ingredient.params.v != size:
            raise PlanInvalid(f"ingredient for size {size} has v = {ingredient.params.v}")
        _verified(ingredient, IngredientInvalid, f"ingredient for group size {size}")
    lines: set[Line] = set(plan.gdd.blocks)
    for grp in plan.gdd.groups:
        size = len(grp)
        ingredient = plan.ingredients.get(size)
        if ingredient is None:
            raise PlanInvalid(f"no ingredient for group size {size}")
        points = sorted(grp)
        lines.update(canonical_line(points[x] for x in ln) for ln in ingredient.lines)
    v_out = plan.gdd.n
    assert w is not None
    if (v_out - w - 1) % (k - 1) != 0:
        raise PlanInvalid(f"(k-1) does not divide v-w-1 = {v_out - w - 1}")
    r_out = (v_out - w - 1) // (k - 1)
    return _finish(lines, k, r_out, w, "filled geometry")


def _climb_completion(
    v: int,
    dgraph: Graph,
    placed: set[Line],
    config: ClimbConfig | None,
    what: str,
    shifts: tuple[int, ...] = (),
) -> set[Line]:
    targets = frozenset(distance3_graph(dgraph).edges())
    if not targets:
        return placed
    spent = 0
    for shift in shifts:
        try:
            problem = ClimbProblem(
                v=v, target_pairs=targets, fixed_lines=frozenset(placed), shift=shift
            )
        except ParameterDomain:
            continue
        outcome = climb(problem, config)
        spent += outcome.iterations_used
        if outcome.status == COMPLETE:
            return placed | set(outcome.lines)
        break
    problem = ClimbProblem(v=v, target_pairs=targets, fixed_lines=frozenset(placed))
    outcome = climb(problem, config)
    if outcome.status != COMPLETE:
        raise ClimbFailed(
            f"{what}: {len(targets)} pairs left, exhausted after "
            f"{spent + outcome.iterations_used} iterations"
        )
    return placed | set(outcome.lines)


def from_girth5_graph(d: Graph, config: ClimbConfig | None = None) -> Geometry:
    """PENT(3,r,3) whose deficiency graph is the given cubic girth->=5 graph.

    Point neighbourhoods become the opposite lines; the remaining lines are
    found by hill climbing over the pairs at distance 3 or more.
    """
    rep = report(d)
    if rep.regular_degree != 3:
        raise BadSeedGraph(f"seed must be 3-regular, degrees give {rep.regular_degree}")
    if rep.girth is not None and rep.girth < 5:
        raise BadSeedGraph(f"seed girth {rep.girth} < 5")
    if not rep.connected:
        raise BadSeedGraph("seed must be connected")
    if d.n % 2 != 0 or d.n < 6:
        raise BadSeedGraph(f"seed must have an even vertex count >= 6, got {d.n}")
    r = (d.n - 4) // 2
    if not is_admissible(3, r, 3):
        raise BadSeedGraph(f"r = (n-4)/2 = {r} is not admissible for k = w = 3")
    placed = {canonical_line(d.adjacency[x]) for x in range(d.n)}
    lines = _climb_completion(d.n, d, placed, config, f"PENT(3,{r},3) completion")
    return _finish(lines, 3, r, 3, "geometry from cubic girth-5 graph")


def construction36(c: Graph, h: int, k: int, config: ClimbConfig | None = None) -> Geometry:
    """Inflate a (w/h)-regular girth->=5 graph into a PENT(k,r,hw/h...) shell.

    Each vertex p of the seed becomes a group H(p) of h points.  A k-GDD of
    type h^deg laid over each vertex's neighbour groups plus an S(2,k,h) on
    every group supply all opposite designs; for k = 3 any remaining pairs
    are closed by hill climbing.
    """
    if k < 3:
        raise ParameterDomain(f"k = {k} < 3")
    if h < k:
        raise ParameterDomain(f"h = {h} < k = {k}")
    crep = report(c)
    if crep.regular_degree is None or crep.regular_degree < 1:
        raise BadSeedGraph("seed graph must be regular of positive degree")
    if crep.girth is not None and crep.girth < 5:
        raise BadSeedGraph(f"seed girth {crep.girth} < 5")
    if not crep.connected:
        raise BadSeedGraph("seed graph must be connected")
    u = crep.regular_degree
    w = h * u
    v = h * c.n
    if (v - w - 1) % (k - 1) != 0:
        raise BadSeedGraph(f"(k-1) does not divide v-w-1 = {v - w - 1}")
    r = (v - w - 1) // (k - 1)
    try:
        params = derive_params(k, r, w)
    except ParameterDomain as exc:
        raise BadSeedGraph(str(exc)) from exc

    gdd = _group_gdd(k, h, u, config)
    system = _steiner(k, h)

    lines: set[Line] = set()
    for p in range(c.n):
        lines.update(canonical_line(h * p + x for x in blk) for blk in system.blocks)
        nbrs = sorted(c.adjacency[p])
        for blk in gdd.blocks:
            lines.add(canonical_line(h * nbrs[x // h] + x % h for x in blk))
    expected_opp = v * (w * (w - h) + h * (h - 1)) // (h * k * (k - 1))
    if len(lines) != expected_opp:
        raise ResultFailedVerification(
            f"laid {len(lines)} opposite lines, expected {expected_opp}"
        )
    if len(lines) < params.b:
        if k != 3:
            raise CompletionUnsupported(
                f"{params.b - len(lines)} non-opposite lines needed but k = {k} > 3"
            )
        # A shift symmetry of the seed lifts to x -> x + h*s on the inflated
        # points; climbing whole orbits makes the completion tractable.
        sources = sorted(
            shift_automorphisms(c), key=lambda s: (-(c.n // math.gcd(c.n, s)), s)
        )
        lines = _climb_completion(
            v,
            inflate(c, h),
            lines,
            config,
            f"PENT(3,{r},{w}) completion",
            tuple(h * s for s in sources),
        )
    return _finish(lines, k, r, w, "inflated-seed geometry")


def _group_gdd(k: int, h: int, u: int, config: ClimbConfig | None) -> Gdd:
    """k-GDD of type h^u for laying over a seed vertex's neighbour groups."""
    if u == 1:
        return Gdd(k=k, groups=(tuple(range(h)),), blocks=frozenset())
    if u == k:
        try:
            return uniform_gdd(k, h)
        except NoConstructionAvailable as exc:
            raise NoIngredient(str(exc)) from exc
    if k == 3:
        try:
            return climb_3gdd(h, u, config)
        except Inadmissible as exc:
            raise NoIngredient(f"no 3-GDD of type {h}^{u}: {exc}") from exc
    raise NoIngredient(f"no {k}-GDD of type {h}^{u} recipe here")


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

    def check(self) -> None:
        _pent3_preconditions(self.r0, self.r1, self.r2, self.w)
        if self.r3 not in (self.r0, self.r1):
            raise PlanInvalid(f"r3 = {self.r3} not in {{r0, r1}}")
        if self.t < self.t_min():
            raise PlanInvalid(f"t = {self.t} < t_min = {self.t_min()}")
        if self.u < self.u_min():
            raise PlanInvalid(f"u = {self.u} < u_min = {self.u_min()}")


def _pent3_preconditions(r0: int, r1: int, r2: int, w: int) -> None:
    if w < 3 or min(r0, r1, r2) < 1:
        raise PreconditionFailed("need w >= 3 and positive replication numbers")
    if r0 % 3 != 0:
        raise PreconditionFailed(f"r0 = {r0} must be divisible by 3")
    if r1 % 3 == 0 or r2 % 3 == 0:
        raise PreconditionFailed(f"r1 = {r1} and r2 = {r2} must not be divisible by 3")
    v1 = 2 * r1 + w + 1
    v2 = 2 * r2 + w + 1
    if math.gcd(v1, v2) != 6:
        raise PreconditionFailed(f"gcd(v1,v2) = {math.gcd(v1, v2)} != 6")


def plan_pent3(r0: int, r1: int, r2: int, w: int, target_r: int) -> Pent3Plan | None:
    """Search for (t, u, r3) hitting target_r; None when no plan exists.

    t is scanned from its lower bound far enough to exhaust every residue
    class that could divide out, so None really means unreachable.
    """
    _pent3_preconditions(r0, r1, r2, w)
    if target_r < 1:
        raise PreconditionFailed(f"target_r = {target_r} < 1")
    v0 = 2 * r0 + w + 1
    v1 = 2 * r1 + w + 1
    v2 = 2 * r2 + w + 1
    t_min = 1 + max(Fraction(2), Fraction(v0, v1))
    t_start = math.ceil(t_min)
    half1, half2 = v1 // 2, v2 // 2
    for r3 in (r0, r1):
        for t in range(t_start, t_start + 6 * v2 + 1):
            rem = target_r - r3 - half1 * t
            if rem < 0:
                break
            if rem % half2 != 0:
                continue
            u = rem // half2
            u_min = 1 + max(
                Fraction(2), Fraction(v1 * (t + 1), v2), Fraction(v1 * t + v0, v2)
            )
            if u >= u_min:
                plan = Pent3Plan(r0=r0, r1=r1, r2=r2, w=w, r3=r3, t=t, u=u)
                plan.check()
                return plan
    return None


# Summand sizes allowed when splitting m across q groups.
PENT5_PART_SIZES = (10, 18, 30)


@dataclass(frozen=True)
class Pent5Plan:
    """Decomposition v = 100q + m, m = sum of q summands from {10,18,30},
    supporting a girth->=5 PENT(5,r,5) at v = 4r+6."""

    r: int
    v: int
    h: int
    q: int
    m: int
    parts: tuple[int, ...]

    def check(self) -> None:
        r, v, h, q, m = self.r, self.v, self.h, self.q, self.m
        if r % 5 not in (0, 1):
            raise PlanInvalid(f"r = {r} is not 0 or 1 (mod 5)")
        if v != 4 * r + 6:
            raise PlanInvalid(f"v = {v} != 4r+6")
        if h != 86 + 4 * (r % 5):
            raise PlanInvalid(f"h = {h} != 86 + 4*(r mod 5)")
        if q % 2 == 0 or q % 11 != 0:
            raise PlanInvalid(f"q = {q} must be odd and divisible by 11")
        if q < 1937:
            raise PlanInvalid(f"q = {q} < 1937")
        if not math.ceil(Fraction(v, 129)) <= q <= math.floor(Fraction(v, 111)):
            raise PlanInvalid(f"q = {q} outside [v/129, v/111]")
        if m != v - 100 * q:
            raise PlanInvalid(f"m = {m} != v - 100q")
        if not 11 * q <= m <= 29 * q:
            raise PlanInvalid(f"m = {m} outside [11q, 29q]")
        if m % 4 != 2:
            raise PlanInvalid(f"m = {m} != 2 (mod 4)")
        if m % h != 0:
            raise PlanInvalid(f"h = {h} does not divide m = {m}")
        b = m // h
        if b < 21 or b % 2 == 0:
            raise PlanInvalid(f"m/h = {b} must be odd and >= 21")
        if h == 86 and b % 10 != 1:
            raise PlanInvalid(f"m/h = {b} must be 1 (mod 10) when h = 86")
        if len(self.parts) != q:
            raise PlanInvalid(f"{len(self.parts)} summands != q = {q}")
        if any(p not in PENT5_PART_SIZES for p in self.parts):
            raise PlanInvalid("summand outside {10, 18, 30}")
        if sum(self.parts) != m:
            raise PlanInvalid(f"summands total {sum(self.parts)} != m = {m}")


def plan_pent5(r: int) -> Pent5Plan | None:
    """Plan a girth->=5 PENT(5,r,5); guaranteed for admissible r >= 200000,
    best effort below.  None when the search space is empty."""
    if r < 1 or r % 5 not in (0, 1):
        return None
    v = 4 * r + 6
    h = 86 + 4 * (r % 5)
    q_lo = math.ceil(Fraction(v, 129))
    q_hi = math.floor(Fraction(v, 111))
    for q in range(q_lo, q_hi + 1):
        if q % 2 == 0 or q % 11 != 0 or q < 1937:
            continue
        m = v - 100 * q
        if m % h != 0:
            continue
        b = m // h
        if b < 21 or b % 2 == 0 or (h == 86 and b % 10 != 1):
            continue
        parts = _split_into_parts(m, q)
        if parts is None:
            continue
        plan = Pent5Plan(r=r, v=v, h=h, q=q, m=m, parts=parts)
        plan.check()
        return plan
    return None


def _split_into_parts(m: int, q: int) -> tuple[int, ...] | None:
    """m as q summands from {10,18,30}: upgrades of 10 by +8 and +20."""
    extra = m - 10 * q
    if extra < 0:
        return None
    for n30 in range(min(extra // 20, q), -1, -1):
        rest = extra - 20 * n30
        if rest % 8 != 0:
            continue
        n18 = rest // 8
        if n18 + n30 <= q:
            n10 = q - n18 - n30
            return (30,) * n30 + (18,) * n18 + (10,) * n10
    return None
