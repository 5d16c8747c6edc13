"""Axiom verification, deficiency graphs and the A-F classification.

Every analysis reads the geometry's incidence index (core.Incidence), which
is built once per Geometry object and kept with it: per point x, its
deficiency mask N[x] (the points on no line with x), v*v/8 bytes of masks
in all, and the lines through x, of which there are deg(x).  Masks are
Python ints, bit y for point y.  Per-line masks are not kept; each analysis
derives the few it needs.  The axioms become popcount identities:

- partial_linear, once every line has k points: x is collinear with
  v - |N[x]| = 1 + deg(x)(k-1) points, itself included.
- opposite_designs: line l lies inside N(x) exactly when x is in
  AND(N[p] for p in l).  If |N(x)| = w and no two lines inside
  N(x) share a pair (so always once partial linearity holds), N(x) carries
  an S(2,k,w) exactly when those lines hold w(w-1)/2 pairs, that is when
  there are w(w-1)/(k(k-1)) of them.

The masks N[x] are the deficiency graph itself (a pentgeo.graphs.Graph),
so its girth, components, overlap profile |N[x] & N[y]| and distance->=3
graph come from the graph functions without conversion; the K_{w,w}
components are counted here from its components.

Step rule: the geometry's step (core.Geometry.step) is a cyclic
automorphism x -> x + step (mod v), the development step for a geometry
from core.develop and v, the identity, when no symmetry is known.  The
points 0..step-1 represent the point orbits, and the deficiency graph
carries the same step, so the graph invariants, dist3_analysis's blade
check and the axiom loops of check_axioms work on the representatives
only: their tables have step entries, and each sorted representative line
is read up to its first point at or above the step.  A failing point's
representative fails too and is never larger than it, so the first witness
or exception is the one a point-by-point search finds; check_axioms walks
all v points, in order, only once a representative has failed, to quote
its witnesses.  Equality ignores the step.

Orbit-weight rule: the representative lines (core.Geometry.reps, those
through 0..step-1) stand for all lines.  The window of a point x is
x // step.  A representative L meeting c windows stands for (v/step)/c
lines, and so counts (v/step)/c towards the line and opposite-line
totals.  Towards the pairs held[x] on the lines inside N(x)
of a representative x it counts pairs(L) * |opp(L) & (x + step*Z)| / c,
where opp(L) holds the points whose deficiency neighbourhood contains L.
Each sum is taken in units of 1/s, s the lcm of the window counts, and
divided by s at the end; the orbit of L sums to a whole number, so this is
exact, short orbits included.  At step = v every weight is 1 and no window
is counted.  Witness searches read them too, so no full line set is built.

verify() and check_axioms() never raise on bad input of at most
graphs.MAX_VERTICES points: they report each failed axiom with up to
WITNESS_LIMIT witnesses.  Witnesses are searched for only where an identity
failed, point by point in sorted order, so the report is the same whichever
identity caught the failure.  The other operations assume a valid
geometry and raise when an identity forced by validity does not hold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm
from typing import Iterable, Iterator

from . import graphs
from .core import Geometry, Line, PentParams
from .errors import PentError
from .graphs import Graph, GraphReport, bits

AXIOM_PARTIAL_LINEAR = "partial_linear"
AXIOM_UNIFORM = "uniform"
AXIOM_REGULAR = "regular"
AXIOM_OPPOSITE = "opposite_designs"

WITNESS_LIMIT = 3


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class LineSplit:
    b_opp: int
    b_non_opp: int
    e: int


@dataclass(frozen=True)
class VerificationReport:
    params: PentParams
    axioms: tuple[AxiomCheck, ...]
    deficiency: GraphReport
    kww_components: int
    geometry_type: str
    line_split: LineSplit | None
    overlap_profile: dict[int, int] | None

    @property
    def valid(self) -> bool:
        return all(a.passed for a in self.axioms)

    def axiom(self, name: str) -> AxiomCheck:
        for a in self.axioms:
            if a.name == name:
                return a
        raise KeyError(name)

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axioms if not a.passed)


def _tally(geom: Geometry) -> tuple[int, int, list[int]]:
    """Counts by the orbit-weight rule: the opposite lines, all lines, and
    per representative x in 0..step-1 the pairs held[x] on the lines inside
    N(x)."""
    v, step = geom.v, geom.step
    reps = geom.reps
    # A representative meeting c windows weighs scale // c, where scale is
    # the lcm of every c, so each sum is an exact multiple of scale;
    # c = scale = 1 when step = v.
    if step == v:
        scale, weights = 1, [1] * len(reps)
    else:
        windows = [len({x // step for x in ln}) for ln in reps]
        scale = lcm(*windows)
        weights = [scale // c for c in windows]
    # Lines with the same opposite mask are counted together, so two copies
    # of an S(2,k,w) cost two masks, not w(w-1)/(k(k-1)) lines each.
    held_by_mask: Counter = Counter()
    b_opp = 0
    for ln, m, weight in zip(reps, _opposite(geom, reps), weights):
        if m:
            b_opp += weight
            held_by_mask[m] += weight * len(ln) * (len(ln) - 1) // 2
    held = [0] * step
    # Bit q*step of the repunit is set for each window q: (m >> x) & repunit
    # holds the points of m in the residue class of x.  At step = v no mask
    # has more than step points, and y % step is y.
    repunit = ((1 << v) - 1) // ((1 << step) - 1)
    for m, pairs in held_by_mask.items():
        if m.bit_count() > step:  # one AND per class, not one step per point
            for x in range(step):
                held[x] += pairs * (m >> x & repunit).bit_count()
        else:
            for y in bits(m):
                held[y % step] += pairs
    orbits = v // step
    return b_opp * orbits // scale, sum(weights) * orbits // scale, [h // scale for h in held]


def _opposite(geom: Geometry, lines: Iterable[Line]) -> Iterator[int]:
    """Per line, the mask of points whose deficiency neighbourhood contains
    it, their common non-neighbours (0 for an empty line); a line is
    opposite when its mask is non-zero.  The masks are yielded one at a
    time, as all of them together would take b*v/8 bytes."""
    nbrs, full = geom.incidence.deficiency.masks, (1 << geom.v) - 1
    for ln in lines:
        m = full if ln else 0
        for p in ln:
            m &= nbrs[p]
        yield m


def deficiency_graph(geom: Geometry) -> Graph:
    """Graph joining x and y exactly when no line contains both."""
    return geom.incidence.deficiency


def _count_kww_components(g: Graph, w: int) -> int:
    """Components that are complete bipartite K_{w,w}: 2w vertices, all
    degrees w, no edge inside the first vertex's neighbourhood, and every
    vertex outside that neighbourhood adjacent to all of it."""
    adj, count = g.masks, 0
    for members in graphs.components(g):
        if len(members) != 2 * w or any(adj[x].bit_count() != w for x in members):
            continue
        side = adj[members[0]]
        if all(not adj[x] & side if side >> x & 1 else adj[x] == side for x in members):
            count += 1
    return count


TYPE_INVALID = "invalid"


def _classify(params: PentParams, deficiency: GraphReport, kww_components: int) -> str:
    girth_ge5 = deficiency.girth is None or deficiency.girth >= 5
    if girth_ge5:
        return "A" if deficiency.connected else "B"
    if params.v == 2 * params.w and kww_components == 1:
        return "F"
    if kww_components >= 1:
        return "E"
    return "C" if deficiency.connected else "D"


def classify(report: VerificationReport) -> str:
    if not report.valid:
        raise PentError(f"axioms failed: {', '.join(report.failed_axioms())}")
    return _classify(report.params, report.deficiency, report.kww_components)


def _doubled_pairs(geom: Geometry, doubled: dict[int, dict]) -> Iterator[str]:
    """Quote each pair on two lines at its later line, in sorted order: a pair
    (a, b) whose move (a - t, b - t), t = a - a % step, is in doubled, with
    the last of doubled's lines for it, moved by t, below the current one."""
    v, step = geom.v, geom.step
    for ln in geom.line_stream():
        ends = [x for x in ln if x % step in doubled]
        for a, b in combinations(ends, 2):
            t = a - a % step
            lines = doubled[a - t].get((b - t) % v, ())
            moved = (tuple(sorted([(y + t) % v for y in m])) for m in lines)
            earlier = max((m for m in moved if m < ln), default=None)
            if earlier:
                yield f"pair {(a, b)} on lines {earlier} and {ln}"


def _opposite_witnesses(geom: Geometry, x: int, nbrs: set[int], witnesses: list[str]) -> None:
    """Quote why the lines inside nbrs = N(x) are not an S(2,k,w) on it."""
    lines_through = geom.incidence.lines_through
    met = dict.fromkeys(ln for p in nbrs for ln in lines_through(p))
    inside = [ln for ln in met if nbrs.issuperset(ln)]
    covered: set[tuple[int, int]] = set()
    doubled = False
    for ln in inside:
        for pair in combinations(ln, 2):
            if pair in covered:
                doubled = True
                if len(witnesses) < WITNESS_LIMIT:
                    witnesses.append(f"point {x}: pair {pair} doubled inside its opposite design")
            covered.add(pair)
    if not doubled and len(witnesses) < WITNESS_LIMIT:
        for a, b in combinations(sorted(nbrs), 2):
            if (a, b) not in covered:
                witnesses.append(f"point {x}: pair ({a},{b}) not covered inside its opposite design")
                return


def _check(name: str, witnesses: list[str]) -> AxiomCheck:
    return AxiomCheck(name, not witnesses, tuple(witnesses[:WITNESS_LIMIT]))


def check_axioms(geom: Geometry) -> tuple[tuple[AxiomCheck, ...], tuple[int, int, list[int]]]:
    """Check the four axioms, each on its own, so a single mutation is
    reported against every axiom it breaks; witnesses quote the smallest
    failing object in sorted order.  Returns the checks with the counts of
    _tally (opposite lines, lines, held pairs per representative)."""
    params = geom.params
    k, r, w, v = params.k, params.r, params.w, params.v
    ix = geom.incidence
    degree, nbrs, step = ix.degree, ix.deficiency.masks, geom.step

    # Every line is a translate of a representative of the same length.
    uniform_witnesses = []
    if set(map(len, geom.reps)) - {k}:
        uniform_witnesses = [f"line {ln}" for ln in geom.line_stream() if len(ln) != k]

    # A point has its representative's degree and deficiency mask, rotated,
    # so the loops below test 0..step-1 and walk every point only to quote.
    regular_witnesses = []
    if set(degree[:step]) - {r}:
        regular_witnesses = [
            f"point {x} on {degree[x]} lines, expected {r}" for x in range(v) if degree[x] != r
        ]

    # x fails opposite_designs unless |N(x)| = w, the lines inside N(x) hold
    # w(w-1)/2 pairs, and no two of them share a pair (clashing marks the x
    # where two do; only possible when partial linearity fails).
    tally = _tally(geom)
    held = tally[2]
    # Suspect: a representative not collinear with 1 + deg(k-1) points, itself
    # included, or on a line of the wrong length.  On lines of k points the
    # count falls short just when two share a second point, so a doubled
    # pair's ends are suspect.
    suspect = {x for x in range(step) if v - nbrs[x].bit_count() != 1 + degree[x] * (k - 1)}
    if uniform_witnesses:
        suspect.update(
            x for ln in geom.reps if len(ln) != k for x in ln if x < step
        )
    # Per suspect representative a, each partner b on two or more lines through
    # a, with those lines: every pair on two lines, moved to a representative.
    doubled: dict[int, dict[int, list[Line]]] = {}
    for a in suspect:
        covering: dict[int, list[Line]] = {}
        for ln in ix.lines_through(a):
            for b in ln:
                covering.setdefault(b, []).append(ln)
        doubled[a] = {b: lines for b, lines in covering.items() if b != a and len(lines) > 1}
    pl_witnesses: list[str] = []
    if any(doubled.values()):
        pl_witnesses = list(islice(_doubled_pairs(geom, doubled), WITNESS_LIMIT))
    # x clashes when two lines on one pair lie inside N(x), just when x % step
    # does: one pass keeps the points in one of their masks (once) and two (twice).
    clashing = 0
    for partners in doubled.values():
        for lines in partners.values():
            once = twice = 0
            for m in _opposite(geom, lines):
                twice |= once & m
                once |= m
            clashing |= twice
    clash_reps = {y % step for y in bits(clashing)}
    opposite_witnesses: list[str] = []
    if any(
        nbrs[x].bit_count() != w or 2 * held[x] != w * (w - 1) or x in clash_reps
        for x in range(step)
    ):
        for x in range(v):
            size = nbrs[x].bit_count()
            if size != w:
                opposite_witnesses.append(f"point {x}: {size} non-collinear points, expected {w}")
            elif 2 * held[x % step] != w * (w - 1) or x % step in clash_reps:
                _opposite_witnesses(geom, x, set(bits(nbrs[x])), opposite_witnesses)
            if len(opposite_witnesses) >= WITNESS_LIMIT:
                break

    axioms = (
        _check(AXIOM_PARTIAL_LINEAR, pl_witnesses),
        _check(AXIOM_UNIFORM, uniform_witnesses),
        _check(AXIOM_REGULAR, regular_witnesses),
        _check(AXIOM_OPPOSITE, opposite_witnesses),
    )
    return axioms, tally


def verify(geom: Geometry) -> VerificationReport:
    """Check all four axioms (check_axioms) and assemble the full report:
    the deficiency graph's girth and components, its K_{w,w} count and,
    for a valid geometry, its type, line split and overlap profile.

    A construction needs only the verdict: it runs check_axioms on its
    output and ingredients, and on a tripling or product input also counts
    the deficiency components, which must be one.  It skips the girth, the
    K_{w,w} count, the type, the line split and the overlap profile.
    """
    params = geom.params
    axioms, (opposite_count, line_count, _) = check_axioms(geom)
    dgraph = geom.incidence.deficiency
    dreport = graphs.report(dgraph)
    # Only a component of 2w vertices can be a K_{w,w}.
    kww = _count_kww_components(dgraph, params.w) if 2 * params.w in dreport.component_sizes else 0

    geometry_type, split, profile = TYPE_INVALID, None, None
    if all(a.passed for a in axioms):
        geometry_type = _classify(params, dreport, kww)
        split = _split(params, opposite_count, line_count, dreport.girth)
        profile = dict(sorted(graphs.neighborhood_intersection_profile(dgraph).items()))
    return VerificationReport(
        params=params,
        axioms=axioms,
        deficiency=dreport,
        kww_components=kww,
        geometry_type=geometry_type,
        line_split=split,
        overlap_profile=profile,
    )


def _split(params: PentParams, b_opp: int, b: int, girth: int | None) -> LineSplit:
    k, r, w, v = params.k, params.r, params.w, params.v
    b_non_opp = b - b_opp
    num = w * (w - 1)
    if num % (k - 1) != 0:
        raise PentError(f"w(w-1) = {num} not divisible by k-1 = {k - 1}")
    e = r - num // (k - 1)
    if girth is None or girth >= 5:
        expected_opp = v * num // (k * (k - 1))
        expected_non = e * v // k
        if b_opp != expected_opp or b_non_opp != expected_non:
            raise PentError(
                f"girth >= 5 split ({b_opp},{b_non_opp}) != expected ({expected_opp},{expected_non})"
            )
    return LineSplit(b_opp=b_opp, b_non_opp=b_non_opp, e=e)


def line_split(geom: Geometry) -> LineSplit:
    """Opposite/non-opposite line counts and the excess e = r - w(w-1)/(k-1).

    With girth >= 5 the counts must satisfy the closed-form identities; at
    girth 4 the raw counts are returned without assertion.
    """
    b_opp, b, _ = _tally(geom)
    return _split(geom.params, b_opp, b, graphs.girth(geom.incidence.deficiency))


def overlap_profile(geom: Geometry) -> dict[int, int]:
    """Multiset of opposite-point-set intersection sizes over point pairs.

    Sizes strictly between 1 and k, or between k and k^2-k inclusive of
    neither endpoint, cannot occur in a valid geometry; finding one raises
    PentError.
    """
    k = geom.params.k
    dgraph = geom.incidence.deficiency
    profile = graphs.neighborhood_intersection_profile(dgraph)

    def forbidden(u: int) -> bool:
        return 2 <= u <= k - 1 or k + 1 <= u <= k * k - k

    if any(forbidden(u) for u in profile):
        nbrs = dgraph.masks
        for x, nx in enumerate(nbrs):
            for y in range(x + 1, len(nbrs)):
                u = (nx & nbrs[y]).bit_count()
                if forbidden(u):
                    raise PentError(f"points {(x, y)} have {u} common deficiency neighbours")
    return dict(sorted(profile.items()))


@dataclass(frozen=True)
class Dist3Report:
    """Distance-at-least-3 graph facts: the degree bound r(k-1) - w(w-1),
    whether every degree meets it exactly, and the per-point count of
    non-opposite lines (the windmill blade count)."""

    degree_bound: int
    min_degree: int
    degrees_tight: bool
    blade_counts: tuple[int, ...]


def _blade_failure(x: int, blades: list[Line], far: list[int]) -> str | None:
    """The first way the blades through x fail to partition far[x] into
    cliques of the distance->=3 graph, in the order the points are met."""
    seen = 0
    for ln in blades:
        rest = [q for q in ln if q != x]
        for i, a in enumerate(rest):
            if seen >> a & 1:
                return f"point {x}: {a} in two blades"
            seen |= 1 << a
            if not far[x] >> a & 1:
                return f"point {x}: {a} not a distance->=3 neighbour"
            if any(not far[a] >> b & 1 for b in rest[i + 1 :]):
                return f"point {x}: blade {ln} is not a clique"
    if seen != far[x]:
        return f"point {x}: neighbours {bits(far[x] & ~seen)[:3]} not covered by blades"
    return None


def dist3_analysis(geom: Geometry) -> Dist3Report:
    """Check the windmill structure of the distance->=3 graph.

    Every vertex degree must be at least r(k-1) - w(w-1), with equality
    exactly at girth >= 5; each vertex's neighbourhood must be partitioned
    into (k-1)-cliques by its non-opposite lines.
    """
    params = geom.params
    k, r, w = params.k, params.r, params.w
    dgraph = geom.incidence.deficiency
    far = graphs.distance3_graph(dgraph).masks
    step = geom.step

    bound = r * (k - 1) - w * (w - 1)
    degrees = [m.bit_count() for m in far[:step]]
    min_degree = min(degrees)
    if min_degree < bound:
        x = degrees.index(min_degree)
        raise PentError(f"point {x}: degree {min_degree} < bound {bound}")
    dgirth = graphs.girth(dgraph)
    tight = all(d == bound for d in degrees)
    if (dgirth is None or dgirth >= 5) and not tight:
        x = next(i for i, d in enumerate(degrees) if d != bound)
        raise PentError(
            f"girth >= 5 but point {x} has degree {degrees[x]} != bound {bound}"
        )

    # x's blades are its non-opposite lines.  Leaving x out, they must be
    # disjoint and make up far[x].  That they are cliques then follows: a
    # blade through x is a blade of each of its points a, so its other points
    # lie in far[a].  A line is non-opposite when its opposite mask is 0 (an
    # empty line has no point to count).  Only the representatives are
    # checked, from the lines through them, so the tables have step entries.
    covered, sizes, counts = [0] * step, [0] * step, [0] * step
    reps = geom.reps
    for ln, opp in zip(reps, _opposite(geom, reps)):
        if not opp:
            m = 0
            for x in ln:
                m |= 1 << x
            for x in ln:  # the representatives on ln, a prefix as ln is sorted
                if x >= step:
                    break
                covered[x] |= m
                sizes[x] += len(ln) - 1
                counts[x] += 1
    partitioned = all(
        c & ~(1 << x) == f and f.bit_count() == n
        for x, (c, f, n) in enumerate(zip(covered, far, sizes))
    )
    if not partitioned:
        for x in range(step):
            through = geom.incidence.lines_through(x)
            blades = [ln for ln, opp in zip(through, _opposite(geom, through)) if not opp]
            failure = _blade_failure(x, blades, far)
            if failure:
                raise PentError(failure)
    return Dist3Report(
        degree_bound=bound,
        min_degree=min_degree,
        degrees_tight=tight,
        blade_counts=tuple(counts) * (geom.v // step),
    )
