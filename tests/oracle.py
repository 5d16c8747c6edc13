"""Reference oracle: the original set-based verifier, kept as written.

verify, line_split, overlap_profile and dist3_analysis here walk Python sets
point by point, and girth is a plain BFS from every vertex.  inflate and
shift_automorphisms are the original edge-list versions.  Graphs are read
through neighbours() and _edges(), which test each bit of a mask in turn.
They are slow and obviously correct; tests/test_kernel.py asserts that the
bitset kernel in pentgeo.pent and pentgeo.graphs gives equal results,
witness strings included.  verify_steiner and verify_gdd are the original
design verifiers, each with its own pair loop; tests/test_designs.py asserts
that the shared one in pentgeo.designs raises the same exceptions with the
same messages.  _attempt is the original hill-climb attempt, which scores
every common neighbour of the chosen pair by two class lookups in the pair
maps that climb_classes derives from the problem's inputs;
tests/test_hillclimb.py asserts that the mask step in pentgeo.hillclimb makes
the same moves, random draws and kicks, and that the problem's own class
tables group the pairs as climb_classes does.  Pent3Plan, _pent3_preconditions, plan_pent3,
Pent5Plan, plan_pent5 and _split_into_parts are the original planners, whose
searches restate their plans' checks and whose PENT(5,r) plan keeps all q
summands; tests/test_planners.py asserts that pentgeo.construct returns the
same plans and that its checks accept and reject the same doctored plans.
develop is the original base-block development, which walks every
translate of each base block; tests/test_kernel.py asserts that
pentgeo.core.develop keeps its lines through 0..d-1 and builds the same
full line set.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from pentgeo.core import BaseBlockFile, Geometry, Line, PentParams, canonical_line, geometry
from pentgeo.designs import Gdd, SteinerSystem
from pentgeo.errors import PentError, UsageError
from pentgeo.graphs import Graph, GraphReport, graph_from_edges
from pentgeo.hillclimb import _KICK_SIZE, _PATIENCE, AttemptLog, ClimbProblem, Pair, _stall_limit
from pentgeo.pent import (
    AXIOM_OPPOSITE,
    AXIOM_PARTIAL_LINEAR,
    AXIOM_REGULAR,
    AXIOM_UNIFORM,
    TYPE_INVALID,
    WITNESS_LIMIT,
    AxiomCheck,
    Dist3Report,
    LineSplit,
    VerificationReport,
)


def neighbours(g: Graph, x: int) -> list[int]:
    """Neighbours of x, ascending."""
    return [y for y in range(g.n) if g.masks[x] >> y & 1]


def _adjacency(g: Graph) -> list[list[int]]:
    return [neighbours(g, x) for x in range(g.n)]


def _edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, in ascending order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.masks[u] >> v & 1]


def _graph(v: int, adjacency) -> Graph:
    return Graph(n=v, reps=tuple(sum(1 << y for y in a) for a in adjacency))


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, by BFS from every vertex.

    A BFS from s may overestimate the shortest cycle through s, but the
    minimum over all start vertices is exact.
    """
    adjacency = _adjacency(g)
    best: int | None = None
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for x in adjacency[u]:
                if dist[x] == -1:
                    dist[x] = dist[u] + 1
                    parent[x] = u
                    queue.append(x)
                elif x != parent[u]:
                    cycle = dist[u] + dist[x] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def components(g: Graph) -> list[list[int]]:
    adjacency = _adjacency(g)
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for x in adjacency[u]:
                if not seen[x]:
                    seen[x] = True
                    comp.append(x)
                    queue.append(x)
        out.append(sorted(comp))
    return out


def report(g: Graph) -> GraphReport:
    degrees = {len(a) for a in _adjacency(g)}
    comps = components(g)
    return GraphReport(
        n=g.n,
        regular_degree=degrees.pop() if len(degrees) == 1 else None,
        girth=girth(g),
        connected=len(comps) <= 1,
        component_sizes=tuple(sorted(len(c) for c in comps)),
    )



def distance3_graph(g: Graph) -> Graph:
    """Join x and y when their distance in g is at least 3.

    Vertices in different components are at infinite distance, hence joined.
    """
    adjacency = _adjacency(g)
    edges = []
    for x in range(g.n):
        ball = set(adjacency[x])
        ball.add(x)
        for u in adjacency[x]:
            ball.update(adjacency[u])
        edges.extend((x, y) for y in range(x + 1, g.n) if y not in ball)
    return graph_from_edges(g.n, edges)



def inflate(g: Graph, h: int) -> Graph:
    """Replace each vertex p by h copies hp..hp+h-1 and each edge by K_{h,h}."""
    if h < 1:
        raise UsageError(f"h = {h} < 1")
    edges = []
    for u, v in _edges(g):
        for s in range(h):
            for t in range(h):
                edges.append((h * u + s, h * v + t))
    return graph_from_edges(h * g.n, edges)


def shift_automorphisms(g: Graph) -> tuple[int, ...]:
    """Shifts s for which x -> x + s (mod n) preserves adjacency."""
    edges = {frozenset(e) for e in _edges(g)}
    found = []
    for s in range(1, g.n):
        if all(frozenset(((a + s) % g.n, (b + s) % g.n)) in edges for a, b in _edges(g)):
            found.append(s)
    return tuple(found)


def develop(file: BaseBlockFile) -> Geometry:
    """Close the base blocks under x -> x+d (mod v) and deduplicate, walking
    each block's orbit until it comes back to the block."""
    params = file.params
    v, d = params.v, file.d
    if v % d != 0:
        raise UsageError(f"d = {d} does not divide v = {v}")
    lines: set[Line] = set()
    for blk in file.blocks:
        start = canonical_line(blk)
        lines.add(start)
        for t in range(d, v, d):
            cur = tuple(sorted([(x + t) % v for x in start]))
            if cur == start:
                break
            lines.add(cur)
    return geometry(params, lines)


def _collinear_sets(geom: Geometry) -> tuple[list[set[int]], list[str]]:
    """Per-point collinear sets, tolerating doubly covered pairs.

    Returns the sets plus partial-linearity witnesses (empty when the
    pair-once axiom holds)."""
    v = geom.v
    seen: dict[tuple[int, int], Line] = {}
    witnesses: list[str] = []
    collinear: list[set[int]] = [set() for _ in range(v)]
    for ln in geom.lines_sorted():
        for i in range(len(ln)):
            for j in range(i + 1, len(ln)):
                pair = (ln[i], ln[j])
                prev = seen.get(pair)
                if prev is not None and len(witnesses) < WITNESS_LIMIT:
                    witnesses.append(f"pair {pair} on lines {prev} and {ln}")
                seen[pair] = ln
                collinear[pair[0]].add(pair[1])
                collinear[pair[1]].add(pair[0])
    return collinear, witnesses


def _lines_by_point(geom: Geometry) -> list[list[Line]]:
    index: list[list[Line]] = [[] for _ in range(geom.v)]
    for ln in geom.lines_sorted():
        for x in ln:
            index[x].append(ln)
    return index


def deficiency_graph(geom: Geometry) -> Graph:
    """Graph joining x and y exactly when no line contains both."""
    collinear, _ = _collinear_sets(geom)
    v = geom.v
    adjacency = tuple(
        tuple(y for y in range(v) if y != x and y not in collinear[x]) for x in range(v)
    )
    return _graph(v, adjacency)


def _bipartite(adjacency, vertices: list[int]) -> bool:
    colour = {vertices[0]: 0}
    stack = [vertices[0]]
    while stack:
        u = stack.pop()
        for x in adjacency[u]:
            if x not in colour:
                colour[x] = 1 - colour[u]
                stack.append(x)
            elif colour[x] == colour[u]:
                return False
    return True


def _count_kww_components(graph: Graph, w: int) -> int:
    """Components that are complete bipartite K_{w,w}: 2w vertices, all
    degrees w, bipartite.  Regular bipartite on 2w vertices forces K_{w,w}."""
    adjacency = _adjacency(graph)
    count = 0
    for comp in components(graph):
        if len(comp) != 2 * w:
            continue
        if any(len(adjacency[x]) != w for x in comp):
            continue
        if _bipartite(adjacency, comp):
            count += 1
    return count



def _classify(params: PentParams, deficiency: GraphReport, kww_components: int) -> str:
    girth_ge5 = deficiency.girth is None or deficiency.girth >= 5
    if girth_ge5:
        return "A" if deficiency.connected else "B"
    if params.v == 2 * params.w and kww_components == 1:
        return "F"
    if kww_components >= 1:
        return "E"
    return "C" if deficiency.connected else "D"



def _opposite_lines_of(geom: Geometry, neighbour_sets: list[set[int]]) -> set[Line]:
    """Lines contained in some point's deficiency neighbourhood."""
    by_point = _lines_by_point(geom)
    opposite: set[Line] = set()
    for x in range(geom.v):
        nbrs = neighbour_sets[x]
        seen: set[Line] = set()
        for p in nbrs:
            for ln in by_point[p]:
                if ln not in seen:
                    seen.add(ln)
                    if all(q in nbrs for q in ln):
                        opposite.add(ln)
    return opposite


def verify(geom: Geometry) -> VerificationReport:
    """Check all four axioms and assemble the full report.

    Axioms are checked independently so a single mutation is reported against
    every axiom it breaks.  Witnesses quote the smallest failing object in
    sorted order.
    """
    params = geom.params
    k, r, w, v = params.k, params.r, params.w, params.v

    uniform_witnesses = []
    for ln in geom.lines_sorted():
        bad = len(ln) != k or any(not 0 <= x < v for x in ln)
        if bad and len(uniform_witnesses) < WITNESS_LIMIT:
            uniform_witnesses.append(f"line {ln}")
    uniform = AxiomCheck(AXIOM_UNIFORM, not uniform_witnesses, tuple(uniform_witnesses))

    collinear, pl_witnesses = _collinear_sets(geom)
    partial_linear = AxiomCheck(AXIOM_PARTIAL_LINEAR, not pl_witnesses, tuple(pl_witnesses))

    counts = [0] * v
    stray = False
    for ln in geom.lines:
        for x in ln:
            if 0 <= x < v:
                counts[x] += 1
            else:
                stray = True
    regular_witnesses = [
        f"point {x} on {counts[x]} lines, expected {r}" for x in range(v) if counts[x] != r
    ]
    if stray:
        regular_witnesses.insert(0, "line with point outside 0..v-1")
    regular = AxiomCheck(
        AXIOM_REGULAR, not regular_witnesses, tuple(regular_witnesses[:WITNESS_LIMIT])
    )

    # Deficiency neighbourhoods: everything neither equal nor collinear.
    neighbour_sets = [
        {y for y in range(v) if y != x and y not in collinear[x]} for x in range(v)
    ]

    by_point = _lines_by_point(geom)
    opposite_witnesses: list[str] = []
    opposite_lines: set[Line] = set()
    for x in range(v):
        nbrs = neighbour_sets[x]
        if len(nbrs) != w:
            if len(opposite_witnesses) < WITNESS_LIMIT:
                opposite_witnesses.append(f"point {x}: {len(nbrs)} non-collinear points, expected {w}")
            continue
        inside: list[Line] = []
        seen: set[Line] = set()
        for p in nbrs:
            for ln in by_point[p]:
                if ln not in seen:
                    seen.add(ln)
                    if all(q in nbrs for q in ln):
                        inside.append(ln)
        opposite_lines.update(inside)
        pair_cover: dict[tuple[int, int], Line] = {}
        failed = False
        for ln in inside:
            for i in range(len(ln)):
                for j in range(i + 1, len(ln)):
                    pair = (ln[i], ln[j])
                    if pair in pair_cover:
                        if len(opposite_witnesses) < WITNESS_LIMIT:
                            opposite_witnesses.append(
                                f"point {x}: pair {pair} doubled inside its opposite design"
                            )
                        failed = True
                    pair_cover[pair] = ln
        if not failed:
            nbrs_sorted = sorted(nbrs)
            for i, a in enumerate(nbrs_sorted):
                for b in nbrs_sorted[i + 1 :]:
                    if (a, b) not in pair_cover:
                        if len(opposite_witnesses) < WITNESS_LIMIT:
                            opposite_witnesses.append(
                                f"point {x}: pair ({a},{b}) not covered inside its opposite design"
                            )
                        failed = True
                        break
                if failed:
                    break
    opposite = AxiomCheck(
        AXIOM_OPPOSITE, not opposite_witnesses, tuple(opposite_witnesses[:WITNESS_LIMIT])
    )

    adjacency = tuple(tuple(sorted(neighbour_sets[x])) for x in range(v))
    dgraph = _graph(v, adjacency)
    dreport = report(dgraph)
    kww = _count_kww_components(dgraph, w)

    axioms = (partial_linear, uniform, regular, opposite)
    valid = all(a.passed for a in axioms)

    if valid:
        geometry_type = _classify(params, dreport, kww)
        split = _split_from_opposite(geom, opposite_lines, dreport)
        profile = _profile_from_sets(neighbour_sets)
    else:
        geometry_type = TYPE_INVALID
        split = None
        profile = None

    return VerificationReport(
        params=params,
        axioms=axioms,
        deficiency=dreport,
        kww_components=kww,
        geometry_type=geometry_type,
        line_split=split,
        overlap_profile=profile,
    )


def _split_from_opposite(geom: Geometry, opposite_lines: set[Line], dreport: GraphReport) -> LineSplit:
    params = geom.params
    k, r, w, v = params.k, params.r, params.w, params.v
    b_opp = len(opposite_lines)
    b_non_opp = len(geom.lines) - b_opp
    num = w * (w - 1)
    if num % (k - 1) != 0:
        raise PentError(f"w(w-1) = {num} not divisible by k-1 = {k - 1}")
    e = r - num // (k - 1)
    girth_ge5 = dreport.girth is None or dreport.girth >= 5
    if girth_ge5:
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
    collinear, _ = _collinear_sets(geom)
    v = geom.v
    neighbour_sets = [
        {y for y in range(v) if y != x and y not in collinear[x]} for x in range(v)
    ]
    opposite = _opposite_lines_of(geom, neighbour_sets)
    dreport = report(deficiency_graph(geom))
    return _split_from_opposite(geom, opposite, dreport)


def _profile_from_sets(neighbour_sets: list[set[int]]) -> dict[int, int]:
    profile: Counter = Counter()
    n = len(neighbour_sets)
    for x in range(n):
        sx = neighbour_sets[x]
        for y in range(x + 1, n):
            profile[len(sx & neighbour_sets[y])] += 1
    return dict(sorted(profile.items()))


def overlap_profile(geom: Geometry) -> dict[int, int]:
    """Multiset of opposite-point-set intersection sizes over point pairs.

    Sizes strictly between 1 and k, or between k and k^2-k inclusive of
    neither endpoint, cannot occur in a valid geometry; finding one raises
    PentError.
    """
    k = geom.params.k
    dgraph = deficiency_graph(geom)
    sets = [set(a) for a in _adjacency(dgraph)]
    profile: Counter = Counter()
    for x in range(geom.v):
        for y in range(x + 1, geom.v):
            u = len(sets[x] & sets[y])
            if 2 <= u <= k - 1 or k + 1 <= u <= k * k - k:
                raise PentError(f"points {(x, y)} have {u} common deficiency neighbours")
            profile[u] += 1
    return dict(sorted(profile.items()))



def dist3_analysis(geom: Geometry) -> Dist3Report:
    """Check the windmill structure of the distance->=3 graph.

    Every vertex degree must be at least r(k-1) - w(w-1), with equality
    exactly at girth >= 5; each vertex's neighbourhood must be partitioned
    into (k-1)-cliques by its non-opposite lines.
    """
    params = geom.params
    k, r, w = params.k, params.r, params.w
    collinear, _ = _collinear_sets(geom)
    v = geom.v
    neighbour_sets = [
        {y for y in range(v) if y != x and y not in collinear[x]} for x in range(v)
    ]
    adjacency = tuple(tuple(sorted(neighbour_sets[x])) for x in range(v))
    dgraph = _graph(v, adjacency)
    egraph = distance3_graph(dgraph)
    opposite = _opposite_lines_of(geom, neighbour_sets)

    bound = r * (k - 1) - w * (w - 1)
    eadjacency = _adjacency(egraph)
    degrees = [len(eadjacency[x]) for x in range(v)]
    min_degree = min(degrees)
    if min_degree < bound:
        x = degrees.index(min_degree)
        raise PentError(f"point {x}: degree {min_degree} < bound {bound}")
    dgirth = girth(dgraph)
    tight = all(d == bound for d in degrees)
    if (dgirth is None or dgirth >= 5) and not tight:
        x = next(i for i, d in enumerate(degrees) if d != bound)
        raise PentError(
            f"girth >= 5 but point {x} has degree {degrees[x]} != bound {bound}"
        )

    by_point = _lines_by_point(geom)
    blade_counts = []
    esets = [set(a) for a in eadjacency]
    for x in range(v):
        blades = [ln for ln in by_point[x] if ln not in opposite]
        seen: set[int] = set()
        for ln in blades:
            rest = [q for q in ln if q != x]
            for i, a in enumerate(rest):
                if a in seen:
                    raise PentError(f"point {x}: {a} in two blades")
                seen.add(a)
                if a not in esets[x]:
                    raise PentError(f"point {x}: {a} not a distance->=3 neighbour")
                for b in rest[i + 1 :]:
                    if b not in esets[a]:
                        raise PentError(f"point {x}: blade {ln} is not a clique")
        if seen != esets[x]:
            missing = sorted(esets[x] - seen)[:3]
            raise PentError(f"point {x}: neighbours {missing} not covered by blades")
        blade_counts.append(len(blades))
    return Dist3Report(
        degree_bound=bound,
        min_degree=min_degree,
        degrees_tight=tight,
        blade_counts=tuple(blade_counts),
    )


def verify_steiner(s: SteinerSystem) -> None:
    """Exhaustive pair check; raises on the first defect found."""
    if s.k < 2 or s.w < s.k:
        raise UsageError(f"bad S(2,{s.k},{s.w})")
    seen: dict[tuple[int, int], Line] = {}
    for blk in sorted(s.blocks):
        if len(blk) != s.k or any(not 0 <= x < s.w for x in blk):
            raise UsageError(f"bad block {blk}")
        for i in range(s.k):
            for j in range(i + 1, s.k):
                pair = (blk[i], blk[j])
                if pair in seen:
                    raise PentError(f"pair {pair} covered by both {seen[pair]} and {blk}")
                seen[pair] = blk
    for x in range(s.w):
        for y in range(x + 1, s.w):
            if (x, y) not in seen:
                raise PentError(f"pair {(x, y)} covered by no block")


def verify_gdd(d: Gdd) -> None:
    """Exhaustive cross-pair check; raises on the first defect found."""
    n = d.n
    group_of = {}
    for gi, grp in enumerate(d.groups):
        for x in grp:
            if x in group_of:
                raise UsageError(f"point {x} in two groups")
            group_of[x] = gi
    if sorted(group_of) != list(range(n)):
        raise UsageError("groups do not partition 0..n-1")
    seen: dict[tuple[int, int], Line] = {}
    for blk in sorted(d.blocks):
        if len(blk) != d.k or any(x not in group_of for x in blk):
            raise UsageError(f"bad block {blk}")
        for i in range(d.k):
            for j in range(i + 1, d.k):
                pair = (blk[i], blk[j])
                if group_of[pair[0]] == group_of[pair[1]]:
                    raise PentError(f"within-group pair {pair} covered by {blk}")
                if pair in seen:
                    raise PentError(f"pair {pair} covered by both {seen[pair]} and {blk}")
                seen[pair] = blk
    for x in range(n):
        for y in range(x + 1, n):
            if group_of[x] != group_of[y] and (x, y) not in seen:
                raise PentError(f"pair {(x, y)} covered by no block")


def _pair(x: int, y: int) -> Pair:
    return (x, y) if x < y else (y, x)


def climb_classes(problem: ClimbProblem):
    """(canon, members) of a checked problem: a map from each target pair to
    its class representative, and a map from each representative to its
    class, in order of first meeting.  A class is a shift orbit, or one pair
    without a shift; every target pair is in one."""
    v, shift, targets = problem.v, problem.step, problem.target_pairs
    canon: dict[Pair, Pair] = {}
    members: dict[Pair, tuple[Pair, ...]] = {}
    for p in sorted(targets):
        if p in canon:
            continue
        orbit = [p]
        a, b = p
        for _ in range(problem.order - 1):
            a, b = (a + shift) % v, (b + shift) % v
            orbit.append(_pair(a, b))
        for q in orbit:
            canon[q] = p
        members[p] = tuple(orbit)
    return canon, members


def _attempt(problem: ClimbProblem, rng: random.Random, budget: int):
    canon, members = climb_classes(problem)

    # y in avail[x] iff {x,y} is a target pair; y in uncovered_at[x]
    # additionally requires its orbit to be uncovered.
    avail: dict[int, set[int]] = {x: set() for x in range(problem.v)}
    for x, y in problem.target_pairs:
        avail[x].add(y)
        avail[y].add(x)
    uncovered_at = {x: set(avail[x]) for x in range(problem.v)}
    n_uncovered = len(members)
    stall_limit = _stall_limit(n_uncovered)

    cover: dict[Pair, Line] = {}
    added: set[Line] = set()
    live = {x for x in range(problem.v) if uncovered_at[x]}
    live_list = sorted(live)
    live_dirty = False

    def cover_class(c: Pair, ln: Line):
        nonlocal n_uncovered, live_dirty
        cover[c] = ln
        n_uncovered -= 1
        for x, y in members[c]:
            uncovered_at[x].discard(y)
            uncovered_at[y].discard(x)
            for z in (x, y):
                if not uncovered_at[z] and z in live:
                    live.discard(z)
                    live_dirty = True

    def uncover_class(c: Pair):
        nonlocal n_uncovered, live_dirty
        del cover[c]
        n_uncovered += 1
        for x, y in members[c]:
            uncovered_at[x].add(y)
            uncovered_at[y].add(x)
            for z in (x, y):
                if z not in live:
                    live.add(z)
                    live_dirty = True

    def remove_triple(t: Line):
        added.discard(t)
        for i in range(3):
            for j in range(i + 1, 3):
                uncover_class(canon[_pair(t[i], t[j])])

    iterations = kicks = 0
    best = n_uncovered
    since_best = 0
    while n_uncovered > 0 and iterations < budget:
        iterations += 1
        since_best += 1
        if n_uncovered < best:
            best = n_uncovered
            since_best = 0
        if since_best > stall_limit:
            since_best = 0
            kicks += 1
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
            partners = sorted(uncovered_at[x])
            if not partners:
                continue
            y = partners[rng.randrange(len(partners))]
            c_xy = canon[_pair(x, y)]
            tiers: tuple[list, list, list] = ([], [], [])
            for z in sorted(avail[x] & avail[y]):
                c_xz = canon[_pair(x, z)]
                c_yz = canon[_pair(y, z)]
                if c_xz == c_xy or c_yz == c_xy or c_xz == c_yz:
                    continue
                tiers[(c_xz in cover) + (c_yz in cover)].append((z, c_xz, c_yz))
            for cost, tier in enumerate(tiers):
                if tier:
                    move = (x, y, c_xy) + tier[rng.randrange(len(tier))]
                    break
            if tier and cost <= 1:
                break
        if move is None:
            continue
        x, y, c_xy, z, c_xz, c_yz = move
        for c in (c_xz, c_yz):
            t = cover.get(c)
            if t is not None:
                remove_triple(t)
        triple = canonical_line((x, y, z))
        added.add(triple)
        cover_class(c_xy, triple)
        cover_class(c_xz, triple)
        cover_class(c_yz, triple)
    log = AttemptLog(iterations, kicks, min(best, n_uncovered))
    return (added if n_uncovered == 0 else None), log


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
            raise UsageError(f"r3 = {self.r3} not in {{r0, r1}}")
        if self.t < self.t_min():
            raise UsageError(f"t = {self.t} < t_min = {self.t_min()}")
        if self.u < self.u_min():
            raise UsageError(f"u = {self.u} < u_min = {self.u_min()}")


def _pent3_preconditions(r0: int, r1: int, r2: int, w: int) -> None:
    if w < 3 or min(r0, r1, r2) < 1:
        raise UsageError("need w >= 3 and positive replication numbers")
    if r0 % 3 != 0:
        raise UsageError(f"r0 = {r0} must be divisible by 3")
    if r1 % 3 == 0 or r2 % 3 == 0:
        raise UsageError(f"r1 = {r1} and r2 = {r2} must not be divisible by 3")
    v1 = 2 * r1 + w + 1
    v2 = 2 * r2 + w + 1
    if math.gcd(v1, v2) != 6:
        raise UsageError(f"gcd(v1,v2) = {math.gcd(v1, v2)} != 6")


def plan_pent3(r0: int, r1: int, r2: int, w: int, target_r: int) -> Pent3Plan | None:
    """Search for (t, u, r3) hitting target_r; None when no plan exists.

    t is scanned from its lower bound far enough to exhaust every residue
    class that could divide out, so None really means unreachable.
    """
    _pent3_preconditions(r0, r1, r2, w)
    if target_r < 1:
        raise UsageError(f"target_r = {target_r} < 1")
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
            raise UsageError(f"r = {r} is not 0 or 1 (mod 5)")
        if v != 4 * r + 6:
            raise UsageError(f"v = {v} != 4r+6")
        if h != 86 + 4 * (r % 5):
            raise UsageError(f"h = {h} != 86 + 4*(r mod 5)")
        if q % 2 == 0 or q % 11 != 0:
            raise UsageError(f"q = {q} must be odd and divisible by 11")
        if q < 1937:
            raise UsageError(f"q = {q} < 1937")
        if not math.ceil(Fraction(v, 129)) <= q <= math.floor(Fraction(v, 111)):
            raise UsageError(f"q = {q} outside [v/129, v/111]")
        if m != v - 100 * q:
            raise UsageError(f"m = {m} != v - 100q")
        if not 11 * q <= m <= 29 * q:
            raise UsageError(f"m = {m} outside [11q, 29q]")
        if m % 4 != 2:
            raise UsageError(f"m = {m} != 2 (mod 4)")
        if m % h != 0:
            raise UsageError(f"h = {h} does not divide m = {m}")
        b = m // h
        if b < 21 or b % 2 == 0:
            raise UsageError(f"m/h = {b} must be odd and >= 21")
        if h == 86 and b % 10 != 1:
            raise UsageError(f"m/h = {b} must be 1 (mod 10) when h = 86")
        if len(self.parts) != q:
            raise UsageError(f"{len(self.parts)} summands != q = {q}")
        if any(p not in PENT5_PART_SIZES for p in self.parts):
            raise UsageError("summand outside {10, 18, 30}")
        if sum(self.parts) != m:
            raise UsageError(f"summands total {sum(self.parts)} != m = {m}")


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
