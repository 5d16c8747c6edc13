"""Reference oracle: the original set-based verifier, kept as written.

verify, line_split, overlap_profile and dist3_analysis here walk Python sets
point by point, and girth is a plain BFS from every vertex.  They are slow
and obviously correct; tests/test_kernel.py asserts that the bitset kernel in
pentgeo.pent and pentgeo.graphs gives equal results, witness strings
included.  verify_steiner and verify_gdd are the original design verifiers,
each with its own pair loop; tests/test_designs.py asserts that the shared
one in pentgeo.designs raises the same exceptions with the same messages.
Nothing in the package imports this module.
"""

from __future__ import annotations

from collections import Counter, deque

from pentgeo.core import Geometry, Line, PentParams
from pentgeo.designs import Gdd, SteinerSystem
from pentgeo.errors import (
    DegreeBoundViolated,
    ForbiddenOverlap,
    GroupPairCovered,
    PairDoubled,
    PairMissing,
    ParameterDomain,
    PartitionFailed,
    SplitMismatch,
)
from pentgeo.graphs import Graph, GraphReport, graph_from_edges
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


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, by BFS from every vertex.

    A BFS from s may overestimate the shortest cycle through s, but the
    minimum over all start vertices is exact.
    """
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
            for x in g.adjacency[u]:
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
            for x in g.adjacency[u]:
                if not seen[x]:
                    seen[x] = True
                    comp.append(x)
                    queue.append(x)
        out.append(sorted(comp))
    return out


def report(g: Graph) -> GraphReport:
    degrees = {len(a) for a in g.adjacency}
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
    edges = []
    for x in range(g.n):
        ball = set(g.adjacency[x])
        ball.add(x)
        for u in g.adjacency[x]:
            ball.update(g.adjacency[u])
        edges.extend((x, y) for y in range(x + 1, g.n) if y not in ball)
    return graph_from_edges(g.n, edges)



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
    return Graph(n=v, adjacency=adjacency)


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
    count = 0
    for comp in components(graph):
        if len(comp) != 2 * w:
            continue
        if any(len(graph.adjacency[x]) != w for x in comp):
            continue
        if _bipartite(graph.adjacency, comp):
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
    dgraph = Graph(n=v, adjacency=adjacency)
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
        raise SplitMismatch(f"w(w-1) = {num} not divisible by k-1 = {k - 1}")
    e = r - num // (k - 1)
    girth_ge5 = dreport.girth is None or dreport.girth >= 5
    if girth_ge5:
        expected_opp = v * num // (k * (k - 1))
        expected_non = e * v // k
        if b_opp != expected_opp or b_non_opp != expected_non:
            raise SplitMismatch(
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
    ForbiddenOverlap.
    """
    k = geom.params.k
    dgraph = deficiency_graph(geom)
    sets = [set(a) for a in dgraph.adjacency]
    profile: Counter = Counter()
    for x in range(geom.v):
        for y in range(x + 1, geom.v):
            u = len(sets[x] & sets[y])
            if 2 <= u <= k - 1 or k + 1 <= u <= k * k - k:
                raise ForbiddenOverlap((x, y), u)
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
    dgraph = Graph(n=v, adjacency=adjacency)
    egraph = distance3_graph(dgraph)
    opposite = _opposite_lines_of(geom, neighbour_sets)

    bound = r * (k - 1) - w * (w - 1)
    degrees = [len(egraph.adjacency[x]) for x in range(v)]
    min_degree = min(degrees)
    if min_degree < bound:
        x = degrees.index(min_degree)
        raise DegreeBoundViolated(f"point {x}: degree {min_degree} < bound {bound}")
    dgirth = girth(dgraph)
    tight = all(d == bound for d in degrees)
    if (dgirth is None or dgirth >= 5) and not tight:
        x = next(i for i, d in enumerate(degrees) if d != bound)
        raise DegreeBoundViolated(
            f"girth >= 5 but point {x} has degree {degrees[x]} != bound {bound}"
        )

    by_point = _lines_by_point(geom)
    blade_counts = []
    esets = [set(a) for a in egraph.adjacency]
    for x in range(v):
        blades = [ln for ln in by_point[x] if ln not in opposite]
        seen: set[int] = set()
        for ln in blades:
            rest = [q for q in ln if q != x]
            for i, a in enumerate(rest):
                if a in seen:
                    raise PartitionFailed(f"point {x}: {a} in two blades")
                seen.add(a)
                if a not in esets[x]:
                    raise PartitionFailed(f"point {x}: {a} not a distance->=3 neighbour")
                for b in rest[i + 1 :]:
                    if b not in esets[a]:
                        raise PartitionFailed(f"point {x}: blade {ln} is not a clique")
        if seen != esets[x]:
            missing = sorted(esets[x] - seen)[:3]
            raise PartitionFailed(f"point {x}: neighbours {missing} not covered by blades")
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
        raise ParameterDomain(f"bad S(2,{s.k},{s.w})")
    seen: dict[tuple[int, int], Line] = {}
    for blk in sorted(s.blocks):
        if len(blk) != s.k or any(not 0 <= x < s.w for x in blk):
            raise ParameterDomain(f"bad block {blk}")
        for i in range(s.k):
            for j in range(i + 1, s.k):
                pair = (blk[i], blk[j])
                if pair in seen:
                    raise PairDoubled(pair, seen[pair], blk)
                seen[pair] = blk
    for x in range(s.w):
        for y in range(x + 1, s.w):
            if (x, y) not in seen:
                raise PairMissing((x, y))


def verify_gdd(d: Gdd) -> None:
    """Exhaustive cross-pair check; raises on the first defect found."""
    n = d.n
    group_of = {}
    for gi, grp in enumerate(d.groups):
        for x in grp:
            if x in group_of:
                raise ParameterDomain(f"point {x} in two groups")
            group_of[x] = gi
    if sorted(group_of) != list(range(n)):
        raise ParameterDomain("groups do not partition 0..n-1")
    seen: dict[tuple[int, int], Line] = {}
    for blk in sorted(d.blocks):
        if len(blk) != d.k or any(x not in group_of for x in blk):
            raise ParameterDomain(f"bad block {blk}")
        for i in range(d.k):
            for j in range(i + 1, d.k):
                pair = (blk[i], blk[j])
                if group_of[pair[0]] == group_of[pair[1]]:
                    raise GroupPairCovered(pair, blk)
                if pair in seen:
                    raise PairDoubled(pair, seen[pair], blk)
                seen[pair] = blk
    for x in range(n):
        for y in range(x + 1, n):
            if group_of[x] != group_of[y] and (x, y) not in seen:
                raise PairMissing((x, y))
