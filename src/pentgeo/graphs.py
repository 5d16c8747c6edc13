"""Simple undirected graphs: girth, named families, inflation, distance-3.

Deficiency graphs of pentagonal geometries are what these functions exist
for, but nothing here knows about geometries.  Graphs are immutable; girth
returns None for acyclic graphs rather than a sentinel number.

The invariants run on neighbourhood bit masks (Python ints, bit y set when
y is a neighbour): the mask_* functions take the masks directly, so
pentgeo.pent passes a geometry's deficiency masks without building a Graph,
and girth, components, report and the intersection profile convert a Graph
with adjacency_masks first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Sequence

from .errors import ParameterDomain, PentSyntaxError, PointOutOfRange, StepNotDividingV


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n < 0:
        raise ParameterDomain(f"n = {n} < 0")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterDomain(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise ParameterDomain(f"loop at {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


@dataclass(frozen=True)
class GraphReport:
    """Degree/girth/connectivity summary.  regular_degree is None when the
    graph is irregular; girth is None when it is acyclic."""

    n: int
    regular_degree: int | None
    girth: int | None
    connected: bool
    component_sizes: tuple[int, ...]


def adjacency_masks(g: Graph) -> list[int]:
    """Neighbourhoods as bit masks: bit y of masks[x] is set when xy is an edge."""
    out = []
    for nbrs in g.adjacency:
        m = 0
        for y in nbrs:
            m |= 1 << y
        out.append(m)
    return out


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bits(m: int) -> list[int]:
    """Positions of the set bits of m >= 0, ascending."""
    # A dense mask is read from its binary digits in one C-level pass; a
    # sparse one bit by bit, at a cost that grows with its set bits only.
    if 8 * m.bit_count() > m.bit_length():
        digits = bin(m)[:1:-1].encode().translate(_BINARY_DIGITS)
        return list(compress(range(len(digits)), digits))
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def mask_girth(adj: Sequence[int]) -> int | None:
    """Girth of the graph with neighbourhood masks adj; None when acyclic.

    With reach the union of the neighbourhoods of x's neighbours, there is a
    triangle through x when reach meets adj[x], and a 4-cycle through x when
    those neighbourhoods overlap outside x, i.e. |reach| - 1 is less than
    the sum of their sizes less one each.  Only when neither occurs anywhere
    does a BFS run, and it stops at the first 5-cycle.
    """
    four = False
    for x, nx in enumerate(adj):
        around = list(map(adj.__getitem__, bits(nx)))
        reach = reduce(or_, around, 0)
        if reach & nx:
            return 3
        if not four and around:
            four = reach.bit_count() - 1 < sum(map(int.bit_count, around)) - len(around)
    if four:
        return 4
    return _bfs_girth(adj)


def _bfs_girth(adj: Sequence[int]) -> int | None:
    """Shortest cycle of a graph with no cycle shorter than 5.

    From each source s, layer d closes a cycle of length at most 2d when one
    of its vertices has two neighbours in layer d-1, and of length at most
    2d+1 when two of its vertices are adjacent.  The minimum over all s of
    the first such closure is the girth; a 5-cycle ends the search.
    """
    best: int | None = None
    for s in range(len(adj)):
        prev = 1 << s
        layer = adj[s]
        seen = prev | layer
        d = 1
        while layer and (best is None or 2 * d < best):
            members = bits(layer)
            if any((adj[u] & prev).bit_count() > 1 for u in members):
                best = 2 * d
                break
            if (best is None or 2 * d + 1 < best) and any(adj[u] & layer for u in members):
                best = 2 * d + 1
                break
            prev, layer = layer, reduce(or_, map(adj.__getitem__, members)) & ~seen
            seen |= layer
            d += 1
        if best == 5:
            break
    return best


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for an acyclic graph."""
    return mask_girth(adjacency_masks(g))


def mask_components(adj: Sequence[int]) -> list[int]:
    """Component masks, ordered by their smallest vertex."""
    rest = (1 << len(adj)) - 1
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            frontier = reduce(or_, map(adj.__getitem__, bits(frontier))) & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def components(g: Graph) -> list[list[int]]:
    return [bits(c) for c in mask_components(adjacency_masks(g))]


def mask_report(adj: Sequence[int]) -> GraphReport:
    degrees = {m.bit_count() for m in adj}
    comps = mask_components(adj)
    return GraphReport(
        n=len(adj),
        regular_degree=degrees.pop() if len(degrees) == 1 else None,
        girth=mask_girth(adj),
        connected=len(comps) <= 1,
        component_sizes=tuple(sorted(c.bit_count() for c in comps)),
    )


def report(g: Graph) -> GraphReport:
    return mask_report(adjacency_masks(g))


def generalized_petersen(n: int) -> Graph:
    """GP(n,2): outer n-cycle, spokes, inner vertices joined at step 2."""
    if n < 5:
        raise ParameterDomain(f"n = {n} < 5")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + 2) % n))
    return graph_from_edges(2 * n, edges)


def petersen() -> Graph:
    return generalized_petersen(5)


def hoffman_singleton() -> Graph:
    """The unique (7,5)-cage on 50 vertices.

    Five pentagons P_h and five pentagrams Q_i; vertex j of P_h is joined to
    vertex (h*i + j) mod 5 of Q_i.  Pentagon vertices are numbered 5h+j,
    pentagram vertices 25+5i+j.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return graph_from_edges(50, edges)


def orbit_graph(base_edges: Iterable[tuple[int, int]], step: int, modulus: int) -> Graph:
    """Close base edges under x -> x+step (mod modulus)."""
    if modulus < 1:
        raise ParameterDomain(f"modulus = {modulus} < 1")
    if step < 1 or modulus % step != 0:
        raise StepNotDividingV(f"step = {step} does not divide modulus = {modulus}")
    edges: set[tuple[int, int]] = set()
    for u, v in base_edges:
        if not (0 <= u < modulus and 0 <= v < modulus):
            raise PointOutOfRange(f"edge ({u},{v}) outside 0..{modulus - 1}")
        if u == v:
            raise ParameterDomain(f"loop at {u}")
        a, b = u, v
        while True:
            edges.add((a, b) if a < b else (b, a))
            a, b = (a + step) % modulus, (b + step) % modulus
            if {a, b} == {u, v}:
                break
    return graph_from_edges(modulus, edges)


def inflate(g: Graph, h: int) -> Graph:
    """Replace each vertex p by h copies hp..hp+h-1 and each edge by K_{h,h}.

    inflate(g, 1) returns g itself.  For h >= 2 any edge yields a 4-cycle, so
    the result has girth 4.
    """
    if h < 1:
        raise ParameterDomain(f"h = {h} < 1")
    edges = []
    for u, v in g.edges():
        for s in range(h):
            for t in range(h):
                edges.append((h * u + s, h * v + t))
    return graph_from_edges(h * g.n, edges)


def shift_automorphisms(g: Graph) -> tuple[int, ...]:
    """Shifts s for which x -> x + s (mod n) preserves adjacency.

    Graphs developed from base edges by a step admit their step; most other
    vertex numberings admit none.
    """
    edges = {frozenset(e) for e in g.edges()}
    found = []
    for s in range(1, g.n):
        if all(frozenset(((a + s) % g.n, (b + s) % g.n)) in edges for a, b in g.edges()):
            found.append(s)
    return tuple(found)


def distance3_masks(adj: Sequence[int]) -> list[int]:
    """Per vertex, the vertices at distance at least 3 (or unreachable)."""
    full = (1 << len(adj)) - 1
    return [
        full & ~reduce(or_, map(adj.__getitem__, bits(nx)), nx | 1 << x)
        for x, nx in enumerate(adj)
    ]


def distance3_graph(g: Graph) -> Graph:
    """Join x and y when their distance in g is at least 3.

    Vertices in different components are at infinite distance, hence joined.
    """
    far = distance3_masks(adjacency_masks(g))
    return Graph(n=g.n, adjacency=tuple(tuple(bits(m)) for m in far))


def intersection_profile(adj: Sequence[int]) -> Counter:
    """Multiset of |adj[x] & adj[y]| over unordered pairs x < y."""
    profile: Counter = Counter()
    for x, nx in enumerate(adj):
        profile.update(map(int.bit_count, map(nx.__and__, adj[x + 1 :])))
    return profile


def neighborhood_intersection_profile(g: Graph) -> Counter:
    """Multiset of |N(x) & N(y)| over unordered vertex pairs."""
    return intersection_profile(adjacency_masks(g))


def parse_graph_file(text: str) -> Graph:
    """Text format: first data line is the vertex count, then one 'u v' edge
    per line.  '#' comments and blank lines are ignored."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in stripped.split()]
        except ValueError:
            raise PentSyntaxError(f"non-integer token in {stripped!r}", line_no)
        if n is None:
            if len(values) != 1:
                raise PentSyntaxError("first data line must be the vertex count", line_no)
            n = values[0]
        elif len(values) == 2:
            edges.append((values[0], values[1]))
        else:
            raise PentSyntaxError("edge lines must be 'u v'", line_no)
    if n is None:
        raise PentSyntaxError("empty graph file")
    return graph_from_edges(n, edges)


def write_graph_file(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend("%d %d" % (u, v) for u, v in g.edges())
    return "\n".join(lines) + "\n"
