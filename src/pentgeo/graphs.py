"""Simple undirected graphs: girth, named families, inflation, distance-3.

Deficiency graphs of pentagonal geometries are what these functions exist
for, but nothing here knows about geometries.  Every invariant reads a
Graph's neighbourhood bit masks (Python ints, bit y of masks[x] set when xy
is an edge) directly, so pentgeo.pent hands a geometry's deficiency masks
over as a Graph without conversion.  Graphs are immutable; girth returns
None for acyclic graphs rather than a sentinel number.

Step rule: a Graph is (n, reps), the masks of the points 0..step-1, where
step = len(reps) divides n.  Every other point x takes the mask of its
representative x % step rotated by x - x % step (mod n), so x -> x + step is
an automorphism by construction, and girth, report's degrees,
distance3_graph and neighborhood_intersection_profile work on the
representatives only.  At step = n every point is its own representative
and masks is reps itself.  Equality and hashing read n and masks, never the
step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator

from .errors import UsageError

MAX_VERTICES = 1 << 14


@dataclass(frozen=True)
class Graph:
    """A simple graph on 0..n-1: bit y of masks[x] is set when xy is an edge.

    It is made from reps, the masks of 0..step-1, by the step rule of the
    module docstring.  The masks take up to n*n/8 bytes, 32 MiB at
    n = MAX_VERTICES = 2^14; graph_from_edges and inflate refuse more
    vertices than that, before allocating.  Deficiency graphs from
    pentgeo.pent are bounded by the geometry instead.
    """

    n: int
    reps: tuple[int, ...] = field(compare=False, repr=False)
    masks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, reps = self.n, tuple(self.reps)
        step, full = len(reps), (1 << n) - 1
        if step != n and (not 0 < step < n or n % step):
            raise UsageError(f"step = {step} does not divide n = {n}")
        masks = reps if step == n else tuple(
            (m << t | m >> n - t) & full for t in range(0, n, step) for m in reps
        )
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "masks", masks)

    @property
    def step(self) -> int:
        return len(self.reps)

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in ascending order."""
        return [(u, u + 1 + v) for u, m in enumerate(self.masks) for v in bits(m >> u + 1)]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2


def _check_order(n: int) -> None:
    if n < 0:
        raise UsageError(f"n = {n} < 0")
    if n > MAX_VERTICES:
        raise UsageError(f"n = {n} > {MAX_VERTICES} vertices")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    _check_order(n)
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise UsageError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise UsageError(f"loop at {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, masks)


@dataclass(frozen=True)
class GraphReport:
    """Degree/girth/connectivity summary.  regular_degree is None when the
    graph is irregular; girth is None when it is acyclic."""

    n: int
    regular_degree: int | None
    girth: int | None
    connected: bool
    component_sizes: tuple[int, ...]


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


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for an acyclic graph.

    With reach the union of the neighbourhoods of x's neighbours, there is a
    triangle through x when reach meets adj[x], and a 4-cycle through x when
    those neighbourhoods overlap outside x, i.e. |reach| - 1 is less than
    the sum of their sizes less one each.  Only when neither occurs anywhere
    does a BFS run, and it stops at the first 5-cycle.  An automorphism maps
    each cycle to one of the same length through the image points, so only
    the representatives are looked at.
    """
    adj = g.masks
    four = False
    # Masks are read by comprehension here and below: a tuple's __getitem__
    # passed to map() is about twice as slow.
    for nx in g.reps:
        around = [adj[y] for y in bits(nx)]
        reach = reduce(or_, around, 0)
        if reach & nx:
            return 3
        if not four and around:
            four = reach.bit_count() - 1 < sum(map(int.bit_count, around)) - len(around)
    if four:
        return 4
    return _bfs_girth(adj, g.step)


def _bfs_girth(adj: tuple[int, ...], sources: int) -> int | None:
    """Shortest cycle of a graph with no cycle shorter than 5, searched from
    the first `sources` vertices, which must meet every automorphism orbit.

    From each source s, layer d closes a cycle of length at most 2d when one
    of its vertices has two neighbours in layer d-1, and of length at most
    2d+1 when two of its vertices are adjacent.  The minimum over all s of
    the first such closure is the girth; a 5-cycle ends the search.
    """
    best: int | None = None
    for s in range(sources):
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
            prev, layer = layer, reduce(or_, [adj[u] for u in members]) & ~seen
            seen |= layer
            d += 1
        if best == 5:
            break
    return best


def components(g: Graph) -> list[list[int]]:
    """Vertices of each component, ascending, ordered by their smallest vertex."""
    adj = g.masks
    rest = (1 << g.n) - 1
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            frontier = reduce(or_, [adj[y] for y in bits(frontier)]) & ~comp
            comp |= frontier
        out.append(bits(comp))
        rest &= ~comp
    return out


def report(g: Graph) -> GraphReport:
    degrees = set(map(int.bit_count, g.reps))  # a point has its representative's degree
    comps = components(g)
    return GraphReport(
        n=g.n,
        regular_degree=degrees.pop() if len(degrees) == 1 else None,
        girth=girth(g),
        connected=len(comps) <= 1,
        component_sizes=tuple(sorted(map(len, comps))),
    )


def generalized_petersen(n: int) -> Graph:
    """GP(n,2): outer n-cycle, spokes, inner vertices joined at step 2."""
    if n < 5:
        raise UsageError(f"n = {n} < 5")
    # A generator: graph_from_edges refuses too large an n before any edge is made.
    edges = (
        e for i in range(n) for e in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + 2) % n))
    )
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
        raise UsageError(f"modulus = {modulus} < 1")
    if step < 1 or modulus % step != 0:
        raise UsageError(f"step = {step} does not divide modulus = {modulus}")
    # Made a graph first, each base edge is checked before it is moved.
    base = graph_from_edges(modulus, base_edges).edges()
    shifts = range(0, modulus, step)
    g = graph_from_edges(
        modulus, (((u + t) % modulus, (v + t) % modulus) for u, v in base for t in shifts)
    )
    return Graph(modulus, g.masks[:step])


def inflate(g: Graph, h: int) -> Graph:
    """Replace each vertex p by h copies hp..hp+h-1 and each edge by K_{h,h}.

    inflate(g, 1) returns a graph equal to g.  For h >= 2 any edge yields a
    4-cycle, so the result has girth 4.  x -> x + step lifts to
    x -> x + h*step on the copies, so only the representatives are spread.
    """
    if h < 1:
        raise UsageError(f"h = {h} < 1")
    _check_order(h * g.n)
    block = (1 << h) - 1
    masks = []
    for m in g.reps:
        spread = 0
        for y in bits(m):
            spread |= block << h * y
        masks.extend([spread] * h)
    return Graph(h * g.n, masks)


def shift_automorphisms(g: Graph) -> tuple[int, ...]:
    """Shifts s for which x -> x + s (mod n) preserves adjacency: the mask
    of x, rotated by s, is the mask of x + s.

    Graphs developed from base edges by a step admit their step; most other
    vertex numberings admit none.
    """
    return tuple(s for s in range(1, g.n) if _preserves(g.masks, s, g.n))


def _preserves(masks: tuple[int, ...], s: int, n: int) -> bool:
    """Whether the mask of each x, rotated by s (mod n), is the mask of x + s."""
    full = (1 << n) - 1
    return all((m << s | m >> n - s) & full == masks[(x + s) % n] for x, m in enumerate(masks))


def distance3_graph(g: Graph) -> Graph:
    """Join x and y when their distance in g is at least 3.

    Vertices in different components are at infinite distance, hence joined.
    The result keeps the step of g.
    """
    adj = g.masks
    full = (1 << g.n) - 1
    far = [
        full & ~reduce(or_, [adj[y] for y in bits(nx)], nx | 1 << x)
        for x, nx in enumerate(g.reps)
    ]
    return Graph(g.n, far)


def neighborhood_intersection_profile(g: Graph) -> Counter:
    """Multiset of |N(x) & N(y)| over unordered vertex pairs.

    Counted from every vertex, each pair is met twice, and the n/step
    vertices of an orbit meet the same sizes as their representative x.  x
    meets the representatives below it as they meet x, so each
    representative is paired once with the vertices above it, and pairs of
    two representatives weigh double.  Without a symmetry that is the plain
    count over pairs x < y.

    The sizes come bit-sliced: y is in N(z) just when z is in N(y), so
    adding the masks of the z in N(x) into a vertical binary counter leaves
    |N(x) & N(y)| in bit y of its planes, plane j holding bit j of the
    count.  Splitting the vertices above x by each plane in turn gives the
    set of those meeting x in each size, and one popcount below the step
    and one in all weighs it.  That costs deg(x) additions of
    log2(deg(x)) + 1 planes per representative, not one AND per vertex.
    """
    adj, n, step = g.masks, g.n, g.step
    low = (1 << step) - 1
    weighted: Counter = Counter()
    for x, nx in enumerate(g.reps):
        planes: list[int] = []
        for z in bits(nx):
            carry = adj[z]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        above = (1 << n) - (2 << x)
        sizes = {0: above} if above else {}  # the vertices above x, each of size 0 so far
        for j, plane in enumerate(planes):
            split = {}
            for u, ys in sizes.items():
                if ys & ~plane:
                    split[u] = ys & ~plane
                if ys & plane:
                    split[u | 1 << j] = ys & plane
            sizes = split
        for u, ys in sizes.items():
            weighted[u] += (ys & low).bit_count() + ys.bit_count()
    return Counter({u: t * n // step // 2 for u, t in weighted.items()})


def data_lines(text: str) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The integers on each data line of a text file, with its 1-based line
    number; blank lines and lines starting with '#' are skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values = tuple(int(tok) for tok in stripped.split())
        except ValueError:
            raise UsageError(f"line {line_no}: non-integer token in {stripped!r}")
        yield line_no, values


def parse_graph_file(text: str) -> Graph:
    """Text format: first data line is the vertex count, then one 'u v' edge
    per line.  '#' comments and blank lines are ignored."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for line_no, values in data_lines(text):
        if n is None:
            if len(values) != 1:
                raise UsageError(f"line {line_no}: first data line must be the vertex count")
            n = values[0]
        elif len(values) == 2:
            edges.append((values[0], values[1]))
        else:
            raise UsageError(f"line {line_no}: edge lines must be 'u v'")
    if n is None:
        raise UsageError("empty graph file")
    return graph_from_edges(n, edges)


def write_graph_file(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend("%d %d" % (u, v) for u, v in g.edges())
    return "\n".join(lines) + "\n"
