"""Graph utilities checked against networkx and hand-derived facts."""

import hashlib
import math
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentgeo.errors import UsageError
from pentgeo.graphs import (
    MAX_VERTICES,
    Graph,
    bits,
    components,
    distance3_graph,
    generalized_petersen,
    girth,
    graph_from_edges,
    hoffman_singleton,
    inflate,
    neighborhood_intersection_profile,
    orbit_graph,
    parse_graph_file,
    petersen,
    report,
    shift_automorphisms,
    write_graph_file,
)

ORBIT_BASE = ((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3))


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def nx_girth(g: Graph):
    value = nx.girth(to_nx(g))
    return None if value == math.inf else value


def ring(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_petersen_report():
    rep = report(petersen())
    assert (rep.n, rep.regular_degree, rep.girth, rep.connected) == (10, 3, 5, True)
    assert rep.component_sizes == (10,)


def test_petersen_matches_networkx():
    assert nx.is_isomorphic(to_nx(petersen()), nx.petersen_graph())


def test_generalized_petersen():
    g = generalized_petersen(15)
    rep = report(g)
    assert (rep.n, rep.regular_degree, rep.connected) == (30, 3, True)
    assert rep.girth == nx_girth(g) == 5


def test_gp5_is_petersen():
    assert nx.is_isomorphic(to_nx(generalized_petersen(5)), nx.petersen_graph())


def test_gp10_is_dodecahedron():
    assert nx.is_isomorphic(to_nx(generalized_petersen(10)), nx.dodecahedral_graph())


def test_gp_rejects_small_n():
    with pytest.raises(UsageError, match=r"^n = 4 < 5$"):
        generalized_petersen(4)


def test_hoffman_singleton_is_the_moore_graph():
    g = hoffman_singleton()
    rep = report(g)
    assert (rep.n, rep.regular_degree, rep.girth, rep.connected) == (50, 7, 5, True)
    assert g.edge_count() == 175
    # strongly regular (50,7,0,1); that signature determines the graph
    assert neighborhood_intersection_profile(g) == {0: 175, 1: 1050}


def test_orbit_graph_example():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    rep = report(g)
    assert g.edge_count() == 30
    assert (rep.n, rep.regular_degree, rep.connected) == (20, 3, True)
    assert rep.girth == nx_girth(g) == 5


def test_orbit_graph_single_edge():
    g = orbit_graph([(0, 1)], 20, 20)
    assert g.edge_count() == 1


def test_orbit_graph_rotation_invariance():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    rotated = [((a + 4) % 20, (b + 4) % 20) for a, b in ORBIT_BASE]
    assert orbit_graph(rotated, 4, 20).masks == g.masks


def test_orbit_graph_errors():
    with pytest.raises(UsageError, match=r"^edge \(0,25\) outside 0\.\.19$"):
        orbit_graph([(0, 25)], 4, 20)
    with pytest.raises(UsageError, match=r"^step = 3 does not divide modulus = 20$"):
        orbit_graph([(0, 1)], 3, 20)


def test_inflate_petersen():
    g = inflate(petersen(), 3)
    rep = report(g)
    assert (rep.n, rep.regular_degree, rep.girth, rep.connected) == (30, 9, 4, True)
    profile = neighborhood_intersection_profile(g)
    assert set(profile) <= {0, 3, 9}


def test_inflate_identity():
    assert inflate(petersen(), 1).masks == petersen().masks


def test_inflate_keeps_components():
    two = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    blown = inflate(two, 2)
    assert sorted(len(c) for c in components(blown)) == [6, 6]


def test_distance3_ring():
    d3 = distance3_graph(ring(6))
    assert {tuple(sorted(e)) for e in d3.edges()} == {(0, 3), (1, 4), (2, 5)}


def test_distance3_petersen_empty():
    # diameter 2: no pair is 3 apart
    assert distance3_graph(petersen()).edge_count() == 0


def test_girth_values():
    assert girth(ring(4)) == 4
    assert girth(ring(6)) == 6
    assert girth(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None
    assert girth(graph_from_edges(1, [])) is None


def test_components_disconnected():
    g = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    rep = report(g)
    assert not rep.connected
    assert rep.component_sizes == (5, 5)


def test_report_irregular():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert report(g).regular_degree is None


def test_random_graphs_match_networkx():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 14)
        edges = [
            (x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.25
        ]
        g = graph_from_edges(n, edges)
        h = to_nx(g)
        assert girth(g) == nx_girth(g)
        assert sorted(len(c) for c in components(g)) == sorted(
            len(c) for c in nx.connected_components(h)
        )
        assert report(g).connected == nx.is_connected(h)


def test_shift_automorphisms_orbit_seed():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    assert set(shift_automorphisms(g)) >= {4, 8, 12, 16}


def test_shift_automorphisms_ring():
    assert shift_automorphisms(ring(6)) == (1, 2, 3, 4, 5)


def test_shift_automorphisms_petersen_numbering():
    # outer/inner numbering is not preserved by any rotation
    assert shift_automorphisms(petersen()) == ()


def test_shift_automorphisms_are_automorphisms():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    edges = {frozenset(e) for e in g.edges()}
    for s in shift_automorphisms(g):
        shifted = {frozenset(((a + s) % g.n, (b + s) % g.n)) for a, b in edges}
        assert shifted == edges


def test_graph_file_round_trip():
    g = generalized_petersen(7)
    again = parse_graph_file(write_graph_file(g))
    assert again.n == g.n
    assert again.masks == g.masks


# sha256 of write_graph_file's output as it was when Graph kept adjacency
# tuples; the text pentctl graph prints must not move.
WRITER_DIGESTS = {
    "hoffman_singleton": (
        hoffman_singleton,
        "c8b509ebeabad2f1f0da143efde0e60cd0a5d1c1a8144636f66a9a979559ea87",
    ),
    "gp7": (
        lambda: generalized_petersen(7),
        "a59d9224df75a062f312a62453eae2168b3f5ae7de002fdd69ce7a3ec2b89652",
    ),
    "orbit": (
        lambda: orbit_graph(ORBIT_BASE, 4, 20),
        "c3fe62f5ddef24b1c0d9e7c3e8a1f78e6bba4791020bd2a120ad82978992c86a",
    ),
    "orbit_inflated_3": (
        lambda: inflate(orbit_graph(ORBIT_BASE, 4, 20), 3),
        "98f547716ea994e0ebd07eaaca0803092c49a9b11b7917a6043eba175a4de8a0",
    ),
}


@pytest.mark.parametrize("name", WRITER_DIGESTS)
def test_graph_file_output_is_pinned(name):
    build, digest = WRITER_DIGESTS[name]
    assert hashlib.sha256(write_graph_file(build()).encode()).hexdigest() == digest


def test_vertex_limit_is_accepted():
    g = graph_from_edges(MAX_VERTICES, [])
    assert (g.n, g.edge_count()) == (MAX_VERTICES, 0)


OVER_VERTEX_LIMIT = {
    "file_with_one_edge": lambda: report(parse_graph_file("100000\n0 99999\n")),
    "file_without_edges": lambda: parse_graph_file("1000000\n"),
    "orbit": lambda: orbit_graph([(0, 1)], 1, 1 << 20),
}


@pytest.mark.parametrize("name", OVER_VERTEX_LIMIT)
def test_over_vertex_limit_refused_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=rf"^n = \d+ > {MAX_VERTICES} vertices$"):
            OVER_VERTEX_LIMIT[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inflate_over_vertex_limit_refused():
    with pytest.raises(UsageError, match=r"^n = 16386 > 16384 vertices$"):
        inflate(graph_from_edges(MAX_VERTICES // 2 + 1, []), 2)


def test_graph_file_errors():
    with pytest.raises(UsageError, match=r"^empty graph file$"):
        parse_graph_file("")
    with pytest.raises(UsageError, match=r"^line 1: non-integer token in 'abc'$"):
        parse_graph_file("abc\n0 1\n")
    with pytest.raises(UsageError, match=r"^line 2: edge lines must be 'u v'$"):
        parse_graph_file("4\n0 1 2\n")
    with pytest.raises(UsageError, match=r"^edge \(0,9\) outside 0\.\.3$"):
        parse_graph_file("4\n0 9\n")


def sparse_masks():
    return st.sets(st.integers(0, 700), max_size=40).map(lambda ps: sum(1 << p for p in ps))


def boundary_masks():
    # 8 * popcount == bit_length: the densest mask bits() still reads bit by bit.
    def build(n):
        top = 8 * n - 1
        rest = st.sets(st.integers(0, top - 1), min_size=n - 1, max_size=n - 1)
        return rest.map(lambda ps: sum(1 << p for p in ps) | 1 << top)

    return st.integers(1, 60).flatmap(build)


@given(st.one_of(st.integers(0, 2**700), sparse_masks(), boundary_masks()))
@example(0)
@example(1)
@example(1 << 7)  # on the boundary, 8 == 8: read bit by bit
@example(0b11 << 14)  # on the boundary, 16 == 16
@example(1 << 8)  # below it, 8 < 9: read bit by bit
@example(0b11 << 13)  # above it, 16 > 15: read from the binary digits
def test_bits_lists_set_positions_ascending(m):
    assert bits(m) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_graph_from_edges_dedupes():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


# --- the step: a cyclic automorphism carried by the graph ---------------------


def test_step_defaults_to_n_and_is_ignored_by_equality():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    plain = Graph(g.n, g.masks)
    assert (g.step, plain.step) == (4, 20)
    assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)


def test_step_carried_through_inflate_and_distance3():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    assert inflate(g, 3).step == 12
    assert distance3_graph(g).step == 4
    assert distance3_graph(inflate(g, 3)).step == 12
    assert orbit_graph(ORBIT_BASE, 20, 20).step == 20


def test_graph_refuses_a_step_not_dividing_n():
    """The step is len(reps); one that does not divide n is refused, and for
    each divisor s of n the masks of 0..s-1 of the ring rebuild the ring."""
    for step in (0, 3, 4, 11):
        with pytest.raises(UsageError, match=rf"^step = {step} does not divide n = 10$"):
            Graph(10, [0] * step)
    c20 = ring(20)
    assert [Graph(20, c20.masks[:s]).step for s in (1, 10, 20)] == [1, 10, 20]
    assert all(Graph(20, c20.masks[:s]) == c20 for s in (1, 2, 4, 5, 10))


def test_graph_masks_are_its_reps_at_step_n():
    g = orbit_graph(ORBIT_BASE, 4, 20)
    assert g.reps == g.masks[:4]
    plain = Graph(20, g.masks)
    assert plain.masks is plain.reps and plain.step == 20


def invariants(g: Graph) -> tuple:
    """What the graph functions compute from g."""
    return (
        girth(g),
        components(g),
        distance3_graph(g),
        neighborhood_intersection_profile(g),
        inflate(g, 2),
    )


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.sampled_from([6, 8, 12, 15, 18, 20]),
    data=st.data(),
)
def test_orbit_graph_from_random_base_edges_at_every_step(modulus, data):
    """An orbit graph remade from the masks of 0..s-1, for each shift s in
    shift_automorphisms that divides n, is the same graph, and every graph
    function reads the same from it as at step n."""
    step = data.draw(st.sampled_from([s for s in range(1, modulus + 1) if modulus % s == 0]))
    pairs = st.tuples(st.integers(0, modulus - 1), st.integers(0, modulus - 1))
    base = data.draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=5))
    g = orbit_graph(base, step, modulus)
    plain = Graph(modulus, g.masks)
    assert plain.step == modulus and g == plain
    expected = invariants(plain)
    assert invariants(g) == expected
    divisors = [s for s in shift_automorphisms(g) if modulus % s == 0]
    assert step == modulus or step in divisors
    for s in divisors:
        at_s = Graph(modulus, g.masks[:s])
        assert at_s == g and at_s.step == s
        assert invariants(at_s) == expected
        assert distance3_graph(at_s).step == s and inflate(at_s, 2).step == 2 * s
