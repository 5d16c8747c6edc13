"""The bitset kernel against the set-based reference oracle in tests/oracle.py.

verify, line_split, overlap_profile and dist3_analysis must agree with the
oracle on every fixture, on constructed geometries of every deficiency type,
on line mutations of the fixtures and on developed mutations of their base
blocks, down to witness strings and the message of any exception.  The mask
graph routines must agree with BFS and with the edge-list inflate and
shift_automorphisms.
"""

import dataclasses
import random
from functools import cache

import oracle
import pytest
from conftest import FIXTURE_FACTS, FIXTURE_NAMES, fixture_text
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo import (
    BaseBlockFile,
    classify,
    deficiency_graph,
    derive_params,
    develop,
    geometry,
    line_split,
    parse_pent_file,
    verify,
)
from pentgeo.construct import GddFillPlan, gdd_fill, make_degenerate
from pentgeo.designs import uniform_gdd
from pentgeo.graphs import (
    Graph,
    components,
    distance3_graph,
    generalized_petersen,
    girth,
    graph_from_edges,
    hoffman_singleton,
    inflate,
    neighborhood_intersection_profile,
    orbit_graph,
    petersen,
    report,
    shift_automorphisms,
)
from pentgeo.pent import _tally, check_axioms, dist3_analysis, overlap_profile

ANALYSES = (
    (verify, oracle.verify),
    (line_split, oracle.line_split),
    (overlap_profile, oracle.overlap_profile),
    (dist3_analysis, oracle.dist3_analysis),
)

# Fixtures small enough for the oracle to run on many mutants.
MUTABLE_NAMES = tuple(name for name, facts in FIXTURE_FACTS.items() if facts[0] <= 154)


def outcome(fn, geom):
    """The result of fn(geom), or the type and message of what it raised."""
    try:
        return fn(geom)
    except Exception as exc:  # the oracle's exceptions are part of its answer
        return (type(exc).__name__, str(exc))


def kernel_outcomes(geom):
    """The outcome of each analysis.  On a developed geometry none of them,
    not even one that raises, builds the full line set."""
    unbuilt = "lines" not in vars(geom)
    outcomes = []
    for kernel, _ in ANALYSES:
        outcomes.append(outcome(kernel, geom))
        assert not unbuilt or "lines" not in vars(geom), kernel.__name__
    return outcomes


def assert_agrees(geom):
    # The kernel runs first, as the oracle builds the full line set.
    for (kernel, reference), got in zip(ANALYSES, kernel_outcomes(geom)):
        assert got == outcome(reference, geom), kernel.__name__


@cache
def fixture_oracle(name):
    """The oracle's outcome of each analysis on a freshly loaded fixture."""
    geom = develop(parse_pent_file(fixture_text(name)))
    return tuple(outcome(reference, geom) for _, reference in ANALYSES)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_matches_oracle(name, geometries):
    geom = geometries[name]
    for (kernel, _), expected in zip(ANALYSES, fixture_oracle(name)):
        assert kernel(geom) == expected, kernel.__name__
    assert deficiency_graph(geom) == oracle.deficiency_graph(geom)


CONSTRUCTED = {
    "degenerate_3_7": (lambda: make_degenerate(3, 7), "F"),
    "degenerate_3_9": (lambda: make_degenerate(3, 9), "F"),
    "degenerate_4_13": (lambda: make_degenerate(4, 13), "F"),
    "gdd_fill_kww": (
        lambda: gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 14), ingredients={14: make_degenerate(3, 7)})),
        "E",
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_matches_oracle(name):
    build, kind = CONSTRUCTED[name]
    geom = build()
    assert verify(geom).geometry_type == kind
    assert_agrees(geom)


# --- line mutations ----------------------------------------------------------


def delete_line(lines, rng, params):
    del lines[rng.randrange(len(lines))]


def move_point(lines, rng, params):
    """Replace one point of a line by a point off it."""
    i = rng.randrange(len(lines))
    line = lines[i]
    q = rng.choice([x for x in range(params.v) if x not in line])
    p = line[rng.randrange(len(line))]
    lines[i] = tuple(q if x == p else x for x in line)


def swap_points(lines, rng, params):
    """Exchange a point of one line with a point of another."""
    i, j = rng.sample(range(len(lines)), 2)
    a, b = lines[i], lines[j]
    only_a = [x for x in a if x not in b]
    only_b = [x for x in b if x not in a]
    p, q = rng.choice(only_a), rng.choice(only_b)
    lines[i] = tuple(q if x == p else x for x in a)
    lines[j] = tuple(p if x == q else x for x in b)


def add_line(lines, rng, params):
    """Add a line of k points inside the deficiency neighbourhood of a point,
    where it covers pairs that lines of the opposite design already cover."""
    x = rng.randrange(params.v)
    nbrs = oracle.neighbours(oracle.deficiency_graph(geometry(params, lines)), x)
    if len(nbrs) >= params.k:
        lines.append(tuple(rng.sample(nbrs, params.k)))


def shrink_line(lines, rng, params):
    """Drop one point from a line."""
    i = rng.randrange(len(lines))
    line = list(lines[i])
    del line[rng.randrange(len(line))]
    lines[i] = tuple(line)


MUTATIONS = (delete_line, move_point, swap_points, add_line, shrink_line)


def mutant(geometries, name, kinds, seed):
    geom = geometries[name]
    lines = geom.lines_sorted()
    rng = random.Random(seed)
    for kind in kinds:
        kind(lines, rng, geom.params)
    return geometry(geom.params, lines)


@settings(max_examples=60)
@given(
    name=st.sampled_from(MUTABLE_NAMES),
    kind=st.sampled_from(MUTATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_mutation_matches_oracle(geometries, name, kind, seed):
    assert_agrees(mutant(geometries, name, [kind], seed))


@settings(max_examples=60)
@given(
    name=st.sampled_from(MUTABLE_NAMES),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_double_mutation_matches_oracle(geometries, name, kinds, seed):
    assert_agrees(mutant(geometries, name, kinds, seed))


# Every fixture, and one mutant of each small fixture, the mutation kinds
# taken in turn.
WARM_CASES = [(name, ()) for name in FIXTURE_NAMES] + [
    (name, (MUTATIONS[i % len(MUTATIONS)],)) for i, name in enumerate(MUTABLE_NAMES)
]


@pytest.mark.parametrize(
    "name, kinds", WARM_CASES, ids=["-".join([n, *(k.__name__ for k in ks)]) for n, ks in WARM_CASES]
)
def test_warm_index_matches_oracle_on_fresh_object(geometries, name, kinds):
    """Every analysis of a geometry whose index earlier calls built and kept
    equals the oracle's on a separately built equal geometry."""
    if kinds:
        geom = mutant(geometries, name, kinds, 0)
        fresh = geometry(geom.params, geom.lines)
        expected = tuple(outcome(reference, fresh) for _, reference in ANALYSES)
    else:
        geom = geometry(geometries[name].params, geometries[name].lines)
        expected = fixture_oracle(name)
    for kernel, _ in ANALYSES:
        outcome(kernel, geom)
    assert "incidence" in vars(geom)
    for (kernel, _), want in zip(ANALYSES, expected):
        assert outcome(kernel, geom) == want, kernel.__name__


# --- graph invariants --------------------------------------------------------


def complete_bipartite(w: int) -> Graph:
    return graph_from_edges(2 * w, [(a, w + b) for a in range(w) for b in range(w)])


def assert_graph_agrees(g):
    assert girth(g) == oracle.girth(g)
    assert report(g) == oracle.report(g)
    assert components(g) == oracle.components(g)
    assert distance3_graph(g) == oracle.distance3_graph(g)
    sets = [set(oracle.neighbours(g, x)) for x in range(g.n)]
    brute = {}
    for x in range(g.n):
        for y in range(x + 1, g.n):
            u = len(sets[x] & sets[y])
            brute[u] = brute.get(u, 0) + 1
    assert neighborhood_intersection_profile(g) == brute
    for h in (1, 2, 3):
        assert inflate(g, h) == oracle.inflate(g, h)
    assert shift_automorphisms(g) == oracle.shift_automorphisms(g)


NAMED_GRAPHS = (
    [petersen(), hoffman_singleton()]
    + [generalized_petersen(n) for n in range(5, 21)]
    + [complete_bipartite(w) for w in range(1, 8)]
    # Degrees 15 and 31 fill four and five bit planes of the overlap
    # profile's counter; 16, 32 and 40 carry into a fifth and a sixth.
    + [complete_bipartite(w) for w in (15, 16, 31, 32, 40)]
)


@pytest.mark.parametrize("index", range(len(NAMED_GRAPHS)))
def test_named_graph_matches_bfs(index):
    assert_graph_agrees(NAMED_GRAPHS[index])


@settings(max_examples=200)
@given(
    n=st.integers(0, 70),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_graph_matches_bfs(n, density, seed):
    """Up to 70 vertices, masks span several 30-bit digits, and dense graphs
    push the overlap profile's counter to six or seven bit planes."""
    rng = random.Random(seed)
    edges = [(x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < density]
    assert_graph_agrees(graph_from_edges(n, edges))


@settings(max_examples=100)
@given(n=st.integers(1, 24), step_index=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_random_orbit_graph_matches_oracle(n, step_index, seed):
    steps = [d for d in range(1, n + 1) if n % d == 0]
    step = steps[step_index % len(steps)]
    rng = random.Random(seed)
    base = [(x, y) for x in range(step) for y in range(x + 1, n) if rng.random() < 0.3]
    g = orbit_graph(base, step, n)
    assert step == n or step in shift_automorphisms(g)
    assert_graph_agrees(g)


# --- base-block mutations ----------------------------------------------------
#
# A developed mutant carries its step d, so every analysis works on the
# representatives 0..d-1 and rotates the rest.  Every fixture here but
# pent_3_3_3 has d < v, and change_step moves d to another divisor of v.


def move_block_point(file, rng):
    """Replace one point of a base block by a point off it."""
    blocks = list(file.blocks)
    i = rng.randrange(len(blocks))
    block = blocks[i]
    q = rng.choice([x for x in range(file.params.v) if x not in block])
    j = rng.randrange(len(block))
    blocks[i] = block[:j] + (q,) + block[j + 1 :]
    return dataclasses.replace(file, blocks=tuple(blocks))


def drop_block(file, rng):
    blocks = list(file.blocks)
    del blocks[rng.randrange(len(blocks))]
    return dataclasses.replace(file, blocks=tuple(blocks))


def add_block(file, rng):
    block = tuple(rng.sample(range(file.params.v), file.k))
    return dataclasses.replace(file, blocks=file.blocks + (block,))


def change_step(file, rng):
    """Develop by another divisor of v."""
    v = file.params.v
    return dataclasses.replace(
        file, d=rng.choice([d for d in range(1, v + 1) if v % d == 0 and d != file.d])
    )


BLOCK_MUTATIONS = (move_block_point, drop_block, add_block, change_step)


@settings(max_examples=60)
@given(
    name=st.sampled_from(MUTABLE_NAMES),
    kinds=st.lists(st.sampled_from(BLOCK_MUTATIONS), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_base_block_mutation_matches_oracle(name, kinds, seed):
    file = parse_pent_file(fixture_text(name))
    rng = random.Random(seed)
    for kind in kinds:
        file = kind(file, rng)
    geom = develop(file)
    assert geom.step == file.d
    assert_agrees(geom)


def develop_by_5(file, rng):
    """Develop by d = 5: pent_7_50_49 then has 34,650 lines and many pairs
    on several of them, so verify walks long lists of lines per pair."""
    return dataclasses.replace(file, d=5)


# The oracle takes one to two seconds per analysis at v = 350 and v = 518, so
# the fixtures past MUTABLE_NAMES get a few pinned mutants only.
LARGE_MUTANTS = (
    ("pent_7_50_49", move_block_point),
    ("pent_7_50_49", develop_by_5),
    ("pent_4_168_13", move_block_point),
    ("pent_4_168_13", drop_block),
)


@pytest.mark.parametrize(
    "name,kind", LARGE_MUTANTS, ids=[f"{n}-{k.__name__}" for n, k in LARGE_MUTANTS]
)
def test_large_base_block_mutation_matches_oracle(name, kind):
    file = kind(parse_pent_file(fixture_text(name)), random.Random(1))
    assert_agrees(develop(file))


def test_doubled_pair_inside_an_opposite_design_matches_oracle(geometries):
    # Swap c for d in a line {a,b,c} of the Fano plane on N(0) of
    # pent_3_47_7.  No line through 0 changes, so N(0) keeps its 7 points
    # and the lines inside it still hold 21 pairs, but {a,d} and {b,d} now
    # lie on two of them and {a,c}, {b,c} on none.  Only the lines sharing
    # a pair show that point 0 fails.
    geom = geometries["pent_3_47_7"]
    n0 = deficiency_graph(geom).masks[0]
    inside = sorted(ln for ln in geom.lines if all(n0 >> p & 1 for p in ln))
    assert len(inside) == 7
    a, b, c = inside[0]
    d = next(p for p in range(geom.v) if n0 >> p & 1 and p not in (a, b, c))
    mutant = geometry(geom.params, geom.lines - {(a, b, c)} | {tuple(sorted((a, b, d)))})
    assert_agrees(mutant)
    witnesses = verify(mutant).axiom("opposite_designs").witnesses
    assert witnesses[0].startswith("point 0: pair ") and "doubled" in witnesses[0]


def test_pair_doubled_by_a_long_line_matches_oracle(pent33):
    # Add to the line (0, 3, 9) of pent_3_3_3 the point 2 of (0, 2, 6).
    # Points 0 and 9 keep 1 + deg(k-1) collinear points, so only the long
    # line shows that (0, 2) and (2, 9) now lie on two lines each.
    lines = pent33.lines - {(0, 3, 9)} | {(0, 2, 3, 9)}
    mutant = geometry(pent33.params, lines)
    assert_agrees(mutant)
    assert verify(mutant).axiom("partial_linear").witnesses == (
        "pair (0, 2) on lines (0, 2, 3, 9) and (0, 2, 6)",
        "pair (2, 9) on lines (0, 2, 3, 9) and (2, 5, 9)",
    )


# --- development by representatives ------------------------------------------
#
# develop keeps the lines through 0..d-1 and counts the rest by orbit weight;
# the oracle walks every translate.  The files below are small and mostly
# invalid, with every divisor d of v, blocks fixed by a multiple of d (short
# orbits), repeated blocks and several blocks from one orbit.

SMALL_SHAPES = tuple(
    (k, r, w)
    for k in (3, 4)
    for r in range(1, 12)
    for w in range(k, 16)
    if (k - 1) * r + w + 1 <= 40 and ((k - 1) * r + w + 1) * r % k == 0
)


@st.composite
def base_block_files(draw):
    k, r, w = draw(st.sampled_from(SMALL_SHAPES))
    v = derive_params(k, r, w).v
    d = draw(st.sampled_from([d for d in range(1, v + 1) if v % d == 0]))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("random", "fixed", "repeated", "same_orbit")))
        # m cosets of the subgroup generated by s = v/m are fixed by x -> x + s.
        cosets = [m for m in range(2, k + 1) if k % m == 0 and v % m == 0 and v // m % d == 0]
        if kind == "fixed" and cosets:
            m = draw(st.sampled_from(cosets))
            s = v // m
            starts = draw(st.sets(st.integers(0, s - 1), min_size=k // m, max_size=k // m))
            blocks.append(tuple(a + j * s for a in starts for j in range(m)))
        elif kind in ("repeated", "same_orbit") and blocks:
            t = 0 if kind == "repeated" else d * draw(st.integers(0, v // d - 1))
            blocks.append(tuple((x + t) % v for x in draw(st.sampled_from(blocks))))
        else:
            points = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
            blocks.append(tuple(draw(points)))
    return BaseBlockFile(k=k, r=r, w=w, d=d, blocks=tuple(blocks))


def tally_over_lines(plain, step):
    """_tally's counts, each taken over every line of plain: inside[ln]
    lists the points x whose deficiency neighbourhood holds ln."""
    nbrs = plain.incidence.deficiency.masks
    inside = {
        ln: [x for x in range(plain.v) if all(nbrs[x] >> p & 1 for p in ln)] for ln in plain.lines
    }
    held = [0] * step
    for ln, xs in inside.items():
        for x in xs:
            if x < step:
                held[x] += len(ln) * (len(ln) - 1) // 2
    return sum(1 for xs in inside.values() if xs), len(inside), held


@settings(max_examples=200)
@given(file=base_block_files())
def test_develop_matches_oracle(file):
    geom = develop(file)
    reference = oracle.develop(file)
    plain = geometry(reference.params, reference.lines)
    reps = list(geom.reps)
    assert sorted(reps) == sorted(ln for ln in reference.lines if ln[0] < file.d)
    # One orbit line per orbit of the oracle's lines, the least of them, and
    # the period d * (orbit length) of each short one.
    v, orbits = file.params.v, {}
    for ln in reference.lines:
        orbit = {tuple(sorted((x + t) % v for x in ln)) for t in range(0, v, file.d)}
        orbits[min(orbit)] = file.d * len(orbit)
    assert len(develop(file).orbits) == len(orbits) and geom.orbits == orbits.keys()
    assert geom.short == {ln: p for ln, p in orbits.items() if p < v}
    assert develop(file).lines_sorted() == sorted(reference.lines)
    assert geom.step == file.d
    for kernel, slow in ((verify, oracle.verify), (line_split, oracle.line_split)):
        assert outcome(kernel, geom) == outcome(slow, plain), kernel.__name__
    assert _tally(geom) == tally_over_lines(plain, file.d)
    assert geom.lines == reference.lines and geom == plain


@pytest.mark.parametrize(
    "file",
    [
        # (0, 4, 8) and (1, 5, 9) are fixed by x -> x + 4, twice the step.
        BaseBlockFile(k=3, r=3, w=5, d=2, blocks=((0, 4, 8), (1, 5, 9), (0, 1, 3))),
        # At d = 4 the step itself fixes (0, 4, 8): its orbit is one line.
        BaseBlockFile(k=3, r=3, w=5, d=4, blocks=((0, 4, 8), (0, 1, 3))),
        # (0, 1, 6, 7) is fixed by x -> x + 6, three times the step.
        BaseBlockFile(k=4, r=2, w=5, d=2, blocks=((0, 1, 6, 7), (0, 2, 3, 5))),
    ],
    ids=["period-2d", "period-d", "period-3d"],
)
def test_short_orbits_index_and_tally_match_oracle(file):
    """A block fixed by a multiple of d counts each of its lines once
    through each point: degrees and _tally equal the oracle's."""
    geom = develop(file)
    reference = oracle.develop(file)
    plain = geometry(reference.params, reference.lines)
    assert geom.short
    assert list(geom.incidence.degree) == list(map(len, oracle._lines_by_point(reference)))
    assert geom.incidence.deficiency == oracle.deficiency_graph(reference)
    assert _tally(geom) == tally_over_lines(plain, file.d)
    for (kernel, slow), got in zip(ANALYSES, kernel_outcomes(geom)):
        assert got == outcome(slow, plain), kernel.__name__


# check_axioms, the verdict a construction reads, against the oracle's axiom
# checks on the random base-block files and the line mutants above.
@settings(max_examples=100)
@given(file=base_block_files())
def test_check_axioms_matches_oracle_on_base_blocks(file):
    reference = oracle.develop(file)
    plain = geometry(reference.params, reference.lines)
    assert check_axioms(develop(file))[0] == oracle.verify(plain).axioms


@settings(max_examples=60)
@given(
    name=st.sampled_from(MUTABLE_NAMES),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_axioms_matches_oracle_on_mutants(geometries, name, kinds, seed):
    geom = mutant(geometries, name, kinds, seed)
    assert check_axioms(geom)[0] == oracle.verify(geom).axioms


DEVELOPED_NAMES = tuple(
    name for name in FIXTURE_NAMES if parse_pent_file(fixture_text(name)).d < FIXTURE_FACTS[name][0]
)


@pytest.mark.parametrize("name", DEVELOPED_NAMES)
def test_developed_fixture_analyses_read_representatives_only(name):
    """A valid developed fixture is verified, classified and analysed from
    its orbit lines alone: neither its full line set, nor its lines through
    0..d-1, nor the table of lines through each point is built.  The
    developed mutants above are held to the first by kernel_outcomes, which
    checks after each analysis, also one that raises."""
    geom = develop(parse_pent_file(fixture_text(name)))
    classify(verify(geom))
    line_split(geom)
    overlap_profile(geom)
    dist3_analysis(geom)
    assert "lines" not in vars(geom)
    assert "reps" not in vars(geom) and "through" not in vars(geom.incidence)
    assert len(geom.lines) == FIXTURE_FACTS[name][1]
    assert "lines" in vars(geom)
