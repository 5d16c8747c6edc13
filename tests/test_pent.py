"""Axiom verification, deficiency classification, line splits."""

import tracemalloc
from itertools import permutations

import oracle
import pytest
from conftest import FIXTURE_FACTS, FIXTURE_NAMES, GIRTH5_NAMES

from pentgeo import classify, core, deficiency_graph, derive_params, geometry, line_split, verify
from pentgeo.construct import GddFillPlan, construction36, gdd_fill, make_degenerate
from pentgeo.designs import uniform_gdd
from pentgeo.errors import PentError, UsageError
from pentgeo.graphs import MAX_VERTICES, generalized_petersen, petersen
from pentgeo.pent import dist3_analysis, overlap_profile

AXIOMS = ("partial_linear", "uniform", "regular", "opposite_designs")


def test_pent33_deficiency_is_petersen(pent33):
    assert deficiency_graph(pent33).masks == petersen().masks


def test_pent33_report(pent33):
    rep = verify(pent33)
    assert rep.valid
    assert tuple(a.name for a in rep.axioms) == AXIOMS
    assert rep.failed_axioms() == ()
    assert rep.geometry_type == "A"
    assert (rep.line_split.b_opp, rep.line_split.b_non_opp, rep.line_split.e) == (10, 0, 0)
    assert rep.overlap_profile == {0: 15, 1: 30}
    assert rep.kww_components == 0


def test_overlap_profile_function(pent33):
    assert overlap_profile(pent33) == {0: 15, 1: 30}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_classify_round_trip(name, reports):
    rep = reports[name]
    assert rep.valid
    assert classify(rep) == rep.geometry_type == FIXTURE_FACTS[name][3]


@pytest.mark.parametrize("name", GIRTH5_NAMES)
def test_line_split_matches_report(name, geometries, reports):
    split = line_split(geometries[name])
    assert split == reports[name].line_split
    v, b, _, _, (b_opp, b_non_opp, e) = FIXTURE_FACTS[name]
    assert (split.b_opp, split.b_non_opp, split.e) == (b_opp, b_non_opp, e)
    assert split.b_opp + split.b_non_opp == b


def test_line_split_girth4_counted(geometries, reports):
    split = line_split(geometries["pent_3_25_9"])
    assert (split.b_opp, split.b_non_opp, split.e) == (200, 300, -11)
    assert split == reports["pent_3_25_9"].line_split


def test_type_a_from_cubic_graph():
    geom = construction36(generalized_petersen(15), 1, 3)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "A"
    assert (rep.params.v, rep.params.r, rep.params.w) == (30, 13, 3)
    assert rep.deficiency.connected


def test_type_b_disconnected_girth5(pent33):
    plan = GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: pent33})
    rep = verify(gdd_fill(plan))
    assert rep.valid and rep.geometry_type == "B"
    assert (rep.params.v, rep.params.b, rep.params.r) == (30, 130, 13)
    assert rep.deficiency.girth == 5
    assert rep.deficiency.component_sizes == (10, 10, 10)


def test_type_d_disconnected_girth4(geometries):
    girth4 = geometries["pent_3_25_9"]
    plan = GddFillPlan(gdd=uniform_gdd(3, 60), ingredients={60: girth4})
    rep = verify(gdd_fill(plan))
    assert rep.valid and rep.geometry_type == "D"
    assert rep.params.v == 180
    assert rep.deficiency.girth == 4
    assert not rep.deficiency.connected
    assert rep.kww_components == 0


def test_type_e_kww_component_present():
    plan = GddFillPlan(gdd=uniform_gdd(3, 14), ingredients={14: make_degenerate(3, 7)})
    geom = gdd_fill(plan)
    rep = verify(geom)
    assert rep.valid and rep.geometry_type == "E"
    assert (rep.params.v, rep.params.w) == (42, 7)
    assert rep.kww_components == 3
    assert rep.params.v != 2 * rep.params.w
    assert deficiency_graph(geom).n == 42


def test_type_f_degenerate():
    rep = verify(make_degenerate(3, 3))
    assert rep.valid and rep.geometry_type == "F"
    assert rep.params.v == 2 * rep.params.w == 6
    assert rep.kww_components == 1
    assert rep.deficiency.girth == 4


def test_invalid_partial_linear():
    params = derive_params(3, 3, 3)
    rep = verify(geometry(params, [(0, 1, 2), (0, 1, 3)]))
    assert not rep.valid
    assert "partial_linear" in rep.failed_axioms()
    assert rep.geometry_type == "invalid"
    assert rep.line_split is None
    assert rep.overlap_profile is None
    witnesses = rep.axiom("partial_linear").witnesses
    assert witnesses and any("0" in w and "1" in w for w in witnesses)


def test_classify_refuses_an_invalid_report(pent33):
    rep = verify(geometry(pent33.params, sorted(pent33.lines)[1:]))
    assert rep.failed_axioms() == ("regular", "opposite_designs")
    with pytest.raises(PentError, match=r"^axioms failed: regular, opposite_designs$"):
        classify(rep)


def test_invalid_uniform():
    params = derive_params(3, 3, 3)
    rep = verify(geometry(params, [(0, 1), (2, 3, 4)]))
    assert not rep.valid
    assert "uniform" in rep.failed_axioms()
    assert any("line" in w for w in rep.axiom("uniform").witnesses)


def test_invalid_regular_reports_point(pent33):
    short = sorted(pent33.lines)[1:]
    rep = verify(geometry(pent33.params, short))
    assert not rep.valid
    assert "regular" in rep.failed_axioms()
    assert any("point" in w and "expected 3" in w for w in rep.axiom("regular").witnesses)


def test_invalid_opposite_design_witnessed(geometries):
    geom = geometries["pent_3_18_3"]
    # for w = 3 each point's opposite design is the single line holding its
    # three non-collinear points; deleting one such line breaks it
    m = deficiency_graph(geom).masks[0]
    target = tuple(y for y in range(geom.v) if m >> y & 1)
    assert target in geom.lines
    rep = verify(geometry(geom.params, geom.lines - {target}))
    assert not rep.valid
    assert "opposite_designs" in rep.failed_axioms()
    assert "regular" in rep.failed_axioms()
    witnesses = rep.axiom("opposite_designs").witnesses
    assert witnesses


def test_dist3_windmill_tight(geometries):
    rep = dist3_analysis(geometries["pent_3_18_3"])
    assert rep.degree_bound == 18 * 2 - 3 * 2 == 30
    assert rep.min_degree == 30
    assert rep.degrees_tight
    assert set(rep.blade_counts) == {15}


def test_dist3_moore_case(pent33):
    rep = dist3_analysis(pent33)
    assert rep.degree_bound == 0
    assert rep.degrees_tight
    assert set(rep.blade_counts) == {0}


def test_dist3_girth4_runs(geometries):
    rep = dist3_analysis(geometries["pent_3_25_9"])
    assert rep.min_degree >= rep.degree_bound
    assert sum(rep.blade_counts) == 300 * 3  # every non-opposite line has 3 blades


# --- the incidence index kept with each geometry ------------------------------

ANALYSES = (verify, line_split, deficiency_graph, overlap_profile, dist3_analysis)


@pytest.fixture
def index_builds(monkeypatch):
    """Geometries whose index is built while the fixture is active."""
    built = []

    class Counting(core.Incidence):
        def __init__(self, geom):
            built.append(geom)
            super().__init__(geom)

    monkeypatch.setattr(core, "Incidence", Counting)
    return built


@pytest.mark.parametrize("name", ["pent_3_3_3", "pent_3_25_9"])
def test_index_built_once_in_any_call_order(geometries, index_builds, name):
    shared = geometries[name]
    for order in permutations(ANALYSES):
        geom = geometry(shared.params, shared.lines)
        for analysis in order:
            analysis(geom)
        assert len(index_builds) == 1 and index_builds[0] is geom
        index_builds.clear()


def test_equal_geometries_do_not_share_an_index(pent33, index_builds):
    first = geometry(pent33.params, pent33.lines)
    second = geometry(pent33.params, pent33.lines)
    assert first == second and hash(first) == hash(second)
    verify(first)
    assert "incidence" not in vars(second)
    verify(second)
    assert len(index_builds) == 2
    assert index_builds[0] is first and index_builds[1] is second
    assert first.incidence is not second.incidence
    by_point = oracle._lines_by_point(first)
    for geom in (first, second):
        assert [geom.incidence.lines_through(p) for p in range(geom.v)] == by_point


@pytest.fixture(scope="module")
def degenerate301():
    geom = make_degenerate(3, 301)
    geom.incidence
    return geom


@pytest.mark.parametrize("analysis", [verify, line_split, dist3_analysis], ids=lambda f: f.__name__)
def test_analyses_hold_no_mask_per_line(degenerate301, analysis):
    # make_degenerate(3, 301) has 30,100 lines, each with a 602-bit opposite
    # mask: 3.2 MiB for all of them at once.  The analyses read one at a time.
    tracemalloc.start()
    try:
        analysis(degenerate301)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_index_refuses_more_points_than_the_limit_before_allocating():
    params = derive_params(3, MAX_VERTICES // 2 - 1, 3)  # v = MAX_VERTICES + 2
    geom = geometry(params, [(0, 1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=f"> {MAX_VERTICES} points"):
            verify(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "incidence" not in vars(geom)
