"""Ten-point acceptance gate; each check prints one PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import FIXTURE_FACTS, FIXTURE_NAMES, GIRTH5_NAMES, fixture_text

from pentgeo import develop, geometry, parse_pent_file, verify
from pentgeo.construct import (
    GddFillPlan,
    construction36,
    gdd_fill,
    plan_pent3,
    plan_pent5,
    product,
    triple,
)
from pentgeo.designs import uniform_gdd
from pentgeo.graphs import (
    hoffman_singleton,
    inflate,
    neighborhood_intersection_profile,
    orbit_graph,
    petersen,
    report,
)
from pentgeo.hillclimb import ClimbConfig, climb_sts
from pentgeo.designs import verify_steiner

ORBIT_BASE = ((0, 4), (1, 5), (2, 6), (0, 3), (1, 3), (2, 3))

_CORPUS = {}


def corpus(name):
    if name not in _CORPUS:
        geom = develop(parse_pent_file(fixture_text(name)))
        _CORPUS[name] = (geom, verify(geom))
    return _CORPUS[name]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {label}")
        raise
    print(f"PASS criterion {num:2d}: {label}")


def test_criterion_01_fixture_corpus():
    with criterion(1, "every shipped fixture verifies with its exact facts"):
        for name in FIXTURE_NAMES:
            budget = 60.0 if name == "pent_4_168_13" else 10.0
            started = time.monotonic()
            geom = develop(parse_pent_file(fixture_text(name)))
            rep = verify(geom)
            elapsed = time.monotonic() - started
            _CORPUS[name] = (geom, rep)
            v, b, girth, gtype, _ = FIXTURE_FACTS[name]
            assert rep.valid, name
            assert (rep.params.v, rep.params.b) == (v, b), name
            assert len(geom.lines) == b, name
            assert rep.deficiency.girth == girth, name
            assert rep.deficiency.connected, name
            assert rep.geometry_type == gtype, name
            assert elapsed <= budget, f"{name} took {elapsed:.1f}s"


def test_criterion_02_line_split_identities():
    with criterion(2, "line splits match the counting identities at girth >= 5"):
        for name in GIRTH5_NAMES:
            geom, rep = corpus(name)
            k, r, w, v = rep.params.k, rep.params.r, rep.params.w, rep.params.v
            e = r - w * (w - 1) // (k - 1)
            split = rep.line_split
            assert split.e == e, name
            assert split.b_opp == v * w * (w - 1) // (k * (k - 1)), name
            assert split.b_non_opp == e * v // k, name
            assert (split.b_opp, split.b_non_opp, split.e) == FIXTURE_FACTS[name][4], name


def test_criterion_03_tripling():
    with criterion(3, "tripling chain from the smallest geometry"):
        started = time.monotonic()
        base, _ = corpus("pent_3_3_3")
        once = triple(base)
        rep = verify(once)
        assert rep.valid and rep.geometry_type == "C"
        assert (once.params.r, once.params.w) == (10, 9)
        assert (once.params.v, once.params.b) == (30, 100)
        assert rep.deficiency.girth == 4 and rep.deficiency.connected
        twice = triple(once)
        assert (twice.params.r, twice.params.w) == (31, 27)
        assert (twice.params.v, twice.params.b) == (90, 930)
        assert verify(twice).valid
        assert time.monotonic() - started <= 5.0


def test_criterion_04_product():
    with criterion(4, "product construction with seven copies"):
        started = time.monotonic()
        base, _ = corpus("pent_3_3_3")
        geom = product(base, 7)
        rep = verify(geom)
        assert rep.valid
        assert (geom.params.r, geom.params.w) == (24, 21)
        assert (geom.params.v, geom.params.b) == (70, 560)
        assert rep.deficiency.girth == 4 and rep.deficiency.connected
        assert time.monotonic() - started <= 5.0


def test_criterion_05_inflation_construction():
    with criterion(5, "inflation construction rebuilds the three instances"):
        seed_graph = orbit_graph(ORBIT_BASE, 4, 20)
        won = False
        for seed in range(10):
            started = time.monotonic()
            geom = construction36(seed_graph, 3, 3, ClimbConfig(seed=seed))
            rep = verify(geom)
            elapsed = time.monotonic() - started
            assert elapsed <= 30.0, f"seed {seed} took {elapsed:.1f}s"
            assert rep.valid and rep.geometry_type == "C"
            assert (geom.params.v, geom.params.b) == (60, 500)
            assert (rep.line_split.b_opp, rep.line_split.b_non_opp) == (200, 300)
            won = True
            break
        assert won

        started = time.monotonic()
        big = construction36(hoffman_singleton(), 7, 7)
        rep = verify(big)
        assert time.monotonic() - started <= 30.0
        assert rep.valid
        assert (big.params.k, big.params.r, big.params.w) == (7, 50, 49)
        assert (big.params.v, big.params.b) == (350, 2500)
        assert rep.line_split.b_non_opp == 0

        mid = construction36(hoffman_singleton(), 3, 3)
        rep = verify(mid)
        assert rep.valid
        assert (mid.params.r, mid.params.w) == (64, 21)
        assert (mid.params.v, mid.params.b) == (150, 3200)


def test_criterion_06_gdd_fill():
    with criterion(6, "transversal design filled with three small geometries"):
        started = time.monotonic()
        base, _ = corpus("pent_3_3_3")
        geom = gdd_fill(GddFillPlan(gdd=uniform_gdd(3, 10), ingredients={10: base}))
        rep = verify(geom)
        assert rep.valid and rep.geometry_type == "B"
        assert (geom.params.v, geom.params.b) == (30, 130)
        assert rep.deficiency.girth == 5
        assert len(rep.deficiency.component_sizes) == 3
        assert time.monotonic() - started <= 5.0


def test_criterion_07_hill_climb_suite():
    with criterion(7, "triple system climbs finish fast and deterministically"):
        for w in (7, 9, 13, 15, 19, 21):
            started = time.monotonic()
            system = climb_sts(w)
            elapsed = time.monotonic() - started
            assert elapsed <= 2.0, f"w = {w} took {elapsed:.2f}s"
            verify_steiner(system)
            assert climb_sts(w).blocks == system.blocks  # same default seed


def test_criterion_08_graph_suite():
    with criterion(8, "named graphs have their defining invariants"):
        rep = report(petersen())
        assert (rep.n, rep.regular_degree, rep.girth, rep.connected) == (10, 3, 5, True)
        from pentgeo.graphs import generalized_petersen

        rep = report(generalized_petersen(15))
        assert (rep.n, rep.regular_degree, rep.connected) == (30, 3, True)
        assert rep.girth >= 5
        rep = report(hoffman_singleton())
        assert (rep.n, rep.regular_degree, rep.girth) == (50, 7, 5)
        blown = inflate(petersen(), 3)
        rep = report(blown)
        assert (rep.regular_degree, rep.girth) == (9, 4)
        assert set(neighborhood_intersection_profile(blown)) <= {0, 3, 9}


def test_criterion_09_planners():
    with criterion(9, "parameter planners satisfy their own constraints"):
        for r0, r1, r2, w in ((72, 25, 28, 9), (51, 47, 53, 7)):
            reachable = {r0 % 3, r1 % 3}
            rng = random.Random(r0)
            for _ in range(50):
                target = 5000 + rng.randrange(100000)
                plan = plan_pent3(r0, r1, r2, w, target)
                if target % 3 in reachable:
                    assert plan is not None, (r0, target)
                    assert plan.target_r == target
                    plan.check()
                else:
                    assert plan is None

        found = 0
        r = 200000
        while found < 20:
            if r % 5 in (0, 1):
                plan = plan_pent5(r)
                assert plan is not None, r
                plan.check()
                assert plan.m % 4 == 2
                n10, n18, n30 = plan.part_counts
                assert 10 * n10 + 18 * n18 + 30 * n30 == plan.m and n10 + n18 + n30 == plan.q
                assert min(n10, n18, n30) >= 0
                found += 1
            r += 1


def test_criterion_10_mutation_detection():
    with criterion(10, "every single-line mutation is caught with its axiom"):
        base, _ = corpus("pent_3_3_3")
        lines = sorted(base.lines)
        mutants = []
        for i in range(len(lines)):
            mutants.append(frozenset(lines[:i] + lines[i + 1 :]))  # deletion
        for i, j in itertools.permutations(range(len(lines)), 2):
            replaced = list(lines)
            replaced[i] = lines[j]  # duplication over line i
            mutants.append(frozenset(replaced))
        for ln in lines:
            inside = set(ln)
            for x in ln:
                for y in range(base.params.v):
                    if y in inside:
                        continue
                    swapped = tuple(sorted([p for p in ln if p != x] + [y]))
                    mutants.append((base.lines - {ln}) | {swapped})
        assert len(mutants) == 10 + 90 + 210
        for mutated in mutants:
            rep = verify(geometry(base.params, mutated))
            assert not rep.valid
            assert "regular" in rep.failed_axioms()
