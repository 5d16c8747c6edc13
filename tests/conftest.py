"""Shared corpus: every shipped geometry file, parsed and verified once."""

from __future__ import annotations

import importlib.resources

import pytest
from hypothesis import settings

from pentgeo import Geometry, VerificationReport, develop, parse_pent_file, verify

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow moment on a loaded machine cannot fail them; nothing is
# written to an example database.
settings.register_profile("pentgeo", derandomize=True, deadline=None, database=None)
settings.load_profile("pentgeo")

FIXTURE_NAMES = (
    "pent_3_3_3",
    "pent_3_18_3",
    "pent_3_25_9",
    "pent_3_28_3",
    "pent_3_31_3",
    "pent_3_47_7",
    "pent_3_51_7",
    "pent_3_55_15",
    "pent_3_72_9",
    "pent_4_168_13",
    "pent_5_21_5",
    "pent_5_26_5",
    "pent_5_31_5",
    "pent_5_36_5",
    "pent_5_41_5",
    "pent_5_45_5",
    "pent_7_50_49",
)

# name -> (v, b, deficiency girth, type, (b_opp, b_non_opp, e))
FIXTURE_FACTS = {
    "pent_3_3_3": (10, 10, 5, "A", (10, 0, 0)),
    "pent_3_18_3": (40, 240, 5, "A", (40, 200, 15)),
    "pent_3_25_9": (60, 500, 4, "C", (200, 300, -11)),
    "pent_3_28_3": (60, 560, 6, "A", (60, 500, 25)),
    "pent_3_31_3": (66, 682, 5, "A", (66, 616, 28)),
    "pent_3_47_7": (102, 1598, 4, "C", (646, 952, 26)),
    "pent_3_51_7": (110, 1870, 4, "C", (550, 1320, 30)),
    "pent_3_55_15": (126, 2310, 4, "C", (1302, 1008, -50)),
    "pent_3_72_9": (154, 3696, 4, "C", (1540, 2156, 36)),
    "pent_4_168_13": (518, 21756, 5, "A", (6734, 15022, 116)),
    "pent_5_21_5": (90, 378, 5, "A", (90, 288, 16)),
    "pent_5_26_5": (110, 572, 5, "A", (110, 462, 21)),
    "pent_5_31_5": (130, 806, 5, "A", (130, 676, 26)),
    "pent_5_36_5": (150, 1080, 6, "A", (150, 930, 31)),
    "pent_5_41_5": (170, 1394, 5, "A", (170, 1224, 36)),
    "pent_5_45_5": (186, 1674, 5, "A", (186, 1488, 40)),
    "pent_7_50_49": (350, 2500, 4, "C", (2500, 0, -342)),
}

GIRTH5_NAMES = tuple(n for n, f in FIXTURE_FACTS.items() if f[2] >= 5)


def fixture_text(name: str) -> str:
    return (importlib.resources.files("pentgeo") / "fixtures" / f"{name}.pent").read_text()


@pytest.fixture(scope="session")
def geometries() -> dict[str, Geometry]:
    return {name: develop(parse_pent_file(fixture_text(name))) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def reports(geometries) -> dict[str, VerificationReport]:
    return {name: verify(geom) for name, geom in geometries.items()}


@pytest.fixture(scope="session")
def pent33(geometries) -> Geometry:
    return geometries["pent_3_3_3"]
