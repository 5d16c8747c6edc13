"""Loader fuzz: random bytes and token streams, written to a file and read by
each pentctl loader, must end in a PentError, which pentctl reports with
exit code 2 (or 1) instead of a traceback.

The loaders are the geometry loader (a .pent file, developed, or geometry
JSON), the graph file loader and the gdd-fill spec, which is also filled.
A gdd-fill spec names ingredient files, so a missing one may end in the
OSError that pentctl also reports with exit code 2.

Run main() only in a process whose address space is capped
(resource.setrlimit with RLIMIT_AS), as test_cli.py does: a loader that
allocates by a number it read would otherwise take the machine's memory.
"""

from __future__ import annotations

from pathlib import Path

from conftest import fixture_text
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo import cli, construct
from pentgeo.errors import PentError

# Numbers of every size and spelling int() and json.loads take, and line
# breaks str.splitlines() honours besides "\n".
NUMBERS = ["0", "1", "2", "3", "5", "10", "-1", "+3", "1_0", "\u0663", "9" * 5000, "3.0", "1e400"]
BREAKS = ["\n", " ", "\r", "\x0c", "\u2028", "\x00"]
PENT_TOKENS = NUMBERS + BREAKS + ["#", "3 3 3 1\n", "3 3 3 10\n", "3 3 3 3\n", "10\n", "x"]
JSON_TOKENS = NUMBERS + [
    "{", "}", "[", "]", ",", ":", '"', "true", "null", "NaN", "[" * 5000,
    '"k":', '"r":', '"w":', '"v":', '"lines":', '"gdd":', '"groups":', '"ingredients":',
    '"10":', '"p.pent"', '"x"',
    '{"k":3,"r":3,"w":3,"lines":',
    '{"gdd":{"k":3,"groups":[[0,1,2,3,4,5,6,7,8,9]],"lines":[]},"ingredients":',
]  # fmt: skip


def _joined(tokens: list[str]) -> st.SearchStrategy[bytes]:
    return st.lists(st.sampled_from(tokens), max_size=30).map(lambda ts: "".join(ts).encode())


INPUTS = st.one_of(st.binary(max_size=40), _joined(PENT_TOKENS), _joined(JSON_TOKENS))
LOADERS = {
    "geometry": (cli._load_geometry, PentError),
    "graph": (cli._load_graph, PentError),
    "gdd-fill": (lambda path: construct.gdd_fill(cli._load_gdd_fill(path)), (PentError, OSError)),
}


def main(workdir: str, examples: int) -> None:
    """Feed the loaders `examples` inputs in all, as files in workdir, where
    the ingredient p.pent is pent_3_3_3; raise on the first input a loader
    fails on."""
    path = Path(workdir) / "input"
    (Path(workdir) / "p.pent").write_text(fixture_text("pent_3_3_3"))

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(name=st.sampled_from(sorted(LOADERS)), data=INPUTS)
    def loads_or_refuses(name: str, data: bytes) -> None:
        load, refusals = LOADERS[name]
        path.write_bytes(data)
        try:
            load(str(path))
        except refusals:
            pass

    loads_or_refuses()
