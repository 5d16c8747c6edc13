"""pentctl end to end: exit codes, JSON schemas, stdin/stdout plumbing."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import fixture_text
from test_construct import QUARTIC_23

import pentgeo
from pentgeo import (
    classify,
    construct,
    derive_params,
    develop,
    geometry,
    geometry_to_json,
    line_split,
    parse_pent_file,
    verify,
)
from pentgeo.cli import _exit_code, _report_dict, build_parser, main
from pentgeo.construct import MAX_COMPLETION_PAIRS
from pentgeo.designs import (
    MAX_RECIPE_PAIRS,
    FiniteField,
    Gdd,
    SteinerSystem,
    gdd_to_json_dict,
    mols,
    sts,
    uniform_gdd,
    verify_gdd,
    verify_steiner,
)
from pentgeo.errors import ClimbFailed, PentError, UsageError
from pentgeo.graphs import (
    MAX_VERTICES,
    generalized_petersen,
    graph_from_edges,
    hoffman_singleton,
    petersen,
    write_graph_file,
)
from pentgeo.pent import dist3_analysis, overlap_profile

ORBIT_SEED_FILE = "20\n0 4\n1 5\n2 6\n0 3\n1 3\n2 3\n"


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, stdin=""):
        data = stdin if type(stdin) is bytes else stdin.encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def fix18(tmp_path):
    path = tmp_path / "pent_3_18_3.pent"
    path.write_text(fixture_text("pent_3_18_3"))
    return str(path)


@pytest.fixture
def fix33(tmp_path):
    path = tmp_path / "pent_3_3_3.pent"
    path.write_text(fixture_text("pent_3_3_3"))
    return str(path)


def run_child(script: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports this pentgeo."""
    paths = [str(Path(pentgeo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )


def broken_geometry_json(pent33):
    return geometry_to_json(geometry(pent33.params, sorted(pent33.lines)[1:]))


def test_verify_text(cli, fix18):
    code, out, err = cli(["verify", fix18])
    assert code == 0
    assert "PENT(3,18,3)" in out
    assert "type: A" in out
    assert err == ""


def test_verify_json_schema(cli, fix18):
    code, out, _ = cli(["verify", fix18, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["type"] == "A"
    assert (payload["k"], payload["r"], payload["w"]) == (3, 18, 3)
    assert (payload["v"], payload["b"]) == (40, 240)
    assert set(payload["axioms"]) == {
        "partial_linear",
        "uniform",
        "regular",
        "opposite_designs",
    }
    assert payload["deficiency"] == {
        "regular_degree": 3,
        "girth": 5,
        "connected": True,
        "components": 1,
    }
    assert payload["line_split"] == {"opposite": 40, "non_opposite": 200, "e": 15}


def test_verify_stdin(cli):
    code, out, _ = cli(["verify", "-"], stdin=fixture_text("pent_3_3_3"))
    assert code == 0
    assert "type: A" in out


def test_verify_invalid_exits_1(cli, tmp_path, pent33):
    path = tmp_path / "broken.json"
    path.write_text(broken_geometry_json(pent33))
    code, out, _ = cli(["verify", str(path)])
    assert code == 1
    assert "FAIL" in out


def test_verify_missing_file_exits_2(cli, tmp_path):
    code, _, err = cli(["verify", str(tmp_path / "absent.pent")])
    assert code == 2
    assert "pentctl:" in err


def test_verify_garbage_exits_2(cli, tmp_path):
    path = tmp_path / "noise.pent"
    path.write_text("not a header\n")
    code, _, err = cli(["verify", str(path)])
    assert code == 2
    assert "pentctl:" in err


@pytest.mark.parametrize(
    "change",
    [{"lines": [["a", 1, 2]]}, {"lines": 5}, {"v": 11}],
    ids=["non-integer-point", "lines-not-a-list", "v-disagrees"],
)
def test_verify_malformed_geometry_json_exits_2(cli, tmp_path, pent33, change):
    payload = json.loads(geometry_to_json(pent33))
    payload.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = cli(["verify", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("pentctl:")
    assert "Traceback" not in err


def test_verify_over_point_limit_exits_2(tmp_path):
    # 40 bytes of JSON name v = 80,004 points, whose incidence masks would
    # take about 1.6 GB.  The run is a child process capped at 1 GiB of
    # address space, so a missing bound fails here instead of exhausting the
    # machine.
    path = tmp_path / "huge.json"
    path.write_text('{"k":3,"r":40000,"w":3,"lines":[[0,1,2]]}')
    cap = 1 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['verify', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"v = 80004 > {MAX_VERTICES} points" in proc.stderr


def test_verify_largest_geometry_json_under_65_mib(tmp_path):
    # 40 bytes of JSON name v = 16,384 = MAX_VERTICES points, whose
    # deficiency masks take 32 MiB.  The report needs 57 MiB of address
    # space (measured on Python 3.11); an index that also kept the closed
    # masks, a second family as large, needed 74 MiB.  The child is capped
    # at 65 MiB, 8 MiB above the one and 9 MiB below the other.
    path = tmp_path / "max.json"
    path.write_text('{"k":3,"r":8190,"w":3,"lines":[[0,1,2]]}')
    cap = 65 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['verify', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = proc.stdout.splitlines()
    assert report[0] == "PENT(3,8190,3): v = 16384, b = 44728320"
    assert "    point 0: 16381 non-collinear points, expected 3" in report
    assert report[-1] == "  type: invalid"


@pytest.mark.parametrize(
    "text,code",
    [("3 100000 3 1\n0 1 2\n", 2), (fixture_text("pent_3_3_3"), 0)],
    ids=["r=10^5", "pent_3_3_3"],
)
def test_verify_huge_pent_under_64_mib(tmp_path, text, code):
    # 20 bytes of base blocks name v = 200,004 points, and developing them by
    # d = 1 would make 200,004 lines.  develop keeps the one line through
    # point 0, so the point limit refuses the file at once.  The child caps
    # its address space at 64 MiB, where pent_3_3_3 still verifies.
    path = tmp_path / "input.pent"
    path.write_text(text)
    cap = 64 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['verify', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == f"pentctl: v = 200004 > {MAX_VERTICES} points\n"
    else:
        assert "type: A" in proc.stdout


def test_verify_doubled_pairs_under_256_mib(tmp_path):
    # 1,185 bytes of base blocks {0, 1, i}, i = 2..161, developed by d = 1
    # stand for 160 * 8,004 = 1,280,640 lines, each block's orbit putting
    # the pair {0, 1} on 160 of them.  The witness searches read only the
    # 480 lines through point 0, so the child, capped at 256 MiB of address
    # space, prints the invalid report rather than running out of memory.
    text = "3 4000 3 1\n" + "".join(f"0 1 {i}\n" for i in range(2, 162))
    assert len(text) == 1185
    path = tmp_path / "doubled.pent"
    path.write_text(text)
    cap = 256 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['verify', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = proc.stdout.splitlines()
    assert report[:3] == [
        "PENT(3,4000,3): v = 8004, b = 10672000",
        "  partial_linear: FAIL",
        "    pair (0, 1) on lines (0, 1, 2) and (0, 1, 3)",
    ]
    assert report[-1] == "  type: invalid"


def test_loaders_refuse_random_input_under_512_mib(tmp_path):
    # fuzz_loaders feeds random bytes and token streams to the geometry,
    # graph and gdd-fill loaders; each must end in a PentError.  It runs in a
    # child capped at 512 MiB of address space, never in this process: a
    # loader that allocates by a number it read would exhaust the machine.
    cap = 512 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import fuzz_loaders\n"
        f"fuzz_loaders.main({str(tmp_path)!r}, examples=500)\n"
    )
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr


def test_verify_leaves_constructions_unimported(fix18):
    script = (
        "import sys\n"
        "from pentgeo.cli import main\n"
        f"assert main(['verify', {fix18!r}]) == 0\n"
        "print(sorted(m for m in ('pentgeo.construct', 'pentgeo.designs', 'pentgeo.hillclimb')"
        " if m in sys.modules))\n"
    )
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_develop_writes_geometry_json(cli, fix18, tmp_path):
    out_path = tmp_path / "geom.json"
    code, out, _ = cli(["develop", fix18, "-o", str(out_path)])
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["v"] == 40
    assert len(payload["lines"]) == 240
    assert payload["provenance"]["source"] == "base-blocks"


def test_develop_verify_pipeline_matches_in_process(cli, fix18):
    code, developed, _ = cli(["develop", fix18])
    assert code == 0
    code, out, _ = cli(["verify", "-", "--json"], stdin=developed)
    assert code == 0
    in_process = _report_dict(verify(develop(parse_pent_file(fixture_text("pent_3_18_3")))))
    assert json.loads(out) == json.loads(json.dumps(in_process))


def test_classify(cli, fix18):
    code, out, _ = cli(["classify", fix18])
    assert code == 0
    assert out == "A\n"


def test_classify_invalid(cli, tmp_path, pent33):
    path = tmp_path / "broken.json"
    path.write_text(broken_geometry_json(pent33))
    code, out, err = cli(["classify", str(path)])
    assert code == 1
    assert out == ""
    assert "invalid:" in err


def test_graph_petersen_report(cli):
    code, out, _ = cli(["graph", "petersen", "--report"])
    assert code == 0
    assert out == "n 10  edges 15  degree 3  girth 5  connected\n"


def test_graph_petersen_file_round_trip(cli):
    code, out, _ = cli(["graph", "petersen"])
    assert code == 0
    assert out == write_graph_file(petersen())


def test_graph_gp_requires_n(cli):
    code, _, err = cli(["graph", "gp"])
    assert code == 2
    assert "pentctl:" in err


def test_graph_gp_over_vertex_limit_exits_2(cli):
    tracemalloc.start()
    try:
        code, out, err = cli(["graph", "gp", str(MAX_VERTICES // 2 + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert f"> {MAX_VERTICES} vertices" in err
    assert peak < 1 << 20


def test_graph_gp(cli):
    code, out, _ = cli(["graph", "gp", "15", "--report"])
    assert code == 0
    assert out.startswith("n 30  edges 45  degree 3  girth 5")


def test_graph_hs(cli):
    code, out, _ = cli(["graph", "hs", "--report"])
    assert code == 0
    assert out == "n 50  edges 175  degree 7  girth 5  connected\n"


def test_graph_orbit(cli, tmp_path):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED_FILE)
    code, out, _ = cli(["graph", "orbit", "--file", str(path), "--step", "4", "--report"])
    assert code == 0
    assert out == "n 20  edges 30  degree 3  girth 5  connected\n"


def test_graph_orbit_needs_file_and_step(cli, tmp_path):
    code, _, _ = cli(["graph", "orbit", "--step", "4"])
    assert code == 2
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED_FILE)
    code, _, _ = cli(["graph", "orbit", "--file", str(path)])
    assert code == 2


def test_sts_direct(cli):
    code, out, _ = cli(["sts", "9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["w"] == 9
    assert len(payload["lines"]) == 12


def test_sts_climb_deterministic(cli):
    runs = [cli(["sts", "13", "--climb", "--seed", "4"]) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert len(json.loads(runs[0][1])["lines"]) == 26


def test_sts_climb_negative_seed_exits_2(cli):
    # A negative seed would replay its absolute value, so it is refused.
    assert cli(["sts", "31", "--climb", "--seed", "-3"]) == (2, "", "pentctl: seed = -3 < 0\n")


def test_sts_99_climb_output_pinned(cli):
    # The same digest is checked on the installed pentctl in CI.
    code, out, _ = cli(["sts", "99", "--climb", "--seed", "0"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "734c120d47d54cba6b3ce355ca8f21f8b1d8be9eebac42c30872c2b77649968e"


def test_sts_inadmissible_exits_2(cli):
    code, _, err = cli(["sts", "11"])
    assert code == 2
    assert "pentctl:" in err


def test_gdd_direct(cli):
    code, out, _ = cli(["gdd", "3", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert len(payload["groups"]) == 3
    assert len(payload["lines"]) == 16


def test_gdd_climb(cli):
    code, out, _ = cli(["gdd", "3", "4", "--climb"])
    assert code == 0
    assert len(json.loads(out)["lines"]) == 16


def test_gdd_extra_groups(cli):
    code, out, _ = cli(["gdd", "3", "2", "--groups", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["groups"]) == 4
    assert len(payload["lines"]) == 8


def test_gdd_k4(cli):
    code, out, _ = cli(["gdd", "4", "4"])
    assert code == 0
    assert len(json.loads(out)["lines"]) == 16


def test_gdd_no_recipe_exits_1(cli):
    code, _, err = cli(["gdd", "4", "6"])
    assert code == 1
    assert "pentctl:" in err


def test_gdd_climb_rejects_k4(cli):
    code, _, err = cli(["gdd", "4", "5", "--climb"])
    assert code == 2
    assert "only 3-GDDs" in err


def test_construct_tripling(cli, fix33):
    code, out, _ = cli(["construct", "tripling", fix33])
    assert code == 0
    payload = json.loads(out)
    assert (payload["k"], payload["r"], payload["w"]) == (3, 10, 9)
    assert len(payload["lines"]) == 100
    assert payload["provenance"]["construction"] == "tripling"


def test_construct_product(cli, fix33):
    code, out, _ = cli(["construct", "product", fix33, "--h", "7"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["r"], payload["w"]) == (24, 21)
    assert len(payload["lines"]) == 560


def test_construct_product_needs_h(cli, fix33):
    code, _, _ = cli(["construct", "product", fix33])
    assert code == 2


def test_construct_girth5(cli, tmp_path):
    path = tmp_path / "gp15.graph"
    path.write_text(write_graph_file(generalized_petersen(15)))
    code, out, _ = cli(["construct", "girth5", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert (payload["r"], payload["w"]) == (13, 3)
    assert len(payload["lines"]) == 130
    assert payload["provenance"] == {"construction": "girth5", "seed": 0}


def test_construct_girth5_over_pair_limit_exits_2(tmp_path):
    # generalized_petersen(8192) is a valid cubic girth-5 seed of 260 KB whose
    # 134,135,808 pairs at distance 3 or more would take tens of GB as a
    # target set.  The run is a child process capped at 512 MiB of address
    # space, so a missing bound fails here instead of exhausting the machine.
    path = tmp_path / "gp8192.graph"
    path.write_text(write_graph_file(generalized_petersen(8192)))
    cap = 512 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['construct', 'girth5', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"134135808 pairs to complete > {MAX_COMPLETION_PAIRS}" in proc.stderr


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (["sts", "20001", "--climb"], "S(2,3,20001) climb: 200010000"),
        (["gdd", "3", "3000", "--groups", "3", "--climb"], "3-GDD 3000^3 climb: 27000000"),
    ],
    ids=["sts", "gdd"],
)
def test_climb_over_pair_limit_exits_2(argv, refusal):
    # Each pair set would take gigabytes.  The run is a child process capped
    # at 512 MiB of address space, so a missing bound fails here instead of
    # exhausting the machine.
    cap = 512 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"pentctl: {refusal} pairs to complete > {MAX_COMPLETION_PAIRS}\n"


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (["sts", "20001"], "S(2,3,20001): 200010000"),
        (["gdd", "3", "20000"], "TD(3,20000): 1200000000"),
        (["construct", "product", "FIXTURE", "--h", "20001"], "S(2,3,20001): 200010000"),
    ],
    ids=["sts", "gdd", "product"],
)
def test_recipe_over_pair_limit_exits_2(fix33, argv, refusal):
    # The Bose/Skolem STS and the cyclic TD(3,g) have no field order to cap
    # them; each of these designs would take gigabytes.  The run is a child
    # process capped at 512 MiB of address space, so a missing bound fails
    # here instead of exhausting the machine.
    argv = [fix33 if a == "FIXTURE" else a for a in argv]
    cap = 512 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"pentctl: {refusal} pairs to cover > {MAX_RECIPE_PAIRS}\n"


@pytest.mark.parametrize(
    "gdd",
    [
        {"k": 3, "groups": [[x] for x in range(100000)], "lines": [[0, 1, 2]]},
        {
            "k": 3,
            "groups": [list(range(g, g + 20000)) for g in (0, 20000, 40000)],
            "lines": [[x, x + 20000, x + 40000] for x in range(20000)],
        },
    ],
    ids=["singletons", "three-groups"],
)
def test_gdd_fill_past_the_point_limit_exits_2(tmp_path, gdd):
    # Specs of 789 and 738 KB whose point counts, 100,000 and 60,000, pass
    # MAX_VERTICES.  verify_gdd's masks are n bits wide, and checking these
    # designs peaked at 700 and 294 MB; a filled geometry that large is
    # refused anyway.  The run is a child process capped at 256 MiB of
    # address space, so a missing bound fails here instead of exhausting
    # the machine.
    path = tmp_path / "fill.json"
    path.write_text(json.dumps({"gdd": gdd, "ingredients": {}}, separators=(",", ":")))
    cap = 256 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from pentgeo.cli import main\n"
        f"sys.exit(main(['construct', 'gdd-fill', {str(path)!r}]))\n"
    )
    proc = run_child(script)
    n = sum(map(len, gdd["groups"]))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"pentctl: gdd: n = {n} > {MAX_VERTICES} points\n"


def test_gdd_past_the_field_order_refused_at_once():
    # FiniteField compares q with the order bound before prime_power factors
    # it by trial division, which did not finish in 20 s on this prime.
    q = 10**18 + 3
    script = f"import sys\nfrom pentgeo.cli import main\nsys.exit(main(['gdd', '5', '{q}']))\n"
    proc = run_child(script, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == f"pentctl: no TD(5,{q}) recipe here: q = {q} > 49\n"


def test_construct_c36(cli, tmp_path):
    path = tmp_path / "petersen.graph"
    path.write_text(write_graph_file(petersen()))
    code, out, _ = cli(["construct", "c36", str(path), "--h", "3"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["r"], payload["w"]) == (10, 9)
    assert len(payload["lines"]) == 100
    assert payload["provenance"] == {"construction": "c36", "h": 3, "k": 3, "seed": 0}


def test_construct_c36_needs_h(cli, tmp_path):
    path = tmp_path / "petersen.graph"
    path.write_text(write_graph_file(petersen()))
    code, _, _ = cli(["construct", "c36", str(path)])
    assert code == 2


def test_construct_gdd_fill(cli, tmp_path, fix33):
    spec = {
        "gdd": gdd_to_json_dict(uniform_gdd(3, 10)),
        "ingredients": {"10": "pent_3_3_3.pent"},
    }
    (tmp_path / "pent_3_3_3.pent").write_text(fixture_text("pent_3_3_3"))
    spec_path = tmp_path / "fill.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = cli(["construct", "gdd-fill", str(spec_path)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lines"]) == 130

    code, out, _ = cli(["verify", "-", "--json"], stdin=out)
    assert code == 0
    assert json.loads(out)["type"] == "B"


def test_construct_gdd_fill_bad_spec(cli, tmp_path):
    path = tmp_path / "fill.json"
    path.write_text(json.dumps({"gdd": {}}))
    code, _, err = cli(["construct", "gdd-fill", str(path)])
    assert code == 2
    assert "pentctl:" in err


@pytest.mark.parametrize(
    "change",
    [
        {"ingredients": [1, 2]},
        {"ingredients": {"x": "pent_3_3_3.pent"}},
        {"ingredients": {"10": 5}},
        {"gdd": {**gdd_to_json_dict(uniform_gdd(3, 10)), "k": 3.7}},
        {"gdd": {"k": 3, "groups": [], "lines": []}, "ingredients": {}},
    ],
    ids=["ingredients-list", "size-not-integer", "path-not-string", "k-float", "no-groups"],
)
def test_construct_gdd_fill_malformed_spec_exits_2(cli, tmp_path, change):
    spec = {
        "gdd": gdd_to_json_dict(uniform_gdd(3, 10)),
        "ingredients": {"10": "pent_3_3_3.pent"},
    }
    spec.update(change)
    (tmp_path / "pent_3_3_3.pent").write_text(fixture_text("pent_3_3_3"))
    path = tmp_path / "fill.json"
    path.write_text(json.dumps(spec))
    code, out, err = cli(["construct", "gdd-fill", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("pentctl: ")


# One failing call per place where a construction reports an ingredient's
# failure as its own, a loader refuses a file it cannot decode, or an option
# is given where nothing reads it, with the exit code and message it ends in.
# The c36 pair bound is the 3-GDD refusal that stays a usage error.
REFUSALS = {
    "product-steiner": (
        ["construct", "product", "pent_3_3_3.pent", "--h", "5"],
        1,
        "no S(2,3,5): w = 5 is not 1 or 3 (mod 6)",
    ),
    "gdd-no-td": (["gdd", "4", "6"], 1, "no TD(4,6) recipe here: 6 is not a prime power"),
    "product-no-td": (
        ["construct", "product", "k6.json", "--h", "6"],
        1,
        "no TD(6,6) recipe here: 6 is not a prime power",
    ),
    "c36-no-td": (
        ["construct", "c36", "hs.graph", "--h", "85", "--k", "7"],
        1,
        "no TD(7,85) recipe here: q = 85 > 49",
    ),
    "c36-3gdd-inadmissible": (
        ["construct", "c36", "c5.graph", "--h", "3"],
        1,
        "no 3-GDD of type 3^2: 2 groups < 3",
    ),
    "c36-3gdd-pair-bound": (
        ["construct", "c36", "hs.graph", "--h", "115"],
        2,
        "3-GDD 115^7 climb: 277725 pairs to complete > 262144",
    ),
    "gdd-fill-unverified": (
        ["construct", "gdd-fill", "short.json"],
        2,
        "gdd does not verify: pair (0, 10) covered by no block",
    ),
    "verify-not-utf8": (
        ["verify", "latin1.pent"],
        2,
        "latin1.pent: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte",
    ),
    "verify-stdin-not-utf8": (
        ["verify", "-"],
        2,
        "-: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte",
    ),
    "verify-nested-json": (["verify", "nested.json"], 2, "bad JSON: nested too deeply"),
    "gdd-fill-nested-json": (
        ["construct", "gdd-fill", "nested.json"],
        2,
        "bad JSON: nested too deeply",
    ),
    "construct-h-unread": (
        ["construct", "tripling", "pent_3_3_3.pent", "--h", "5"],
        2,
        "--h is only read by product and c36",
    ),
    "construct-k-unread": (
        ["construct", "product", "pent_3_3_3.pent", "--h", "7", "--k", "7"],
        2,
        "--k is only read by c36",
    ),
    "construct-seed-unread": (
        ["construct", "gdd-fill", "short.json", "--seed", "5"],
        2,
        "--seed is only read by girth5 and c36",
    ),
    "sts-seed-unread": (["sts", "9", "--seed", "5"], 2, "--seed is only read by --climb"),
    "gdd-seed-unread": (
        ["gdd", "3", "4", "--seed", "5"],
        2,
        "--seed is only read by a climb (--climb, or --groups other than k)",
    ),
    "graph-n-unread": (["graph", "petersen", "12", "--report"], 2, "N is only read by gp"),
    "graph-file-unread": (
        ["graph", "gp", "5", "--file", "c5.graph"],
        2,
        "--file is only read by orbit",
    ),
    "graph-step-unread": (
        ["graph", "petersen", "--step", "3", "--report"],
        2,
        "--step is only read by orbit",
    ),
}


@pytest.mark.parametrize("argv, code, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_construction_refusals(cli, tmp_path, monkeypatch, argv, code, message):
    short = gdd_to_json_dict(uniform_gdd(3, 10))
    short["lines"] = short["lines"][1:]
    inputs = {
        "pent_3_3_3.pent": fixture_text("pent_3_3_3"),
        "k6.json": '{"k":6,"r":1,"w":6,"lines":[[0,1,2,3,4,5]]}',
        "hs.graph": write_graph_file(hoffman_singleton()),
        "c5.graph": "5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
        "short.json": json.dumps({"gdd": short, "ingredients": {"10": "pent_3_3_3.pent"}}),
        "latin1.pent": b"\xff\xfe\n",
        "nested.json": '{"k":3,"r":3,"w":3,"lines":' + "[" * 100_000,
    }
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data if type(data) is bytes else data.encode())
    monkeypatch.chdir(tmp_path)
    # Only the verify-stdin row reads stdin.
    assert cli(argv, stdin=inputs["latin1.pent"]) == (code, "", f"pentctl: {message}\n")


def test_plan_pent3(cli):
    code, out, _ = cli(["plan", "pent3", "72", "25", "28", "9", "30000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reachable"] is True
    assert payload["target_r"] == 30000
    assert payload["r3"] in (72, 25)


def test_plan_pent3_unreachable(cli):
    code, out, _ = cli(["plan", "pent3", "72", "25", "28", "9", "5003"])
    assert code == 1
    assert json.loads(out) == {"reachable": False}


def test_plan_pent3_bad_triple(cli):
    code, _, err = cli(["plan", "pent3", "73", "25", "28", "9", "30000"])
    assert code == 2
    assert "pentctl:" in err


def test_plan_pent5(cli):
    code, out, _ = cli(["plan", "pent5", "200000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reachable"] is True
    assert payload["h"] == 86
    assert payload["q"] % 11 == 0
    assert sum(int(s) * n for s, n in payload["part_counts"].items()) == payload["m"]


def test_plan_pent5_huge_r(cli):
    code, out, _ = cli(["plan", "pent5", str(10**30)])
    assert code == 0
    payload = json.loads(out)
    counts = payload["part_counts"]
    assert list(counts) == ["10", "18", "30"]
    assert sum(counts.values()) == payload["q"]
    assert sum(int(s) * n for s, n in counts.items()) == payload["m"]


def test_plan_pent5_unreachable(cli):
    code, out, _ = cli(["plan", "pent5", "200002"])
    assert code == 1
    assert json.loads(out) == {"reachable": False}


def test_usage_errors(cli):
    assert cli([])[0] == 2
    assert cli(["frobnicate"])[0] == 2
    assert cli(["plan"])[0] == 2


def test_parser_built_once_and_reused_after_usage_errors(cli, fix18):
    """main() parses every call with the one parser built per process; a
    usage error leaves it fit for the next call."""
    assert build_parser() is build_parser()
    calls = (["frobnicate"], ["verify", fix18], ["verify"], ["verify", fix18])
    codes = [cli(argv)[0] for argv in calls]
    assert codes == [2, 0, 2, 0]
    assert build_parser.cache_info().currsize == 1


def test_exit_code_mapping():
    assert _exit_code(ClimbFailed("x")) == 3
    assert _exit_code(UsageError("x")) == 2
    assert _exit_code(OSError("x")) == 2
    assert _exit_code(PentError("x")) == 1
    with pytest.raises(ValueError):
        _exit_code(ValueError("x"))


def _raise(exc: Exception):
    raise exc


def _empty(k: int, r: int, w: int) -> pentgeo.Geometry:
    return geometry(derive_params(k, r, w), [])


def _pent33_with(line: tuple[int, ...]) -> pentgeo.Geometry:
    """pent_3_3_3 with its least line (0, 2, 6) replaced."""
    pent33 = develop(parse_pent_file(fixture_text("pent_3_3_3")))
    return geometry(pent33.params, [line, *sorted(pent33.lines)[1:]])


# One call per kind of failure with the exit code pentctl gives it.  The
# kinds are named after the classes that told them apart before they were
# folded into the three families.
FAILURES = {
    "PentError": (1, lambda: _raise(PentError("x"))),
    "UsageError": (2, lambda: _raise(UsageError("x"))),
    # One pair at distance 3 in GP(9) lies in no triangle of such pairs.
    "ClimbFailed": (3, lambda: construct.construction36(generalized_petersen(9), 1, 3)),
    "ArityMismatch": (2, lambda: parse_pent_file("3 3 3 10\n0 1\n")),
    "BadSeedGraph": (
        1,
        lambda: construct.construction36(
            graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]), 1, 3
        ),
    ),
    "CompletionUnsupported": (
        1,
        lambda: construct.construction36(graph_from_edges(23, QUARTIC_23), 4, 4),
    ),
    "DegreeBoundViolated": (1, lambda: dist3_analysis(_empty(3, 18, 3))),
    "FieldTooLarge": (2, lambda: FiniteField(53)),
    "ForbiddenOverlap": (1, lambda: overlap_profile(_empty(3, 1, 3))),
    "GroupPairCovered": (1, lambda: verify_gdd(Gdd(3, ((0, 1), (2,)), frozenset({(0, 1, 2)})))),
    "Inadmissible": (2, lambda: sts(5)),
    "IngredientInvalid": (1, lambda: construct.triple(_empty(3, 1, 3))),
    "NoConstructionAvailable": (1, lambda: uniform_gdd(4, 6)),
    "NoIngredient": (1, lambda: construct.make_degenerate(4, 10)),
    "NonIntegralLineCount": (2, lambda: derive_params(3, 1, 4)),
    "NotBlockSize3": (2, lambda: construct.triple(_empty(4, 2, 5))),
    "NotPrimePower": (2, lambda: FiniteField(6)),
    "NotValidGeometry": (1, lambda: classify(verify(_empty(3, 1, 3)))),
    "PairDoubled": (
        1,
        lambda: verify_steiner(SteinerSystem(3, 4, frozenset({(0, 1, 2), (0, 1, 3)}))),
    ),
    "PairMissing": (1, lambda: verify_steiner(SteinerSystem(3, 3, frozenset()))),
    "ParameterDomain": (2, lambda: derive_params(2, 1, 3)),
    "PartitionFailed": (1, lambda: dist3_analysis(_pent33_with((0, 2, 3)))),
    "PentSyntaxError": (2, lambda: parse_pent_file("")),
    "PlanInvalid": (2, lambda: construct.Pent5Plan(1, 0, 0, 0, 0, (0, 0, 0)).check()),
    "PointOutOfRange": (2, lambda: geometry(derive_params(3, 1, 3), [(0, 1, 6)])),
    "PreconditionFailed": (2, lambda: construct.plan_pent3(1, 1, 1, 3, 1)),
    "ResultFailedVerification": (1, lambda: construct._finish(set(), 3, 1, 3, "empty")),
    "SplitMismatch": (1, lambda: line_split(_empty(4, 2, 5))),
    "StepNotDividingV": (2, lambda: develop(parse_pent_file("3 3 3 3\n0 1 2\n"))),
    "TooManySquares": (2, lambda: mols(4, 4)),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_exit_code_of_every_error(name):
    code, call = FAILURES[name]
    with pytest.raises(PentError) as info:
        call()
    assert _exit_code(info.value) == code
