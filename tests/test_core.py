"""Parameter arithmetic, the base-block file format, development, JSON."""

import json
import re

import oracle
import pytest
from conftest import FIXTURE_NAMES, fixture_text
from hypothesis import given, settings
from hypothesis import strategies as st

from pentgeo import (
    BaseBlockFile,
    Geometry,
    derive_params,
    develop,
    geometry,
    geometry_from_json,
    geometry_to_json,
    is_admissible,
    parse_pent_file,
    write_pent_file,
)
from pentgeo.core import canonical_line
from pentgeo.errors import UsageError


def test_canonical_line_sorts():
    assert canonical_line((5, 1, 3)) == (1, 3, 5)
    assert canonical_line(x * 2 for x in (2, 0, 1)) == (0, 2, 4)


def test_canonical_line_rejects_repeats():
    with pytest.raises(UsageError, match=r"^repeated point in line \(1, 1, 2\)$"):
        canonical_line((1, 1, 2))


def test_derive_params_example():
    p = derive_params(3, 18, 3)
    assert (p.k, p.r, p.w, p.v, p.b) == (3, 18, 3, 40, 240)


def test_derive_params_domain_errors():
    with pytest.raises(UsageError, match=r"^k = 2 < 3$"):
        derive_params(2, 5, 5)
    with pytest.raises(UsageError, match=r"^w = 2 < k = 3$"):
        derive_params(3, 5, 2)
    with pytest.raises(UsageError, match=r"^r = 0 < 1$"):
        derive_params(3, 0, 3)


def test_derive_params_divisibility():
    # v = 2*1 + 4 + 1 = 7 and 3 does not divide 7*1
    with pytest.raises(UsageError, match=r"^k = 3 does not divide v\*r = 7$"):
        derive_params(3, 1, 4)


def test_admissibility_matches_divisibility():
    # b = vr/k is integral iff r(w+1-r) = 0 (mod k), because
    # vr = ((k-1)r + w + 1)r = -r^2 + (w+1)r (mod k).
    for k in range(3, 8):
        for w in range(k, 30):
            for r in range(1, 40):
                v = (k - 1) * r + w + 1
                assert is_admissible(k, r, w) == (v * r % k == 0)
                assert is_admissible(k, r, w) == (r * (w + 1 - r) % k == 0)


def test_admissible_params_build():
    for k in range(3, 6):
        for w in range(k, 20):
            for r in range(1, 25):
                if is_admissible(k, r, w):
                    p = derive_params(k, r, w)
                    assert p.b * k == p.v * r


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_write_parse_round_trip(name):
    file = parse_pent_file(fixture_text(name))
    again = parse_pent_file(write_pent_file(file))
    assert again == file


def test_parse_rejects_empty():
    with pytest.raises(UsageError, match=r"^missing trailing newline$"):
        parse_pent_file("")
    with pytest.raises(UsageError, match=r"^no header line$"):
        parse_pent_file("# only a comment\n")


def test_parse_rejects_bad_header():
    with pytest.raises(UsageError, match=r"^line 1: header must be 'k r w d'$"):
        parse_pent_file("3 3 3\n0 1 2\n")
    with pytest.raises(UsageError, match=r"^line 1: non-integer token in '3 3 3\.5 10'$"):
        parse_pent_file("3 3 3.5 10\n0 1 2\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(UsageError, match=r"^line 3: block has 2 entries, expected 3$"):
        parse_pent_file("3 3 3 10\n0 1 2\n3 4\n")


def test_parse_rejects_missing_trailing_newline():
    with pytest.raises(UsageError, match=r"^missing trailing newline$"):
        parse_pent_file("3 3 3 10\n0 1 2")


def test_parse_rejects_point_out_of_range():
    with pytest.raises(UsageError, match=r"^point 99 outside 0\.\.9$"):
        parse_pent_file("3 3 3 10\n0 1 99\n")


def test_repeated_point_caught_at_develop():
    # the parser keeps blocks as written; closure rejects the repeat
    file = parse_pent_file("3 3 3 10\n0 1 1\n")
    with pytest.raises(UsageError, match=r"^repeated point in line \(0, 1, 1\)$"):
        develop(file)


def test_base_block_file_params():
    file = parse_pent_file("3 3 3 5\n0 1 2\n")
    assert file.params.v == 10
    assert file.d == 5


def test_develop_identity_orbit():
    # d = v: every orbit has length one
    file = parse_pent_file("3 3 3 10\n0 1 2\n")
    geom = develop(file)
    assert geom.lines == frozenset({(0, 1, 2)})


def test_develop_rejects_step_not_dividing_v():
    file = parse_pent_file("3 3 3 3\n0 1 2\n")
    with pytest.raises(UsageError, match=r"^d = 3 does not divide v = 10$"):
        develop(file)


def test_develop_short_orbits():
    # 10 base blocks, d = 2, v = 90: a full orbit set would give 450 lines
    file = parse_pent_file(fixture_text("pent_5_21_5"))
    assert file.d == 2
    assert len(file.blocks) == 10
    geom = develop(file)
    assert len(geom.lines) == 378


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_develop_line_count_bound(name):
    file = parse_pent_file(fixture_text(name))
    geom = develop(file)
    assert len(geom.lines) <= len(file.blocks) * (file.params.v // file.d)


def test_develop_representative_independence():
    file = parse_pent_file(fixture_text("pent_3_18_3"))
    v, d = file.params.v, file.d
    rotated = BaseBlockFile(
        k=file.k,
        r=file.r,
        w=file.w,
        d=file.d,
        blocks=tuple(canonical_line((x + d) % v for x in blk) for blk in file.blocks),
    )
    assert develop(rotated).lines == develop(file).lines


def test_geometry_rejects_stray_point():
    params = derive_params(3, 3, 3)
    with pytest.raises(UsageError, match=r"^point 10 outside 0\.\.9$"):
        geometry(params, [(0, 1, 10)])


# Several bad lines: the refusal names the first in input order, each line
# sorted, and any repeated point before any point out of range.
BAD_LINE_CASES = [
    ([(0, 1, 2), (4, 3, 3), (7, 5, 5), (9, 8, 8)], r"^repeated point in line \(3, 3, 4\)$"),
    ([(9, 8, 8), (4, 3, 3)], r"^repeated point in line \(8, 8, 9\)$"),
    ([(0, 1, 2), (3, 12, 4), (5, -1, 6), (7, 11, 8)], r"^point 12 outside 0\.\.9$"),
    ([(0, 1, 2), (11, 3, -2), (5, -1, 6)], r"^point -2 outside 0\.\.9$"),
    ([(3, 12, 4), (5, 5, 6)], r"^repeated point in line \(5, 5, 6\)$"),
    ([(), (0, 1, 2), [10, 3]], r"^point 10 outside 0\.\.9$"),
]


@pytest.mark.parametrize("lines, message", BAD_LINE_CASES)
def test_geometry_names_the_first_bad_line(lines, message):
    with pytest.raises(UsageError, match=message):
        geometry(derive_params(3, 3, 3), lines)
    # A one-shot iterable of lines is refused alike.
    with pytest.raises(UsageError, match=message):
        geometry(derive_params(3, 3, 3), (ln for ln in lines))


def test_geometry_accepts_empty_and_short_lines():
    geom = geometry(derive_params(3, 3, 3), [(), [2, 0], (9, 0, 5), (9, 0, 5)])
    assert geom.lines == frozenset({(), (0, 2), (0, 5, 9)})


def test_json_round_trip(pent33):
    text = geometry_to_json(pent33)
    again = geometry_from_json(text)
    assert again.params == pent33.params
    assert again.lines == pent33.lines


def test_json_provenance_recorded(pent33):
    text = geometry_to_json(pent33, provenance={"construction": "test"})
    payload = json.loads(text)
    assert payload["provenance"] == {"construction": "test"}
    assert geometry_from_json(text).lines == pent33.lines


def test_json_rejects_garbage():
    with pytest.raises(UsageError, match=r"^bad JSON: Expecting property name"):
        geometry_from_json("{not json")
    with pytest.raises(UsageError, match=r"^bad JSON: nested too deeply$"):
        geometry_from_json('{"k":3,"r":3,"w":3,"lines":' + "[" * 100_000)
    with pytest.raises(UsageError, match=r"^bad JSON: Exceeds the limit"):
        geometry_from_json('{"k":' + "9" * 5000 + "}")
    with pytest.raises(UsageError, match=r"^missing field 'r'$"):
        geometry_from_json('{"k": 3}')


def test_json_rejects_non_integer_points(pent33):
    payload = json.loads(geometry_to_json(pent33))
    for bad in (["a", 1, 2], [0.5, 1, 2], [True, 1, 2], [None, 1, 2]):
        payload["lines"] = [bad]
        with pytest.raises(UsageError, match=r"^line entries must be integers$"):
            geometry_from_json(json.dumps(payload))


def test_json_rejects_lines_not_a_list(pent33):
    payload = json.loads(geometry_to_json(pent33))
    for bad in (5, "012", {"0": [1, 2]}, [5], [[0, 1, 2], 7]):
        payload["lines"] = bad
        with pytest.raises(UsageError, match=r"^lines must be a list of point lists$"):
            geometry_from_json(json.dumps(payload))


def test_json_rejects_v_disagreeing_with_parameters(pent33):
    payload = json.loads(geometry_to_json(pent33))
    payload["v"] = 11
    with pytest.raises(UsageError, match=r"^v = 11 but \(k,r,w\) give v = 10$"):
        geometry_from_json(json.dumps(payload))
    payload["v"] = "10"
    with pytest.raises(UsageError, match=r"^v must be an integer, got '10'$"):
        geometry_from_json(json.dumps(payload))
    del payload["v"]
    assert geometry_from_json(json.dumps(payload)).lines == pent33.lines


def test_json_rejects_non_integer_parameters(pent33):
    payload = json.loads(geometry_to_json(pent33))
    for bad in ("3", 3.0, None, [3]):
        payload["k"] = bad
        with pytest.raises(UsageError, match=rf"^k must be an integer, got {re.escape(repr(bad))}$"):
            geometry_from_json(json.dumps(payload))
    with pytest.raises(UsageError, match=r"^geometry JSON must be an object$"):
        geometry_from_json("[3, 3, 3]")


def test_lines_sorted(pent33):
    listed = pent33.lines_sorted()
    assert listed == sorted(listed)
    assert set(listed) == pent33.lines


# --- the development step carried by a developed geometry --------------------


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_developed_geometry_equals_plain_geometry(name):
    """A developed geometry records its step d; the same lines given to
    geometry() have step v.  Nothing else may tell the two apart, and the
    index built by rotating the representatives' masks equals the one built
    point by point."""
    file = parse_pent_file(fixture_text(name))
    developed = develop(file)
    plain = geometry(developed.params, developed.lines)
    assert (developed.step, plain.step) == (file.d, file.params.v)
    assert developed == plain and hash(developed) == hash(plain)
    assert "step" not in repr(developed)
    text = geometry_to_json(developed)
    assert text == geometry_to_json(plain)
    assert geometry_from_json(text).step == file.params.v
    ours, theirs = developed.incidence, plain.incidence
    assert ours.degree == theirs.degree
    by_point = oracle._lines_by_point(plain)
    for ix in (ours, theirs):
        assert [ix.lines_through(p) for p in range(plain.v)] == by_point
    assert ours.deficiency == theirs.deficiency
    assert (ours.deficiency.step, theirs.deficiency.step) == (file.d, file.params.v)


# --- the one constructor: its step is always an automorphism of its lines ----


@pytest.mark.parametrize("step", [0, -2, 3, 11])
def test_geometry_refuses_a_step_not_dividing_v(pent33, step):
    with pytest.raises(UsageError, match=rf"^d = {step} does not divide v = 10$"):
        Geometry(pent33.params, step, pent33.lines)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_geometry_of_base_blocks_is_their_development(name):
    """The base blocks, or every line, given with the step d make the
    developed geometry and keep its representatives."""
    file = parse_pent_file(fixture_text(name))
    developed = develop(file)
    for given in (map(canonical_line, file.blocks), developed.lines):
        geom = Geometry(file.params, file.d, given)
        assert geom == developed and geom.reps == developed.reps


@settings(max_examples=200)
@given(shape=st.sampled_from([(3, 6, 5), (5, 6, 5)]), data=st.data())
def test_geometry_step_is_an_automorphism_of_its_lines(shape, data):
    """Whatever lines a caller gives, the geometry holds their orbits under
    x -> x + step, as the oracle develops them, and represents them by the
    lines through 0..step-1.  At k = 5, v = 30 and steps 1, 2, 3 and 5 there
    are 6 to 30 windows, so a line meets up to five and its translates
    wrap past v at each of its points."""
    k, r, w = shape
    v = derive_params(k, r, w).v  # 18 or 30
    step = data.draw(st.sampled_from([d for d in range(1, v + 1) if v % d == 0]), "step")
    block = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
    blocks = data.draw(st.lists(block, max_size=8), "blocks")
    file = BaseBlockFile(k=k, r=r, w=w, d=step, blocks=tuple(map(tuple, blocks)))
    geom = Geometry(file.params, step, map(canonical_line, blocks))
    assert {canonical_line((x + step) % v for x in ln) for ln in geom.lines} == geom.lines
    assert geom.lines == oracle.develop(file).lines
    assert geom.reps == {ln for ln in geom.lines if ln[0] < step}
