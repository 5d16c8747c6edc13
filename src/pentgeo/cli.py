"""pentctl: verify, develop, classify, construct and plan from the shell.

Exit codes: 0 success, 1 negative verdict or missing ingredient, 2 malformed
input or parameters outside their domain, 3 hill climb exhausted.

The constructions, designs and hill climb are imported by the verbs that
use them, so verify, develop and classify start without loading them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import pent
from .core import (
    Geometry,
    _decode_json,
    _json_int,
    develop,
    geometry_from_json,
    geometry_to_json,
    parse_pent_file,
)
from .errors import ClimbFailed, PentError, UsageError
from .graphs import (
    Graph,
    generalized_petersen,
    hoffman_singleton,
    orbit_graph,
    parse_graph_file,
    petersen,
    report,
    write_graph_file,
)

if TYPE_CHECKING:
    from .construct import GddFillPlan
    from .hillclimb import ClimbConfig


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, ClimbFailed):
        return 3
    if isinstance(exc, (UsageError, OSError)):
        return 2
    if isinstance(exc, PentError):
        return 1
    raise exc


def _read_text(path: str) -> str:
    # stdin's own decoding would pass undecodable bytes on as surrogates.
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_geometry(path: str) -> Geometry:
    """Accept either the base-block format or serialized geometry JSON."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return geometry_from_json(text)
    return develop(parse_pent_file(text))


def _load_graph(path: str) -> Graph:
    return parse_graph_file(_read_text(path))


def _only_read_by(readers: str, read: bool, option: str, value) -> None:
    """Refuse an option given where nothing reads it (read is False)."""
    if value is not None and not read:
        raise UsageError(f"{option} is only read by {readers}")


def _climb_config(args: argparse.Namespace) -> ClimbConfig:
    from .hillclimb import ClimbConfig

    return ClimbConfig() if args.seed is None else ClimbConfig(seed=args.seed)


def _report_dict(rep: pent.VerificationReport) -> dict:
    d = rep.deficiency
    out: dict = {
        "k": rep.params.k,
        "r": rep.params.r,
        "w": rep.params.w,
        "v": rep.params.v,
        "b": rep.params.b,
        "valid": rep.valid,
        "type": rep.geometry_type,
        "axioms": {
            a.name: {"passed": a.passed, "witnesses": list(a.witnesses)} for a in rep.axioms
        },
        "deficiency": {
            "regular_degree": d.regular_degree,
            "girth": d.girth,
            "connected": d.connected,
            "components": len(d.component_sizes),
        },
        "kww_components": rep.kww_components,
    }
    if rep.line_split is not None:
        s = rep.line_split
        out["line_split"] = {"opposite": s.b_opp, "non_opposite": s.b_non_opp, "e": s.e}
    if rep.overlap_profile is not None:
        out["overlap_profile"] = {str(u): n for u, n in sorted(rep.overlap_profile.items())}
    return out


def _report_text(rep: pent.VerificationReport) -> str:
    p = rep.params
    lines = [f"PENT({p.k},{p.r},{p.w}): v = {p.v}, b = {p.b}"]
    for a in rep.axioms:
        mark = "ok" if a.passed else "FAIL"
        lines.append(f"  {a.name}: {mark}")
        lines.extend(f"    {wit}" for wit in a.witnesses)
    d = rep.deficiency
    girth = "none" if d.girth is None else str(d.girth)
    conn = "connected" if d.connected else f"{len(d.component_sizes)} components"
    lines.append(f"  deficiency: degree {d.regular_degree}, girth {girth}, {conn}")
    if rep.line_split is not None:
        s = rep.line_split
        lines.append(f"  lines: {s.b_opp} opposite + {s.b_non_opp} other (e = {s.e})")
    lines.append(f"  type: {rep.geometry_type}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = pent.verify(_load_geometry(args.file))
    if args.json:
        _emit(json.dumps(_report_dict(rep), separators=(",", ":")) + "\n", args.output)
    else:
        _emit(_report_text(rep), args.output)
    return 0 if rep.valid else 1


def _cmd_develop(args: argparse.Namespace) -> int:
    file = parse_pent_file(_read_text(args.file))
    geom = develop(file)
    provenance = {"source": "base-blocks", "d": file.d, "base_blocks": len(file.blocks)}
    _emit(geometry_to_json(geom, provenance), args.output)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    rep = pent.verify(_load_geometry(args.file))
    if not rep.valid:
        print("invalid: " + ", ".join(rep.failed_axioms()), file=sys.stderr)
        return 1
    _emit(rep.geometry_type + "\n", args.output)
    return 0


_GRAPH_SOURCES = ("petersen", "gp", "hs", "orbit")


def _cmd_graph(args: argparse.Namespace) -> int:
    _only_read_by("gp", args.source == "gp", "N", args.n)
    _only_read_by("orbit", args.source == "orbit", "--file", args.file)
    _only_read_by("orbit", args.source == "orbit", "--step", args.step)
    if args.source == "petersen":
        g = petersen()
    elif args.source == "gp":
        if args.n is None:
            raise UsageError("gp needs N")
        g = generalized_petersen(args.n)
    elif args.source == "hs":
        g = hoffman_singleton()
    else:
        if args.file is None:
            raise UsageError("orbit needs a base edge file")
        if args.step is None:
            raise UsageError("orbit needs --step")
        base = _load_graph(args.file)
        g = orbit_graph(base.edges(), args.step, base.n)
    if args.report:
        rep = report(g)
        girth = "none" if rep.girth is None else str(rep.girth)
        degree = "irregular" if rep.regular_degree is None else str(rep.regular_degree)
        conn = "connected" if rep.connected else f"{len(rep.component_sizes)} components"
        _emit(
            f"n {g.n}  edges {g.edge_count()}  degree {degree}  girth {girth}  {conn}\n",
            args.output,
        )
    else:
        _emit(write_graph_file(g), args.output)
    return 0


def _cmd_sts(args: argparse.Namespace) -> int:
    from .designs import steiner_to_json_dict, sts
    from .hillclimb import climb_sts

    _only_read_by("--climb", args.climb, "--seed", args.seed)
    system = climb_sts(args.w, _climb_config(args)) if args.climb else sts(args.w)
    _emit(json.dumps(steiner_to_json_dict(system), separators=(",", ":")) + "\n", args.output)
    return 0


def _cmd_gdd(args: argparse.Namespace) -> int:
    from .designs import gdd_to_json_dict, uniform_gdd
    from .hillclimb import climb_3gdd

    u = args.groups if args.groups is not None else args.k
    climbed = args.climb or u != args.k
    _only_read_by("a climb (--climb, or --groups other than k)", climbed, "--seed", args.seed)
    if climbed:
        if args.k != 3:
            raise UsageError(f"only 3-GDDs can be hill climbed, got k = {args.k}")
        d = climb_3gdd(args.g, u, _climb_config(args))
    else:
        d = uniform_gdd(args.k, args.g)
    _emit(json.dumps(gdd_to_json_dict(d), separators=(",", ":")) + "\n", args.output)
    return 0


def _json_ints(value, field: str) -> tuple[int, ...]:
    if type(value) is not list or set(map(type, value)) - {int}:
        raise UsageError(f"bad gdd spec: {field} must be a list of integers")
    return tuple(value)


def _load_gdd_fill(path: str) -> GddFillPlan:
    """Load a gdd-fill spec, checking every type before reading an ingredient.

    The spec is {"gdd": {"k": int, "groups": [[int]], "lines": [[int]]},
    "ingredients": {"<group size>": "<geometry path>"}}; relative paths are
    taken from the spec's directory."""
    from .construct import GddFillPlan
    from .designs import Gdd

    spec = _decode_json(_read_text(path))
    if type(spec) is not dict or "gdd" not in spec or "ingredients" not in spec:
        raise UsageError("gdd-fill spec needs 'gdd' and 'ingredients'")
    gdd, named = spec["gdd"], spec["ingredients"]
    if type(gdd) is not dict or not {"k", "groups", "lines"} <= gdd.keys():
        raise UsageError("bad gdd spec: gdd needs 'k', 'groups' and 'lines'")
    if type(gdd["groups"]) is not list or type(gdd["lines"]) is not list:
        raise UsageError("bad gdd spec: groups and lines must be lists")
    design = Gdd(
        k=_json_int(gdd["k"], "k"),
        groups=tuple(_json_ints(grp, "a group") for grp in gdd["groups"]),
        blocks=frozenset(tuple(sorted(_json_ints(blk, "a line"))) for blk in gdd["lines"]),
    )
    if type(named) is not dict:
        raise UsageError("bad gdd spec: ingredients must map group sizes to paths")
    for size, rel in named.items():
        if not (size.isascii() and size.isdigit()) or type(rel) is not str:
            raise UsageError(
                f"bad gdd spec: ingredient {size!r}: {rel!r} is not a group size and a path"
            )
    base = Path(".") if path == "-" else Path(path).parent
    ingredients = {int(size): _load_geometry(str(base / rel)) for size, rel in named.items()}
    return GddFillPlan(gdd=design, ingredients=ingredients)


def _cmd_construct(args: argparse.Namespace) -> int:
    from . import construct

    _only_read_by("product and c36", args.kind in ("product", "c36"), "--h", args.h)
    _only_read_by("c36", args.kind == "c36", "--k", args.k)
    _only_read_by("girth5 and c36", args.kind in ("girth5", "c36"), "--seed", args.seed)
    config = _climb_config(args)
    if args.kind == "tripling":
        geom = construct.triple(_load_geometry(args.file))
        provenance = {"construction": "tripling"}
    elif args.kind == "product":
        if args.h is None:
            raise UsageError("product needs --h")
        geom = construct.product(_load_geometry(args.file), args.h)
        provenance = {"construction": "product", "h": args.h}
    elif args.kind == "gdd-fill":
        plan = _load_gdd_fill(args.file)
        geom = construct.gdd_fill(plan)
        provenance = {"construction": "gdd-fill", "group_type": plan.gdd.group_type()}
    elif args.kind == "girth5":
        geom = construct.construction36(_load_graph(args.file), 1, 3, config)
        provenance = {"construction": "girth5", "seed": config.seed}
    else:
        if args.h is None:
            raise UsageError("c36 needs --h")
        k = 3 if args.k is None else args.k
        geom = construct.construction36(_load_graph(args.file), args.h, k, config)
        provenance = {"construction": "c36", "h": args.h, "k": k, "seed": config.seed}
    _emit(geometry_to_json(geom, provenance), args.output)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from . import construct

    if args.family == "pent3":
        plan = construct.plan_pent3(args.r0, args.r1, args.r2, args.w, args.target)
    else:
        plan = construct.plan_pent5(args.r)
    if plan is None:
        _emit(json.dumps({"reachable": False}) + "\n", args.output)
        return 1
    payload = {"reachable": True, **asdict(plan)}
    if args.family == "pent3":
        payload["target_r"] = plan.target_r
    else:
        payload["part_counts"] = dict(zip(map(str, construct.PENT5_PART_SIZES), plan.part_counts))
    _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.output)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The pentctl argument parser, built once per process and shared by
    every main() call."""
    parser = argparse.ArgumentParser(prog="pentctl", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("verify", help="check the axioms of a geometry")
    p.add_argument("file", help="geometry JSON or base-block file; '-' for stdin")
    p.add_argument("--json", action="store_true", help="machine readable report")
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("develop", help="expand base blocks into geometry JSON")
    p.add_argument("file", help="base-block file; '-' for stdin")
    add_output(p)
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser("classify", help="print the deficiency type A-F")
    p.add_argument("file", help="geometry JSON or base-block file; '-' for stdin")
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("graph", help="emit a named graph or an orbit closure")
    p.add_argument("source", choices=_GRAPH_SOURCES)
    p.add_argument("n", nargs="?", type=int, default=None, help="order parameter for gp")
    p.add_argument("--file", default=None, help="base edges for orbit; '-' for stdin")
    p.add_argument("--step", type=int, default=None, help="development step for orbit")
    p.add_argument("--report", action="store_true", help="print degree/girth summary instead")
    add_output(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("sts", help="Steiner triple system on w points")
    p.add_argument("w", type=int)
    p.add_argument("--climb", action="store_true", help="hill climb instead of direct recipe")
    p.add_argument("--seed", type=int, default=None, help="climb seed (default 0)")
    add_output(p)
    p.set_defaults(func=_cmd_sts)

    p = sub.add_parser("gdd", help="group divisible design with blocks of size k")
    p.add_argument("k", type=int)
    p.add_argument("g", type=int, help="group size")
    p.add_argument("--climb", action="store_true", help="hill climb instead of direct recipe")
    p.add_argument("--groups", type=int, default=None, help="group count (default k)")
    p.add_argument("--seed", type=int, default=None, help="climb seed (default 0)")
    add_output(p)
    p.set_defaults(func=_cmd_gdd)

    p = sub.add_parser("construct", help="build a geometry from ingredients")
    p.add_argument("kind", choices=("tripling", "product", "gdd-fill", "girth5", "c36"))
    p.add_argument("file", help="input geometry, spec JSON or graph; '-' for stdin")
    p.add_argument("--h", type=int, default=None, help="copies per point (product, c36)")
    p.add_argument("--k", type=int, default=None, help="line size for c36 (default 3)")
    p.add_argument("--seed", type=int, default=None, help="climb seed (default 0)")
    add_output(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("plan", help="parameter search for the recursive families")
    fam = p.add_subparsers(dest="family", required=True)
    p3 = fam.add_parser("pent3", help="reach a target replication number for k = 3")
    p3.add_argument("r0", type=int)
    p3.add_argument("r1", type=int)
    p3.add_argument("r2", type=int)
    p3.add_argument("w", type=int)
    p3.add_argument("target", type=int)
    add_output(p3)
    p3.set_defaults(func=_cmd_plan)
    p5 = fam.add_parser("pent5", help="girth-5 pentagonal geometry sizes for k = 5")
    p5.add_argument("r", type=int)
    add_output(p5)
    p5.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PentError, OSError) as exc:
        print(f"pentctl: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
