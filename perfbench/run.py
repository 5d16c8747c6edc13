#!/usr/bin/env python3
"""Benchmark of pentgeo: verify the shipped corpus, reject mutants, construct.

Run from the root of a pentgeo checkout:

    python3 perfbench/run.py --workload corpus|mutants|construct \
        --seed N --seconds S --trace 0|1

The program is imported from ./src, never from an installed copy.  The run
sets up, then repeats passes over the workload's fixed op list until the
passes add up to S seconds, and checks every output after each pass.  Each
op runs between two runs of a fixed calibration kernel (calibration.py), and
the end-to-end times are reported in units of that kernel's time.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines before it print every metric, with its unit and sample count, for a
reader.  A run record goes to .perfbench/records/ and, when traced, the spans
go to .perfbench/spans/.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("corpus", "mutants", "construct")

# Set-up is measured this many times, each in a fresh interpreter, and the
# median is reported.  The machine's speed drifts over seconds, so the
# measurements are spread over the run: a few before each pass, the rest at
# the end.
SETUP_REPEATS = 15
SETUP_PER_PASS = 3


# CLI reports and other files the ops write; removed when the run ends.
SCRATCH = OUT / f"tmp-{os.getpid()}"


def _setup_probe(name: str, seed: int) -> float:
    """Import pentgeo and make the workload's inputs; return the seconds."""
    start = perf_counter()
    import workloads

    workloads.BUILDERS[name](seed, SCRATCH)
    return perf_counter() - start


def _setup_sample(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def _run_pass(workload, tracer, budget: float | None = None):
    """Run the op list once; with a budget, start no op once it is spent.

    The calibration kernel runs before each op and after the last one.  An
    op's calibrated time is its time over the mean of the two kernel runs
    around it.  Each op starts from a collected heap, so that where the
    cyclic collector runs inside it does not depend on the ops before it.
    """
    times: dict[str, float] = {}
    calibrated: dict[str, float] = {}
    results: dict[str, object] = {}
    start = perf_counter()
    before = calibration.measure()
    for op in workload.ops:
        if budget is not None and perf_counter() - start >= budget:
            break
        gc.collect()
        t = perf_counter()
        try:
            results[op.name] = op.run(tracer)
        except Exception as exc:  # a failing op is counted, never fatal
            results[op.name] = exc
        times[op.name] = perf_counter() - t
        after = calibration.measure()
        calibrated[op.name] = times[op.name] / ((before + after) / 2)
        before = after
    return perf_counter() - start, times, calibrated, results


def _check_pass(workload, results, failures: list[str]) -> None:
    for op in workload.ops:
        if op.name not in results:
            break
        result = results[op.name]
        if isinstance(result, Exception):
            message = "raised " + "".join(traceback.format_exception_only(result)).strip()
        else:
            try:
                message = op.check(result)
            except Exception as exc:
                message = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
        if message:
            failures.append(f"{workload.name} {op.name}: {message}")


def _best(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each op's fastest raw time over the passes; the first pass is complete."""
    return {name: min(t[name] for t in passes if name in t) for name in passes[0]}


def _median(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each op's median over the passes; the first pass is complete."""
    return {name: statistics.median(t[name] for t in passes if name in t) for name in passes[0]}


def _end_to_end(calibrated: dict[str, float], passes: int, setup: list[float]) -> dict:
    ops = list(calibrated.values())
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "wall_cal": {"value": sum(ops), "unit": "cal", "n": passes},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
            "n": 1,
        },
    }


def _per_layer(workloads, tracers, climbs, overhead: float) -> dict:
    self_s: dict[str, list[float]] = {}
    for tracer in tracers:
        for name, values in tracer.self_times().items():
            self_s.setdefault(name, []).extend(values)

    def total(name: str) -> float:
        return sum(self_s[name])

    out = {}

    def put(name, value, unit, n):
        out[name] = {"value": value, "unit": unit, "n": n}

    def fastest(name: str) -> float:
        # Each fixture's spans come WRAPPED_REPEATS at a time, in order.
        values, step = self_s[name], workloads.WRAPPED_REPEATS
        return sum(min(values[i : i + step]) for i in range(0, len(values), step))

    wrapped = {name: fastest(name) for name in ("core.parse", "core.develop", "pent.verify")}
    fixtures = len(self_s["cli.main"]) // workloads.WRAPPED_REPEATS
    put("cli.verify_overhead_s", fastest("cli.main") - sum(wrapped.values()), "s", fixtures)
    put("core.parse_s", wrapped["core.parse"], "s", fixtures)
    put("core.develop_s", wrapped["core.develop"], "s", fixtures)
    put("pent.verify_s", wrapped["pent.verify"], "s", fixtures)
    for span, metric in (
        ("core.to_json", "core.to_json_s"),
        ("core.from_json", "core.from_json_s"),
        ("pent.verify_invalid", "pent.verify_invalid_s"),
        ("pent.deficiency_graph", "pent.deficiency_graph_s"),
        ("pent.overlap_profile", "pent.overlap_profile_s"),
        ("pent.dist3_analysis", "pent.dist3_analysis_s"),
        ("graphs.girth", "graphs.girth_s"),
        ("graphs.components", "graphs.components_s"),
        ("graphs.distance3_graph", "graphs.distance3_graph_s"),
        ("graphs.inflate", "graphs.inflate_s"),
        ("graphs.shift_automorphisms", "graphs.shift_automorphisms_s"),
        ("designs.field", "designs.field_s"),
        ("designs.sts", "designs.sts_s"),
        ("designs.uniform_gdd", "designs.uniform_gdd_s"),
        ("construct.triple", "construct.triple_s"),
        ("construct.product", "construct.product_s"),
        ("construct.c36_hs", "construct.c36_hs_s"),
    ):
        put(metric, total(span), "s", len(self_s[span]))
    c36 = self_s["construct.construction36"]
    put("construct.construction36_s", statistics.median(c36), "s", len(c36))

    iterations = [outcome.iterations_used for _, _, outcome in climbs]
    attempts = sum(outcome.attempts_used for _, _, outcome in climbs)
    completed = sum(outcome.status == "complete" for _, _, outcome in climbs)
    put("hillclimb.iterations_p50", statistics.median(iterations), "count", len(climbs))
    put("hillclimb.iterations_max", max(iterations), "count", len(climbs))
    put("hillclimb.attempts_total", attempts, "count", len(climbs))
    put("hillclimb.success_ratio", completed / attempts, "ratio", attempts)
    put("hillclimb.iters_per_s", sum(iterations) / total("hillclimb.climb"), "1/s", len(climbs))
    put("trace.overhead_s", overhead, "s", 2)
    return out


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = f"  ({m['passes']} passes)" if "passes" in m else ""
        print(f"  {name:<32} {m['value']:>14.6f} {m['unit']:<6} n={m['n']}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "pentgeo" / "__init__.py").is_file():
        print(f"perfbench: no pentgeo source at {SRC / 'pentgeo'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        shutil.rmtree(SCRATCH, ignore_errors=True)
        return 0

    import pentgeo
    import workloads
    from tracing import NULL_TRACER, Tracer

    if not Path(pentgeo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported pentgeo from {pentgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.BUILDERS[args.workload](args.seed, SCRATCH)
    failures: list[str] = []
    attempted = 0
    walls: list[float] = []
    setup: list[float] = []
    untraced: list[dict[str, float]] = []
    untraced_cal: list[dict[str, float]] = []
    traced: list[tuple[dict[str, float], Tracer]] = []
    # Passes run until they add up to --seconds; the last one stops when the
    # time is spent.  A traced run alternates untraced and traced passes so
    # both see the same machine state, and needs one complete pass of each.
    while sum(walls) < args.seconds or (args.trace and not traced):
        tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
        complete = not untraced or (tracer is not None and not traced)
        budget = None if complete else args.seconds - sum(walls)
        for _ in range(min(SETUP_PER_PASS, SETUP_REPEATS - len(setup))):
            setup.append(_setup_sample(args.workload, args.seed))
        wall, times, calibrated, results = _run_pass(workload, tracer or NULL_TRACER, budget)
        _check_pass(workload, results, failures)
        attempted += len(results)
        del results
        walls.append(wall)
        if tracer is None:
            untraced.append(times)
            untraced_cal.append(calibrated)
        else:
            traced.append((times, tracer))
    while len(setup) < SETUP_REPEATS:
        setup.append(_setup_sample(args.workload, args.seed))
    best = _best(untraced)
    calibrated_ops = _median(untraced_cal)
    e2e = _end_to_end(calibrated_ops, len(untraced), setup)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "ops_per_pass": len(workload.ops),
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "op_times_s": {name: [t[name] for t in untraced if name in t] for name in best},
        "op_times_cal": {name: [t[name] for t in untraced_cal if name in t] for name in best},
        "wall_s": sum(best.values()),
        "op_max_cal": max(calibrated_ops.values()),
        "end_to_end": e2e,
        "workload_metrics": {
            name: {"value": value, "unit": "s", "n": n, "passes": len(untraced)}
            for name, (value, n) in workload.summarize(best).items()
        },
    }
    del workload

    if args.trace:
        tracers = [traced[0][1]]
        for other in WORKLOAD_NAMES:
            if other == args.workload:
                continue
            extra = workloads.BUILDERS[other](args.seed, SCRATCH)
            tracer = Tracer()
            _, _, _, results = _run_pass(extra, tracer)
            _check_pass(extra, results, failures)
            attempted += len(extra.ops)
            tracers.append(tracer)
        tracer = Tracer()
        climbs = workloads.layer_cases(tracer, args.seed, SCRATCH)
        tracers.append(tracer)
        overhead = sum(_best([times for times, _ in traced]).values()) - record["wall_s"]
        layers = _per_layer(workloads, tracers, climbs, overhead)
        record["per_layer"] = layers
        record["climbs"] = [
            {"w": w, "seed": s, "iterations": o.iterations_used, "attempts": o.attempts_used}
            for w, s, o in climbs
        ]
        spans_dir = OUT / "spans"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([t.dump() for t in tracers])
        )

    shutil.rmtree(SCRATCH, ignore_errors=True)
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["failures"] = failures
    records_dir = OUT / "records"
    records_dir.mkdir(exist_ok=True)
    (records_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"commit={record['commit'][:12]} python={record['python']} nproc={record['nproc']}"
    )
    _print_metrics("end-to-end (untraced passes):", e2e)
    print(f"  {'wall_s (raw, fastest repeats)':<32} {record['wall_s']:>14.6f} s")
    print(f"  {'op_max_cal (slowest op)':<32} {record['op_max_cal']:>14.6f} cal")
    _print_metrics(f"{args.workload} metrics:", record["workload_metrics"])
    print(f"  {'error_rate':<32} {len(failures) / attempted:>14.6f} ratio  n={attempted}")
    if args.trace:
        _print_metrics("per-layer (traced run):", record["per_layer"])
    shown = record["per_layer"] if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in shown.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
