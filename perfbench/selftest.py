#!/usr/bin/env python3
"""Self-test of the benchmark's seeding, run from the root of a checkout:

    python3 perfbench/selftest.py

For two workload seeds it derives the inputs and runs the seeded climbs in two
fresh interpreters with different PYTHONHASHSEED values.  It checks that one
seed always gives the same mutants, op orders and hillclimb iteration counts,
and that the two seeds give different mutants.  Exit status 0 means it passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(seed: int) -> dict:
    import workloads
    from tracing import NULL_TRACER

    geoms = {name: workloads.load_fixture(name) for name in workloads.FIXTURE_NAMES}
    mutants = [(label, geom.lines_sorted()) for label, geom in workloads.make_mutants(seed, geoms)]
    orders = {
        name: [op.name for op in workloads.BUILDERS[name](seed, Path(os.devnull)).ops]
        for name in ("mutants", "construct")
    }
    climbs = [
        (w, s, outcome.iterations_used, outcome.attempts_used)
        for w, s, outcome in workloads.sts_climbs(NULL_TRACER, seed)
    ]
    return {
        "mutants": hashlib.sha256(json.dumps(mutants).encode()).hexdigest(),
        "orders": orders,
        "climbs": climbs,
    }


def run_child(seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(seed)],
        capture_output=True,
        text=True,
        env=env,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    if not (SRC / "pentgeo" / "__init__.py").is_file():
        print(f"selftest: no pentgeo source at {SRC / 'pentgeo'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if len(sys.argv) == 3 and sys.argv[1] == "--emit":
        print(json.dumps(digest(int(sys.argv[2]))))
        return 0
    failures = []
    by_seed = {}
    for seed in (0, 1):
        first, second = run_child(seed, "1"), run_child(seed, "2")
        if first != second:
            failures.append(f"seed {seed} gave different inputs or climb counts in two processes")
        by_seed[seed] = first
    if by_seed[0]["mutants"] == by_seed[1]["mutants"]:
        failures.append("seeds 0 and 1 gave the same mutants")
    for line in failures:
        print(f"selftest: FAILED {line}", file=sys.stderr)
    if not failures:
        print("selftest: ok; seeds reproduce mutants, op orders and climb counts")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
