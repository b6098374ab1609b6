"""Benchmark entry point: one workload, fresh processes, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_start_journey --seed 1 \
        --seconds 25 --trace 0

Runs, each in its own fresh process with BLAS pinned to one thread:
a calibration probe, a set-up-only probe, the measured workload, a
second set-up-only probe (``setup_s`` is the median of the three
set-ups) and a second calibration probe.  Prints every metric with its
unit and direction, then, as the last stdout line, ``{"correct",
"attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  Exits non-zero, printing no result, when the
program or the manifest is missing or a probe fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
#: Extra set-up-only processes; setup_s is the median of these plus the run's.
SETUP_PROBES = 2
#: Every process this run starts must end within this budget.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--launched", repr(time.monotonic()),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"out of time before the {mode} process")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time budget") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{mode} process exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def _manifest() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    try:
        manifest = _manifest()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        before = _child("calibrate", args, deadline)
        # One set-up probe before the run and one after it, so the three
        # set-ups fall at different moments of the host's speed drift.
        setups = []
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes // 2):
            setups.append(_child("setup", args, deadline)["setup_s"])
        record = _child("run", args, deadline)
        for _ in range(probes - probes // 2):
            setups.append(_child("setup", args, deadline)["setup_s"])
        after = _child("calibrate", args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setups.append(record["end_to_end"]["setup_s"])
    record["setup_samples_s"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    record["environment"] = before["environment"]
    record["calibration"] = {"before": before["calibration"], "after": after["calibration"]}

    specs = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {
        s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs
    }

    os.makedirs(OUT, exist_ok=True)
    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, stem), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"# nn backend {record['nn_backend']}; executor {record['executor']}")
    print("# calibration " + json.dumps(record["calibration"]))
    print(f"# digest {record['digest']}; tail {json.dumps(record['tail'])}")
    for spec in specs:
        print(f"{spec['name']:<42} {metrics[spec['name']]['value']:>16.6f} "
              f"{spec['unit']:<6} {spec['better']}")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
