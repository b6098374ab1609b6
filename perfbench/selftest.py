"""Self-test of the benchmark: tiny sizes, every metric, parseable traces.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload, at ``--seconds 4`` (the reduced sizes),
exits 0, prints a last line with exactly the four result keys, passes
its correctness checks, and reports every manifest metric with the
manifest's unit, untraced and traced; that the traced runs write a
parseable trace whose spans and metrics cover every layer; that the
tail statistic refuses too few samples; and that a directory holding
only ``BENCHMARK.json`` and the benchmark exits non-zero without a
result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import tail  # noqa: E402

#: Layers of the per-layer table; ``runtime`` and start-up are read from
#: rusage and clocks, the rest must also appear as spans.
LAYERS = (
    "signals", "runtime", "orchestration", "clustering", "scenarios",
    "resilience", "core", "nn", "serving", "datasets", "import_s",
)
SPAN_LAYERS = (
    "signals", "orchestration", "clustering", "scenarios", "resilience",
    "core", "nn", "serving", "datasets",
)


def _run(cwd, workload, trace, seconds="4"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_tail():
    _expect(tail(list(range(20)))["percentile"] == 50.0, "tail of 20 is p50")
    t = tail([float(i) for i in range(100)])
    _expect(t["value"] == 89.0 and t["percentile"] == 90.0, f"tail of 100: {t}")
    try:
        tail(list(range(19)))
    except ValueError:
        return
    raise AssertionError("tail accepted fewer than 20 samples")


def check_workloads(manifest):
    span_layers = set()
    metric_layers = set()
    for spec in manifest["workloads"]:
        name = spec["name"]
        for trace in (0, 1):
            done = _run(ROOT, name, trace)
            _expect(done.returncode == 0, f"{name} trace={trace}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            _expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result keys {sorted(result)}",
            )
            _expect(result["correct"] is True and result["failed"] == 0,
                    f"{name}: correctness failed {result}")
            _expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            specs = manifest["per_layer" if trace else "end_to_end"]
            _expect(
                set(result["metrics"]) == {s["name"] for s in specs},
                f"{name} trace={trace}: metric names differ from BENCHMARK.json",
            )
            for s in specs:
                metric = result["metrics"][s["name"]]
                _expect(metric["unit"] == s["unit"], f"{name}: unit of {s['name']}")
                _expect(isinstance(metric["value"], float), f"{name}: {s['name']}")
            if trace:
                path = os.path.join(HERE, "_out", f"trace-{name}-seed7.json")
                with open(path) as fh:
                    payload = json.load(fh)
                span_layers |= {s[0].split(".", 1)[0] for s in payload["spans"]}
                metric_layers |= {
                    k.split(".", 1)[0] for k, v in payload["per_layer"].items() if v
                }
                _expect(os.path.exists(path[:-5] + ".txt"), f"{name}: no summary")
            print(f"ok  {name} trace={trace}", flush=True)
    _expect(set(SPAN_LAYERS) <= span_layers,
            f"spans miss layers {set(SPAN_LAYERS) - span_layers}")
    _expect(set(LAYERS) <= metric_layers,
            f"per-layer metrics miss layers {set(LAYERS) - metric_layers}")
    print("ok  traces cover every layer", flush=True)


def check_bare_directory():
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
        done = _run(bare, "fleet_personalize", 0, seconds="20")
        _expect(done.returncode != 0, "a checkout without the program exited 0")
        _expect('"metrics"' not in done.stdout, "it printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory exits non-zero", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    check_tail()
    check_bare_directory()
    check_workloads(manifest)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
