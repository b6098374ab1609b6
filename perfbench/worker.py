"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py`` with the BLAS thread variables already set, so
numpy is imported single-threaded.  Prints one JSON object as its last
stdout line.  Modes:

``--mode calibrate``  environment block + calibration loops only.
``--mode setup``      set up, report ``setup_s`` and exit (set-up probes).
``--mode run``        set up, run the timed phases, check, report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")


def _args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "calibrate"), default="run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.mode == "calibrate":
        from common import calibrate, environment

        print(json.dumps({"environment": environment(ROOT), "calibration": calibrate()}))
        return 0

    import workloads as wl
    from repro.serving import results_fingerprint
    from spans import Tracer

    import_s = time.monotonic() - args.launched
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return _run(args, wl, Tracer, results_fingerprint, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, Tracer, results_fingerprint, import_s, workdir) -> int:
    from common import peak_rss_mb

    workload = wl.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        wl.install(tracer)
        workload.tracer = tracer
    workload.setup()
    gc.collect()
    setup_s = time.monotonic() - args.launched
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if workload.TIMED_CLOUD:
        workload.cloud()
    overhead = 0.0
    if tracer is None:
        traced_units = []
        workload.body(args.seconds)
    else:
        # Half the body untraced as the reference, half traced.
        tracer.uninstall()
        plain = workload.body(args.seconds / 2)
        wl.install(tracer)
        tracer.body_start = len(tracer.spans)
        traced_units = workload.body(args.seconds / 2, traced=True)
        tracer.uninstall()
        overhead = workload.rate(plain) / workload.rate(traced_units) - 1.0
    attempted, failed = workload.check()
    e2e = workload.end_to_end()
    tail_info = e2e.pop("_tail")
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss_mb()
    e2e["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0

    digest_items = workload.digest_results()
    if digest_items and not isinstance(digest_items[0], str):
        digest = results_fingerprint(digest_items, scenario=args.workload)
    else:
        digest = digest_items[0] if digest_items else ""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "import_s": import_s,
        "end_to_end": e2e,
        "tail": tail_info,
        "units": len(workload.units),
        "unit_walls_s": [u["wall_s"] for u in workload.units],
        "digest": digest,
        "nn_backend": workload.nn_backend(),
        "executor": workload.executor_shape(),
        "cloud": workload.cloud_info,
    }
    if tracer is not None:
        record["per_layer"] = wl.per_layer(
            tracer, workload, traced_units, import_s, overhead
        )
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(
            stem + ".json",
            stem + ".txt",
            {"workload": args.workload, "seed": args.seed, "per_layer": record["per_layer"]},
        )
        record["trace_files"] = [stem + ".json", stem + ".txt"]
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
