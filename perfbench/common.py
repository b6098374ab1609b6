"""Statistics, environment block and host calibration for the benchmark.

numpy is imported only inside the functions that use it, so importing
this module never loads it.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Dict, Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Dict:
    """The highest percentile that has at least ten samples beyond it.

    Returns the value with the percentile and sample count it rests on.
    With ``n`` samples sorted ascending, the value at rank ``n - 10``
    (1-based) has exactly ten samples above it, so it is the
    ``100 * (n - 10) / n`` th percentile.  Fewer than 20 samples would
    put that at or below the median, which is refused.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        raise ValueError(
            f"a tail needs >= {2 * TAIL_BEYOND} samples, got {n}"
        )
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return {
        "value": float(ordered[rank - 1]),
        "percentile": round(100.0 * rank / n, 2),
        "samples": n,
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def calibrate() -> Dict[str, float]:
    """A fixed pure-Python loop and a fixed GEMM loop, timed.

    Recorded before and after each workload so host drift is visible;
    no metric is adjusted by it.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(4_000_000):
        acc += i * i
    python_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((256, 256))
    start = time.perf_counter()
    for _ in range(400):
        a = np.tanh(a @ a.T * 1e-3)
    gemm_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "gemm_loop_s": gemm_s}


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str) -> Dict:
    """nproc, Python, numpy + BLAS, BLAS threads and the git sha."""
    import numpy as np

    blas: Dict[str, str] = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": str(info.get("name")), "version": str(info.get("version"))}
    except TypeError:  # numpy < 1.25 has no mode="dicts"
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(root),
        "platform": platform.platform(),
    }

