"""Static-analyzer wall-time bench: serial vs parallel file parsing.

``analyze_paths`` fans the per-file work (one parse, the per-file rules,
summary extraction) out over the same sanctioned executor machinery the
experiments use.  This bench records serial vs parallel wall time over
``src/repro`` into ``BENCH_runtime.json`` (section ``analyzer``).  As
with the runtime bench, wall times are recorded, not asserted — the
hard assertion is that the parallel run reports byte-for-byte the same
findings as the serial one.  ``src/repro`` is clean, so the comparison
also runs over ``tests/``, whose findings span per-file and whole-repo
rules.
"""

from pathlib import Path

import pytest

from repro.analysis.dataflow.engine import analyze_paths

from test_runtime_scaling import _merge_report, _timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORKERS = 2


def _keyed(result):
    return sorted(
        (f.path, f.code, f.line, f.col, f.message) for f in result.findings
    )


@pytest.mark.smoke
def test_analyzer_scaling():
    serial, serial_s = _timed(analyze_paths, [SRC])
    parallel, parallel_s = _timed(analyze_paths, [SRC], workers=WORKERS)

    assert serial.files == parallel.files
    assert serial.errors == parallel.errors == []
    assert _keyed(serial) == _keyed(parallel)

    dirty_serial = analyze_paths([ROOT / "tests"])
    dirty_parallel = analyze_paths([ROOT / "tests"], workers=WORKERS)
    codes = {f.code for f in dirty_serial.findings}
    assert {"RPR005", "RPR009"} <= codes  # per-file rules
    assert {"RPR014", "RPR015"} <= codes  # whole-repo rules
    assert _keyed(dirty_serial) == _keyed(dirty_parallel)

    _merge_report(
        "analyzer",
        {
            "files": serial.files,
            "findings": len(serial.findings),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "workers": WORKERS,
            "bit_identical": True,
        },
    )
    print(
        f"\n[analyzer] {serial.files} files: serial {serial_s:.2f}s, "
        f"parallel({WORKERS}) {parallel_s:.2f}s"
    )
