"""The benchmark's tiny-size smoke check still runs against this checkout.

`perfbench/` wraps functions of `weaver.bench` and `weaver.collab` by name
(including their `ThreadPoolExecutor`), so a source change that drops or
renames one of them shows up here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
