"""Each quick demo runs standalone against the package sources.

``06_sweep_and_reports.py`` is left out: it is a multi-second sweep, and the
acceptance suite's trend sweep already covers that path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_the_five_quick_demos_are_collected():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
