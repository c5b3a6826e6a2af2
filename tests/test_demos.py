"""Every demo, and README's quick tour, runs standalone against the package
sources and leaves nothing in the temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_is_collected():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06"]


def run_script(path, cwd, tmpdir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = run_script(ROOT / "demos" / demo, tmp_path, tmpdir)
    assert proc.returncode == 0, proc.stderr
    assert list(tmpdir.iterdir()) == []


def test_readme_quick_tour_runs(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    tour = tmp_path / "quick_tour.py"
    tour.write_text(section.split("```python\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    proc = run_script(tour, tmp_path)
    assert proc.returncode == 0, proc.stderr
    solved, cost, steps = proc.stdout.split()
    assert solved in ("True", "False") and int(steps) > 0
