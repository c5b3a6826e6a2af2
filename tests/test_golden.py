"""Golden output: a small sweep's output directory is byte-for-byte pinned.

A change that means to keep behaviour must keep these digests; a change that
means to alter output updates them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from weaver.bench import SweepConfig, run_sweep
from weaver.orchestrator import Method
from weaver.tasks import synthetic_tasks

GOLDEN = {
    "gaia": "515eff35aba25a471fe3e2b7f7fc7119c865b068d31a08d4f0d680504637b456",
    "browse": "85a0f5f38266385b9d2ab43122628e9fc1bfd65a3a21788b3325958b678936f1",
}


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("catalog", sorted(GOLDEN))
def test_sweep_output_matches_golden_digest(catalog, tmp_path):
    config = SweepConfig(catalog=catalog, validation_size=12, selfplay_rounds=2)
    sweep = run_sweep(
        synthetic_tasks(seed=3, num_tasks=24),
        methods=list(Method),
        budgets=["0.05", "0.60"],
        seeds=[1],
        config=config,
        out_dir=tmp_path,
    )
    errors = [r.error for c in sweep.cells.values() for r in c.results if r.error]
    assert errors == []
    assert tree_digest(tmp_path) == GOLDEN[catalog]
