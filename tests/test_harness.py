"""tools/harness.py: a tool that fails exits 2 and leaves no worktree behind."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _worktrees() -> str:
    return subprocess.run(
        ["git", "worktree", "list", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
@pytest.mark.parametrize(
    "argv, failed",
    [
        pytest.param(
            ["identity.py", "no-such-revision", "--seeds", "1"],
            "identity check failed: git rev-parse --verify no-such-revision^{commit} ...",
            id="identity_bad_rev",
        ),
        pytest.param(
            ["abtime.py", "no-such-revision", "--layer", "client_opt"],
            "abtime failed: git rev-parse --verify no-such-revision^{commit} ...",
            id="abtime_bad_rev",
        ),
        # This one fails after its worktree was made.
        pytest.param(
            ["abtime.py", "HEAD", "--layer", "federated_em_round", "--workload", "known",
             "--rounds", "2"],
            "abtime failed: known makes no call of federated_em_round",
            id="abtime_no_call",
        ),
    ],
)
def test_a_failed_tool_exits_two_and_leaves_no_worktree(argv, failed):
    before = _worktrees()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "failed:" in line]
    assert len(lines) == 1 and lines[0].startswith(failed), proc.stderr
    assert _worktrees() == before
