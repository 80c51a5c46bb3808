"""What tools/identity.py and tools/abtime.py share: a git worktree of a
revision, a command runner, a pin to one processor, perfbench's workload
setup and the exit status. It imports neither fedltr nor perfbench, so a
process may import it before it picks the tree whose fedltr it runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupError(Exception):
    """A tree could not be set up or run, or the trees cannot be compared."""


def run(cmd: list[str], cwd: Path, env: dict | None = None) -> str:
    """`cmd`'s stdout; a nonzero exit raises SetupError with its stderr."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(cmd[:4])} ... in {cwd} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


@contextmanager
def worktree(rev: str, scratch: Path):
    """The commit `rev` names and a detached worktree of it under `scratch`,
    removed again on exit."""
    commit = run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], ROOT).strip()
    path = scratch / "rev"
    run(["git", "worktree", "add", "--detach", str(path), commit], ROOT)
    try:
        yield commit, path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                       capture_output=True)


@contextmanager
def one_processor():
    """This process, and every process it starts meanwhile, on one processor."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def workload_spec(workloads, name: str, seed: int, scratch: Path, rounds: int):
    """The spec of perfbench workload `name` and its corpus file (None but
    for a ragged workload), set up as `perfbench/run.py` does with the tree's
    `workloads` module."""
    workload = workloads.WORKLOADS[name]
    corpus = None
    if workload.ragged:
        corpus = Path(scratch) / f"ragged_{seed}.svmlight"
        workloads.write_ragged_corpus(corpus, workloads.derive_seeds(seed).corpus)
    return workloads.build_spec(workload, seed, corpus, rounds), corpus


def exit_status(tool: str, compare) -> int:
    """`compare(scratch)` in a temporary directory: 0 when it returns True,
    1 when False, 2 when it raises SetupError, printed as `<tool> failed:`."""
    with tempfile.TemporaryDirectory(prefix="fedltr-tree-") as scratch:
        try:
            same = compare(Path(scratch))
        except SetupError as exc:
            print(f"{tool} failed: {exc}", file=sys.stderr)
            return 2
    return 0 if same else 1
