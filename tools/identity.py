"""Check that this checkout computes what a git revision computes, bit for bit.

Run from anywhere in the checkout:

    python tools/identity.py <rev> --seeds 1 7 90210

It makes a git worktree of <rev> in a temporary directory. Then, for that
tree and for this checkout (uncommitted changes included), each in fresh
processes, it
- runs perfbench's `one_run` on the workloads known, em and ragged at
  every seed, as `perfbench/run.py` sets them up;
- loads each seed's ragged file with `load_svmlight` and hashes its four
  arrays (features, labels, qids and lengths, with their dtypes and shapes);
- hashes the same four arrays of the train and test sets that
  `cli.load_experiment_data` prepares for each seed's bench corpus and
  ragged file;
- runs criterion 09's spec, this checkout's `tests/criterion_09_spec.json`,
  through `python -m fedltr.cli run` twice: serial, pinned to one processor
  with FEDLTR_WORKERS unset, and pooled, on every processor this process
  may use with FEDLTR_WORKERS=2, which a revision that still reads the
  variable needs to spread its two runs over two processes.

It prints one line per comparison: a workload at a seed (weight digest,
final_ndcg5, clicks and capped clients), a loaded ragged file or a prepared
corpus (its digest) or a CLI output directory under `diff -r`. A workload
line that reads DIFFERS also gives the largest absolute and relative
difference between the two trees' final weights and the difference of
their final_ndcg5. The exit
status is 0 when every comparison is identical, 1 when any differs and 2
when a tree cannot be set up or run. On a machine with one processor the
pooled line says that this checkout ran no pool. It needs Linux, git and
diff, no network, and it changes no file of either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Criterion 09's spec, the file tests/test_acceptance.py runs.
CRITERION_09_SPEC = ROOT / "tests" / "criterion_09_spec.json"

# Run from the root of a tree with the seeds as arguments: one perfbench
# run per workload and seed, printed as one JSON object.
_ONE_RUNS = """
import hashlib, json, sys, tempfile
from pathlib import Path
import numpy as np
sys.path.insert(0, "perfbench")
import workloads
from fedltr import cli
from fedltr.dataset import load_svmlight
def digest(*datasets):
    hashed = hashlib.sha256()
    for data in datasets:
        for array in (data.features, data.labels, data.qids, data.lengths):
            hashed.update(repr((array.dtype.str, array.shape)).encode())
            hashed.update(np.ascontiguousarray(array).tobytes())
    return hashed.hexdigest()
rows, weights = {}, {}
with tempfile.TemporaryDirectory() as tmp:
    for seed in map(int, sys.argv[1:]):
        for name in ("known", "em", "ragged"):
            workload = workloads.WORKLOADS[name]
            corpus = None
            if workload.ragged:
                corpus = Path(tmp) / f"ragged_{seed}.svmlight"
                workloads.write_ragged_corpus(corpus, workloads.derive_seeds(seed).corpus)
                rows[f"load_svmlight ragged seed {seed}"] = [digest(load_svmlight(str(corpus)))]
            spec = workloads.build_spec(workload, seed, corpus, 100)
            # em prepares the bench corpus as known does.
            if name != "em":
                corpus_name = "ragged" if workload.ragged else "bench corpus"
                rows[f"load_experiment_data {corpus_name} seed {seed}"] = [
                    digest(*cli.load_experiment_data(spec))
                ]
            result, state = workloads.one_run(spec)
            rows[f"{name} seed {seed}"] = [
                result.digest, result.final_ndcg5, result.total_clicks, result.capped_clients
            ]
            weights[f"{name} seed {seed}"] = state.model.weights.tolist()
print(json.dumps({"rows": rows, "weights": weights}))
"""
_FIELDS = ("digest", "final_ndcg5", "clicks", "capped")


def row_line(key: str, want: list, got: list, want_weights=None, got_weights=None) -> str:
    """The line of one comparison of `rev`'s row `want` with this
    checkout's `got`. A workload that differs also shows how far its final
    weights and its final_ndcg5 moved."""
    # Digests are compared whole and shown by their first 16 hex digits.
    shown_want, shown_got = ([v[0][:16], *v[1:]] for v in (want, got))
    if got == want:
        detail = ", ".join(f"{f} {v}" for f, v in zip(_FIELDS, shown_got))
        return f"{key}: identical ({detail})"
    detail = ", ".join(
        f"{f} {sw} vs {sg}"
        for f, w, g, sw, sg in zip(_FIELDS, want, got, shown_want, shown_got)
        if w != g
    )
    if want_weights is not None and got_weights is not None:
        before, after = np.asarray(want_weights), np.asarray(got_weights)
        gap = np.abs(after - before)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(gap > 0, gap / np.abs(before), 0.0)
        detail += (
            f"; final weights: largest difference {gap.max():.3g} absolute,"
            f" {rel.max():.3g} relative; final_ndcg5 difference {got[1] - want[1]:+.3g}"
        )
    return f"{key}: DIFFERS ({detail})"


class TreeError(Exception):
    """A tree could not be set up or run."""


def _run(cmd: list[str], cwd: Path, env: dict | None = None, preexec_fn=None) -> str:
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=preexec_fn
    )
    if proc.returncode != 0:
        raise TreeError(f"{' '.join(cmd[:4])} ... in {cwd} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def one_runs(tree: Path, seeds: list[int]) -> dict:
    """In `tree`: under "rows", each workload-and-seed's [digest,
    final_ndcg5, clicks, capped] and each loaded or prepared corpus's
    [digest]; under "weights", each workload-and-seed's final weights."""
    out = _run([sys.executable, "-c", _ONE_RUNS, *map(str, seeds)], tree)
    return json.loads(out.strip().splitlines()[-1])


def _pin_to_one_processor() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cli_run(tree: Path, spec: Path, out: Path, pooled: bool) -> None:
    """Criterion 09's spec through `tree`'s CLI into `out`, pooled or
    serial as the module docstring says."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("FEDLTR_WORKERS", None)
    if pooled:
        env["FEDLTR_WORKERS"] = "2"
    _run([sys.executable, "-m", "fedltr.cli", "run", "--config", str(spec), "--out", str(out)],
         tree, env, None if pooled else _pin_to_one_processor)


def compare(rev: str, seeds: list[int], scratch: Path) -> bool:
    """Print one line per comparison of `rev` with this checkout; True when
    all are identical."""
    commit = _run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], ROOT).strip()
    base = scratch / "rev"
    _run(["git", "worktree", "add", "--detach", str(base), commit], ROOT)
    try:
        print(f"comparing {rev} ({commit[:12]}) with {ROOT}", file=sys.stderr)
        identical = True
        theirs, ours = one_runs(base, seeds), one_runs(ROOT, seeds)
        for key, want in theirs["rows"].items():
            got = ours["rows"][key]
            identical &= got == want
            print(row_line(key, want, got, theirs["weights"].get(key), ours["weights"].get(key)))
        for label in ("serial", "pooled"):
            pooled = label == "pooled"
            outs = [scratch / f"cli_{name}_{label}" for name in ("rev", "checkout")]
            cli_run(base, CRITERION_09_SPEC, outs[0], pooled)
            cli_run(ROOT, CRITERION_09_SPEC, outs[1], pooled)
            diff = subprocess.run(["diff", "-r", *map(str, outs)], capture_output=True, text=True)
            files = f"{len(list(outs[0].iterdir()))} files"
            if pooled and len(os.sched_getaffinity(0)) == 1:
                files += "; one processor, so this checkout ran no pool"
            if diff.returncode == 0:
                print(f"criterion 09 CLI, {label}: identical ({files})")
            else:
                identical = False
                print(f"criterion 09 CLI, {label}: DIFFERS "
                      f"({len(diff.stdout.splitlines())} lines of diff -r)")
        return identical
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT,
                       capture_output=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 90210])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fedltr-identity-") as scratch:
        try:
            identical = compare(args.rev, args.seeds, Path(scratch))
        except TreeError as exc:
            print(f"identity check failed: {exc}", file=sys.stderr)
            return 2
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
