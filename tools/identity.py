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
  through `python -m fedltr.cli run` twice: serial, pinned to one
  processor, and pooled, on every processor this process may use.

It prints one line per comparison: a workload at a seed (weight digest,
final_ndcg5, clicks and capped clients), a loaded ragged file or a prepared
corpus (its digest) or a CLI output directory, file by file. A workload
line that reads DIFFERS also gives the largest absolute and relative
difference between the two trees' final weights and the difference of
their final_ndcg5. A CLI line that reads DIFFERS is followed by one line
per file, and per column of a CSV file that differs: identical byte for
byte, or in how many rows it differs and by how much at most. The exit
status is 0 when every comparison is identical, 1 when any differs and 2
when a tree cannot be set up or run. On a machine with one processor the
pooled line says that this checkout ran no pool. It needs Linux and git,
no network, and it changes no file of either tree.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from harness import ROOT, exit_status, one_processor, run, worktree

# Criterion 09's spec, the file tests/test_acceptance.py runs.
CRITERION_09_SPEC = ROOT / "tests" / "criterion_09_spec.json"

# Run from the root of a tree with the harness's directory and the seeds as
# arguments: one perfbench run per workload and seed, printed as one JSON object.
_ONE_RUNS = """
import hashlib, json, sys, tempfile
import numpy as np
sys.path[:0] = [sys.argv[1], "perfbench"]
import harness, workloads
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
    for seed in map(int, sys.argv[2:]):
        for name in ("known", "em", "ragged"):
            spec, corpus = harness.workload_spec(workloads, name, seed, tmp, 100)
            if corpus is not None:
                rows[f"load_svmlight ragged seed {seed}"] = [digest(load_svmlight(str(corpus)))]
            # em prepares the bench corpus as known does.
            if name != "em":
                corpus_name = "bench corpus" if corpus is None else "ragged"
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
        detail += (
            f"; final weights: {_largest_difference(want_weights, got_weights)};"
            f" final_ndcg5 difference {got[1] - want[1]:+.3g}"
        )
    return f"{key}: DIFFERS ({detail})"


def _largest_difference(want, got) -> str:
    """The largest absolute and relative difference of `got` from `want`."""
    before, after = np.asarray(want, dtype=np.float64), np.asarray(got, dtype=np.float64)
    gap = np.abs(after - before)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap > 0, gap / np.abs(before), 0.0)
    return f"largest difference {gap.max():.3g} absolute, {rel.max():.3g} relative"


def output_lines(want: Path, got: Path) -> list[str]:
    """One line per file of the CLI output directories `want` (of `rev`)
    and `got` (of this checkout), and one per column of a CSV file that
    differs: identical byte for byte, or in how many rows it differs and
    by how much at most."""
    lines = []
    for name in sorted({p.name for p in want.iterdir()} | {p.name for p in got.iterdir()}):
        before, after = want / name, got / name
        if not (before.exists() and after.exists()):
            lines.append(f"{name}: only in {'rev' if before.exists() else 'this checkout'}")
        elif before.read_bytes() == after.read_bytes():
            lines.append(f"{name}: identical")
        elif name.endswith(".csv"):
            lines.extend(_csv_lines(name, before, after))
        else:
            lines.append(f"{name}: DIFFERS")
    return lines


def _csv_lines(name: str, want: Path, got: Path) -> list[str]:
    """One line per column of two CSV files of numbers that differ."""
    before, after = ([line.split(",") for line in p.read_text().splitlines()] for p in (want, got))
    if before[0] != after[0] or len(before) != len(after) or before == after:
        return [f"{name}: DIFFERS in its header, its number of rows or its line ends"]
    lines = []
    for column, w, g in zip(before[0], zip(*before[1:]), zip(*after[1:])):
        changed = [(x, y) for x, y in zip(w, g) if x != y]
        if not changed:
            lines.append(f"{name} {column}: identical")
            continue
        gaps = _largest_difference(*([float(v) for v in side] for side in zip(*changed)))
        lines.append(f"{name} {column}: DIFFERS in {len(changed)} of {len(w)} rows; {gaps}")
    return lines


def one_runs(tree: Path, seeds: list[int]) -> dict:
    """In `tree`: under "rows", each workload-and-seed's [digest,
    final_ndcg5, clicks, capped] and each loaded or prepared corpus's
    [digest]; under "weights", each workload-and-seed's final weights."""
    out = run([sys.executable, "-c", _ONE_RUNS, str(ROOT / "tools"), *map(str, seeds)], tree)
    return json.loads(out.strip().splitlines()[-1])


def compare(rev: str, seeds: list[int], scratch: Path) -> bool:
    """Print one line per comparison of `rev` with this checkout; True when
    all are identical."""
    with worktree(rev, scratch) as (commit, base):
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
            # Criterion 09's spec through each tree's CLI, as the module docstring says.
            with contextlib.nullcontext() if pooled else one_processor():
                for tree, out in zip((base, ROOT), outs):
                    run([sys.executable, "-m", "fedltr.cli", "run", "--config",
                         str(CRITERION_09_SPEC), "--out", str(out)],
                        tree, {**os.environ, "PYTHONPATH": str(tree / "src")})
            lines = output_lines(*outs)
            files = f"{len(list(outs[0].iterdir()))} files"
            if pooled and len(os.sched_getaffinity(0)) == 1:
                files += "; one processor, so this checkout ran no pool"
            if all(line.endswith(": identical") for line in lines):
                print(f"criterion 09 CLI, {label}: identical ({files})")
            else:
                identical = False
                print(f"criterion 09 CLI, {label}: DIFFERS ({files})")
                print("\n".join(f"  {line}" for line in lines))
        return identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 90210])
    args = parser.parse_args(argv)
    return exit_status("identity check", lambda scratch: compare(args.rev, args.seeds, scratch))


if __name__ == "__main__":
    sys.exit(main())
