"""Time one layer of this checkout against the same layer of a git revision,
in one process, on the same recorded calls.

Run from anywhere in the checkout:

    python tools/abtime.py <rev> --layer client_opt --workload ragged --seed 3

It makes a git worktree of <rev> in a temporary directory and loads that
tree's fedltr under the package name `fedltr_rev`. It runs perfbench's
`one_run` of the workload once with this checkout's fedltr, the layer's
function wrapped at the module attribute its caller looks up, and records
the arguments of every call, copied before the call runs. This run is
pinned to one processor, so the loader parses every range in this process.

Then, in each of --passes passes, it calls this checkout's function and the
revision's on every recorded call, one after the other, each on its own copy
of the arguments. The copies of a pass are made before its clock starts.
Even passes call this checkout first, odd passes the revision. Arguments
that every call shares and only reads, such as the corpus, are not copied.

It prints each side's median time per pass, the median and range of the
per-pass ratio (this checkout over the revision), and whether the two sides'
results, and their arguments after the call, were bitwise equal on every
call. The exit status is 0 when they were, 1 when any call differed and 2
when a tree cannot be set up, the workload makes no call of the layer, or
the layer's signature differs between the trees or a side fails on a
recorded call; such a layer is reported, not adapted. It is no benchmark and gates nothing. It needs Linux and git,
no network, and it changes no file of either tree.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import importlib.util
import inspect
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np

from harness import ROOT, SetupError, exit_status, one_processor, workload_spec, worktree

# Each layer: the fedltr module whose attribute its caller looks up, and
# the positions of the arguments that every call shares and only reads.
LAYERS = {
    "collect_round_clicks": ("federation", (2,)),
    "client_loss": ("federation", (1,)),
    "client_opt": ("federation", (1,)),
    "federated_em_round": ("federation", (2,)),
    "mean_ndcg": ("federation", (1,)),
    "_parse_range": ("dataset", ()),
}


def _workloads():
    """perfbench's workloads module; it puts this checkout's src first on sys.path."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def load_package(src: Path, name: str):
    """The fedltr package under `src`, imported as `name`."""
    path = src / "fedltr"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _copy(args: tuple, shared: tuple) -> tuple:
    """A deep copy of `args` whose positions `shared` stay the same objects."""
    memo = {id(args[i]): args[i] for i in shared}
    return copy.deepcopy(args, memo)


def record(workloads, args, scratch: Path) -> list:
    """Every call's arguments to this checkout's layer `args.layer` during
    one run of `args.workload` at `args.seed` for `args.rounds` rounds."""
    module_name, shared = LAYERS[args.layer]
    module = importlib.import_module(f"fedltr.{module_name}")
    real, calls = getattr(module, args.layer), []

    def wrapper(*call):
        calls.append(_copy(call, shared))
        return real(*call)

    spec, _ = workload_spec(workloads, args.workload, args.seed, scratch, args.rounds)
    with one_processor(), mock.patch.object(module, args.layer, wrapper):
        workloads.one_run(spec)
    return calls


def bits(value):
    """`value` as nested tuples of bytes and plain values, equal for two
    values exactly when they agree bit for bit, whichever tree's classes."""
    if isinstance(value, (np.ndarray, np.generic, float)):
        array = np.asarray(value)
        return ("array", array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, bits(v)) for k, v in sorted(value.items()))
    if isinstance(value, np.random.Generator):
        return ("rng", bits(value.bit_generator.state))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, bits(vars(value)))
    return value


def time_pass(sides: list, calls: list, shared: tuple, first: int) -> tuple[list, bool]:
    """One pass over `calls` with both sides' functions, side `first`
    first: each side's total seconds, and whether every call agreed on its
    result and on its arguments but the shared ones."""
    copies = [[_copy(args, shared) for args in calls] for _ in sides]
    totals, equal = [0.0, 0.0], True
    order = [first, 1 - first]
    for i in range(len(calls)):
        outputs = [None, None]
        for side in order:
            args = copies[side][i]
            start = perf_counter()
            result = sides[side](*args)
            totals[side] += perf_counter() - start
            outputs[side] = (result, [a for j, a in enumerate(args) if j not in shared])
        equal &= bits(outputs[0]) == bits(outputs[1])
    return totals, equal


def compare(args, scratch: Path) -> bool:
    """Print the comparison of `args.rev`'s layer with this checkout's;
    True when both sides agreed on every call."""
    workloads = _workloads()
    with worktree(args.rev, scratch) as (commit, base):
        module, shared = LAYERS[args.layer]
        ours = getattr(importlib.import_module(f"fedltr.{module}"), args.layer, None)
        try:
            load_package(base / "src", "fedltr_rev")
            theirs = getattr(importlib.import_module(f"fedltr_rev.{module}"), args.layer, None)
        except Exception as exc:  # any fault of the revision's package
            raise SetupError(f"fedltr at {args.rev} does not import: {exc!r}") from exc
        if ours is None or theirs is None:
            raise SetupError(f"{args.layer} is missing from fedltr.{module} in one tree")
        if inspect.signature(ours) != inspect.signature(theirs):
            raise SetupError(
                f"{args.layer} signature differs: {inspect.signature(ours)} here,"
                f" {inspect.signature(theirs)} at {args.rev}"
            )
        calls = record(workloads, args, scratch)
        if not calls:
            raise SetupError(f"{args.workload} makes no call of {args.layer}")
        times, equal = [], True
        try:
            for p in range(args.passes):
                totals, same = time_pass([ours, theirs], calls, shared, p % 2)
                times.append(totals)
                equal &= same
        except Exception as exc:  # a tree that cannot take the recorded arguments
            raise SetupError(f"{args.layer} failed on a recorded call: {exc!r}") from exc
    ratios = [ours_s / theirs_s for ours_s, theirs_s in times]
    print(
        f"{args.layer} on {args.workload}, seed {args.seed}, {args.rounds} rounds:"
        f" {len(calls)} calls, {args.passes} passes"
    )
    for name, side in (("this checkout", 0), (f"{args.rev} ({commit[:12]})", 1)):
        print(f"  {name}: median {statistics.median(t[side] for t in times):.4f} s per pass")
    print(
        f"  ratio, this checkout over {args.rev}: median {statistics.median(ratios):.3f},"
        f" range {min(ratios):.3f}-{max(ratios):.3f}"
    )
    print(f"  bitwise equal on every call: {'yes' if equal else 'NO'}")
    return equal


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    parser.add_argument("--layer", choices=sorted(LAYERS), required=True)
    parser.add_argument("--workload", choices=sorted(_workloads().WORKLOADS), default="known")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--passes", type=int, default=6)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    return exit_status("abtime", lambda scratch: compare(args, scratch))


if __name__ == "__main__":
    sys.exit(main())
