"""fedltr benchmark: one workload of 100-round federated simulations.

Run from the root of a checkout:

    python3 perfbench/run.py --workload known --seed 1 --seconds 30 --trace 0

With `--trace 0` it starts one fresh process for a single run to measure
peak memory, then, after an untimed warm-up run, repeats untraced runs
(set-up plus 100 rounds) until `--seconds` have passed and reports the
end-to-end metrics. With `--trace 1` it alternates untraced and traced runs
after the warm-up and reports the per-layer metrics. Every run passes the
correctness gate or counts as failed. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Timed runs per invocation however short --seconds is: set-up time is a
# median, and reruns of one seed are compared bit for bit. Each invocation
# starts with an untimed warm-up run, because the first run in a process is
# slower by up to a quarter while the heap grows.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Ledger:
    """Attempted and failed runs of one invocation, and the reference run
    every later run of the same seed must reproduce."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"{label}: {message}", file=sys.stderr)

    def record(self, label: str, result) -> None:
        """Count a finished run, failed if it breaks the correctness gate."""
        problems = self.workloads.run_problems(result, self.reference)
        if problems:
            self.fail(label, "; ".join(problems))
            return
        self.attempted += 1
        if self.reference is None:
            self.reference = result

    def attempt(self, label: str, spec):
        """One run of `spec`; returns (result, state), or None if it raised.
        A run that completes but fails the correctness gate is returned too:
        its times are real, and the ledger marks the invocation incorrect.

        Garbage of earlier runs is collected first, outside the timed
        region, so no run pays for the one before it.
        """
        gc.collect()
        try:
            result, state = self.workloads.one_run(spec)
        except Exception:
            self.fail(label, "raised\n" + traceback.format_exc())
            return None
        self.record(label, result)
        return result, state


def _child_run(workloads, spec) -> None:
    """Body of the fresh process: one run, then its result and peak RSS."""
    result, _ = workloads.one_run(spec)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0, "result": asdict(result)}))


def _peak_rss_run(workloads, ledger: Ledger, args, corpus: Path | None) -> float | None:
    """Run one workload run in a fresh process; returns its peak RSS in MB."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed), "--rounds", str(args.rounds)]
    if corpus is not None:
        cmd += ["--corpus", str(corpus)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ledger.fail("peak-rss run", "timed out")
        return None
    if proc.returncode != 0:
        ledger.fail("peak-rss run", f"exited {proc.returncode}\n{proc.stderr}")
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    ledger.record("peak-rss run", workloads.RunResult(**report["result"]))
    return float(report["peak_rss_mb"])


def measure_end_to_end(workloads, ledger: Ledger, args, spec, corpus) -> dict:
    peak_rss_mb = _peak_rss_run(workloads, ledger, args, corpus)
    deadline = perf_counter() + args.seconds
    ledger.attempt("warm-up run", spec)
    runs = []
    for index in itertools.count(1):
        if index > MIN_RUNS and perf_counter() >= deadline:
            break
        outcome = ledger.attempt(f"run {index}", spec)
        if outcome is not None:
            runs.append(outcome[0])
            print(f"run {index}: setup_s {runs[-1].setup_s:.4f} run_s {runs[-1].run_s:.4f}")
        del outcome
    if not runs or peak_rss_mb is None:
        return {}
    rounds_ms = 1e3 * np.concatenate([r.round_s for r in runs])
    return {
        "setup_s": _metric(statistics.median(r.setup_s for r in runs), "s"),
        "run_s": _metric(statistics.median(r.run_s for r in runs), "s"),
        "clicks_per_s": _metric(statistics.median(r.total_clicks / r.run_s for r in runs), "1/s"),
        "round_ms_p50": _metric(np.percentile(rounds_ms, 50), "ms"),
        "round_ms_p90": _metric(np.percentile(rounds_ms, 90), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "final_ndcg5": _metric(runs[0].final_ndcg5, "ndcg"),
    }


# Layers of the round loop whose times should add up to nearly all of run_s.
ROUND_LAYERS = (
    "clicksim.collect_s",
    "objective.client_loss_s",
    "federation.client_opt_s",
    "federation.server_opt_s",
    "propensity.em_round_s",
    "metrics.eval_s",
)


def measure_layers(workloads, layers, ledger: Ledger, args, spec) -> dict:
    deadline = perf_counter() + args.seconds
    ledger.attempt("warm-up run", spec)
    untraced, traced = [], []
    while not traced or perf_counter() < deadline:
        plain = ledger.attempt(f"untraced run {len(untraced)}", spec)
        if plain is None:
            break
        untraced.append(plain[0])
        del plain
        with layers.Tracer() as tracer:
            outcome = ledger.attempt(f"traced run {len(traced)}", spec)
        if outcome is None:
            break
        result, state = outcome
        del outcome
        if traced and tracer.counts != traced[0][1].counts:
            ledger.failed += 1
            print("traced run: impression or click counts differ from the first traced run",
                  file=sys.stderr)
            break
        mae = None
        if state.em is not None:
            seen = [u for u in state.users if u.id in tracer.seen_users] or state.users
            mae = workloads.propensity_mae(state, seen)
        traced.append((result, tracer, mae))
        del state
    if not traced:
        return {}

    def med(values):
        return statistics.median(values)

    def layer_s(name):
        return med(t.total[name] for _, t, _ in traced)

    result, tracer, mae = traced[-1]
    for name in sorted(tracer.absent):
        print(f"layer absent: {name} (reported as 0)")
    if mae is None:
        print("layer absent: propensity.mae (no estimator; reported as 0)")
        mae = 0.0
    impressions = tracer.counts["clicksim.impressions"]
    traced_run_s = med(r.run_s for r, _, _ in traced)
    covered = sum(layer_s(name) for name in ROUND_LAYERS)
    print(f"round-loop layers cover {covered / traced_run_s:.3f} of traced run_s")
    return {
        "federation.client_opt_s": _metric(layer_s("federation.client_opt_s"), "s"),
        "federation.sgd_steps": _metric(result.total_clicks, "count"),
        "objective.client_loss_s": _metric(layer_s("objective.client_loss_s"), "s"),
        "propensity.em_round_s": _metric(layer_s("propensity.em_round_s"), "s"),
        "propensity.mae": _metric(mae, "prob"),
        "clicksim.collect_s": _metric(layer_s("clicksim.collect_s"), "s"),
        "clicksim.impressions": _metric(impressions, "count"),
        "clicksim.clicks": _metric(tracer.counts["clicksim.clicks"], "count"),
        "clicksim.clicks_per_impression": _metric(
            tracer.counts["clicksim.clicks"] / impressions if impressions else 0.0, "ratio"
        ),
        "clicksim.capped_clients": _metric(result.capped_clients, "count"),
        "metrics.eval_s": _metric(layer_s("metrics.eval_s"), "s"),
        "metrics.eval_calls": _metric(tracer.calls["metrics.eval_s"], "count"),
        "federation.server_opt_s": _metric(layer_s("federation.server_opt_s"), "s"),
        "federation.round_self_s": _metric(med(t.own["federation.round"] for _, t, _ in traced), "s"),
        "dataset.load_s": _metric(layer_s("dataset.load_s"), "s"),
        "dataset.prepare_s": _metric(layer_s("dataset.prepare_s"), "s"),
        "clicksim.logging_policy_s": _metric(layer_s("clicksim.logging_policy_s"), "s"),
        "federation.init_self_s": _metric(med(t.own["federation.init"] for _, t, _ in traced), "s"),
        "trace.overhead_frac": _metric(traced_run_s / med(r.run_s for r in untraced) - 1.0, "ratio"),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=100,
                        help="rounds per run (fewer only for the self-test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import layers
        import workloads
    except ImportError as exc:
        print(f"cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        corpus = Path(args.corpus) if args.corpus else None
        _child_run(workloads, workloads.build_spec(workload, args.seed, corpus, args.rounds))
        return 0

    tmp_parent = workloads.ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        corpus = None
        if workload.ragged:
            corpus = tmp / "ragged.svmlight"
            workloads.write_ragged_corpus(corpus, workloads.derive_seeds(args.seed).corpus)
        spec = workloads.build_spec(workload, args.seed, corpus, args.rounds)
        ledger = Ledger(workloads)
        if args.trace:
            metrics = measure_layers(workloads, layers, ledger, args, spec)
        else:
            metrics = measure_end_to_end(workloads, ledger, args, spec, corpus)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    if not metrics:
        print(f"measurement incomplete: {ledger.failed} of {ledger.attempted} runs failed",
              file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {ledger.failed / ledger.attempted!r} ratio "
          f"({ledger.failed} of {ledger.attempted} runs failed)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
