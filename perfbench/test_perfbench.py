"""Fast self-test of the benchmark: a few rounds of each workload.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROUNDS = 3
SEED = 11


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--rounds", str(ROUNDS)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, group):
    report = _bench(workload, trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in report["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced_run(workload, tmp_path):
    corpus = None
    if workloads.WORKLOADS[workload].ragged:
        corpus = tmp_path / "ragged.svmlight"
        workloads.write_ragged_corpus(corpus, workloads.derive_seeds(SEED).corpus)
    spec = workloads.build_spec(workloads.WORKLOADS[workload], SEED, corpus, ROUNDS)
    plain, _ = workloads.one_run(spec)
    with layers.Tracer() as tracer:
        traced, _ = workloads.one_run(spec)
    assert workloads.run_problems(traced, plain) == []
    assert not tracer.absent
    assert tracer.counts["clicksim.clicks"] == traced.total_clicks
    assert tracer.calls["federation.round"] == ROUNDS
    em_calls = tracer.calls["propensity.em_round_s"]
    assert em_calls == (ROUNDS if workload == "em" else 0)


def test_missing_function_is_reported_absent():
    gone = layers.Layer("federation.gone_s", "fedltr.federation", ("no_such_function",))
    kept = layers.LAYERS[0]
    with layers.Tracer((gone, kept)) as tracer:
        pass
    assert tracer.absent == {"federation.gone_s"}
    assert tracer.total["federation.gone_s"] == 0.0


def test_tracer_restores_the_originals():
    before = {(l.module, a): getattr(sys.modules[l.module], a) for l in layers.LAYERS for a in l.attrs}
    with layers.Tracer():
        pass
    after = {(l.module, a): getattr(sys.modules[l.module], a) for l in layers.LAYERS for a in l.attrs}
    assert before == after


def test_ragged_lengths_are_skewed():
    lengths = workloads.ragged_lengths()
    assert (lengths.min(), int(np.median(lengths)), lengths.max()) == (5, 27, 200)


def test_seed_fixes_the_inputs(tmp_path):
    a, b = tmp_path / "a.svmlight", tmp_path / "b.svmlight"
    workloads.write_ragged_corpus(a, 5)
    workloads.write_ragged_corpus(b, 5)
    assert a.read_bytes() == b.read_bytes()
    spec = workloads.build_spec(workloads.WORKLOADS["known"], 5, None, ROUNDS)
    assert spec == workloads.build_spec(workloads.WORKLOADS["known"], 5, None, ROUNDS)
    assert spec != workloads.build_spec(workloads.WORKLOADS["known"], 6, None, ROUNDS)


def test_digest_mismatch_fails_the_gate():
    spec = workloads.build_spec(workloads.WORKLOADS["known"], SEED, None, ROUNDS)
    result, _ = workloads.one_run(spec)
    other = replace(result, digest="0" * 64)
    assert workloads.run_problems(result, result) == []
    assert any("digest" in p for p in workloads.run_problems(other, result))
    assert workloads.run_problems(replace(result, final_ndcg5=0.0), None)
    assert workloads.run_problems(replace(result, weights_finite=False), None)
