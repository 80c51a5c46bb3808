"""Configuration parsing and the experiment harness end to end."""

import concurrent.futures
import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedltr
from fedltr import cli
from fedltr.cli import derive_seed, main, parse_spec
from fedltr.dataset import Dataset, generate_synthetic, load_svmlight


_SYNTHETIC = {"queries": 120, "docs_per_query": 10, "feature_dim": 12, "seed": 3}
_FEDERATION = {
    "num_users": 8,
    "users_per_round": 4,
    "k": 3,
    "m": 2,
    "rounds": 3,
}


def _write_config(path, extra=None):
    config = {
        "dataset": {"synthetic": dict(_SYNTHETIC)},
        "federation": dict(_FEDERATION),
        "repeats": 2,
    }
    config.update(extra or {})
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _no_run(cfg, train, test):
    raise AssertionError("a run was started")


def _processors(monkeypatch, n):
    """Have the process run on `n` processors, as `worker_count` sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestParseSpec:
    def test_empty_spec_takes_defaults(self):
        spec = parse_spec(None, {})
        assert spec.federation.k == 5
        assert spec.federation.m == 10
        assert spec.federation.gamma == 1.0
        assert spec.federation.num_users == 200
        assert spec.modes == ("fedips",)
        assert spec.synthetic == {
            "queries": 500,
            "docs_per_query": 20,
            "feature_dim": 50,
            "seed": 7,
        }
        assert spec.repeats == 1
        assert spec.test_fraction == 0.2
        assert not spec.run_lambda

    def test_readme_example_spec_resolves(self, tmp_path):
        # Its `dataset.path` is null: the synthetic corpus, not a file.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "spec.json"
        path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        spec = parse_spec(str(path), {})
        assert spec.dataset_path is None
        assert spec.synthetic == cli._SYNTHETIC_DEFAULTS
        assert spec.sweep == {"gamma": (0.5, 1.0, 1.5, 2.0), "users_per_round": (50,), "m": (10,)}
        assert spec.repeats == 5
        assert spec.modes == ("fedips",) and spec.out_dir == "results"
        assert [tag for tag, _ in spec.sweep_points()] == [
            f"g{gamma}_u50_m10_fedips" for gamma in (0.5, 1.0, 1.5, 2.0)
        ]

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            parse_spec(None, {"gamma": -1.0})

    def test_unknown_keys_rejected(self, tmp_path):
        cases = [
            {"bogus": 1},
            {"federation": {"bogus": 1}},
            {"dataset": {"synthetic": {"bogus": 1}}},
            {"sweep": {"bogus": [1]}},
        ]
        for i, config in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            with pytest.raises(ValueError, match="unknown"):
                parse_spec(str(path), {})

    @pytest.mark.parametrize("key", ["queries_per_user", "logging_fraction", "logging_epochs"])
    def test_paper_constants_are_unknown_federation_keys(self, tmp_path, key):
        # The query pool size and the logging policy's sample and epochs are
        # fixed as in the paper, so a spec setting one is rejected.
        path = _write_config(tmp_path / "spec.json", {"federation": {**_FEDERATION, key: 1}})
        with pytest.raises(ValueError, match=rf"^unknown federation keys: \['{key}'\]$"):
            parse_spec(str(path), {})

    def test_mode_override_narrows_modes(self):
        spec = parse_spec(None, {"mode": "fedavg"})
        assert spec.modes == ("fedavg",)

    def test_sweep_points_form_full_product(self, tmp_path):
        path = _write_config(
            tmp_path / "sweep.json",
            {
                "sweep": {"gamma": [0.5, 1.0, 1.5, 2.0]},
                "modes": ["fedips", "fedavg"],
                "repeats": 3,
            },
        )
        spec = parse_spec(str(path), {})
        points = spec.sweep_points()
        assert len(points) == 8
        assert len(points) * spec.repeats == 24
        tag, point = points[1]
        assert tag == "g0.5_u4_m2_fedavg"
        assert (point.gamma, point.users_per_round, point.m, point.mode) == (0.5, 4, 2, "fedavg")

    def test_three_axis_sweep_keeps_tag_order(self, tmp_path):
        # The file lists the axes out of tag order; tags and run order still
        # go gamma, users per round, m, mode.
        path = _write_config(
            tmp_path / "sweep.json",
            {
                "sweep": {"m": [2, 3], "users_per_round": [4, 8], "gamma": [0.5, 2.0]},
                "modes": ["fedips", "fedavg"],
            },
        )
        spec = parse_spec(str(path), {})
        expected = [
            ("g0.5_u4_m2_fedips", 0.5, 4, 2, "fedips"),
            ("g0.5_u4_m2_fedavg", 0.5, 4, 2, "fedavg"),
            ("g0.5_u4_m3_fedips", 0.5, 4, 3, "fedips"),
            ("g0.5_u4_m3_fedavg", 0.5, 4, 3, "fedavg"),
            ("g0.5_u8_m2_fedips", 0.5, 8, 2, "fedips"),
            ("g0.5_u8_m2_fedavg", 0.5, 8, 2, "fedavg"),
            ("g0.5_u8_m3_fedips", 0.5, 8, 3, "fedips"),
            ("g0.5_u8_m3_fedavg", 0.5, 8, 3, "fedavg"),
            ("g2.0_u4_m2_fedips", 2.0, 4, 2, "fedips"),
            ("g2.0_u4_m2_fedavg", 2.0, 4, 2, "fedavg"),
            ("g2.0_u4_m3_fedips", 2.0, 4, 3, "fedips"),
            ("g2.0_u4_m3_fedavg", 2.0, 4, 3, "fedavg"),
            ("g2.0_u8_m2_fedips", 2.0, 8, 2, "fedips"),
            ("g2.0_u8_m2_fedavg", 2.0, 8, 2, "fedavg"),
            ("g2.0_u8_m3_fedips", 2.0, 8, 3, "fedips"),
            ("g2.0_u8_m3_fedavg", 2.0, 8, 3, "fedavg"),
        ]
        points = spec.sweep_points()
        assert [tag for tag, _ in points] == [row[0] for row in expected]
        base = spec.federation
        for (_, point), (_, gamma, upr, m, mode) in zip(points, expected):
            assert (point.gamma, point.users_per_round, point.m, point.mode) == (
                gamma, upr, m, mode
            )
            # Every other field is the base config's.
            assert replace(
                point, gamma=base.gamma, users_per_round=base.users_per_round, m=base.m,
                mode=base.mode,
            ) == base

    def test_distinct_tags_of_one_config_are_distinct_points(self, tmp_path):
        # JSON 1 and 1.0 give the same gamma under two tags, so no run
        # overwrites the other's files.
        path = _write_config(tmp_path / "sweep.json", {"sweep": {"gamma": [1, 1.0]}})
        points = parse_spec(str(path), {}).sweep_points()
        assert [tag for tag, _ in points] == ["g1_u4_m2_fedips", "g1.0_u4_m2_fedips"]
        assert points[0][1] == points[1][1]

    def test_derive_seed_is_pure_and_spread(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
        seeds = {derive_seed(0, si, ri) for si in range(4) for ri in range(3)}
        assert len(seeds) == 12


class TestMain:
    def test_small_run_writes_traces_and_manifest(self, tmp_path, capsys):
        config = _write_config(tmp_path / "spec.json")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0

        csvs = sorted(out.glob("run_*.csv"))
        assert [p.name for p in csvs] == [
            "run_g1.0_u4_m2_fedips_rep0.csv",
            "run_g1.0_u4_m2_fedips_rep1.csv",
        ]
        finals = []
        for path in csvs:
            lines = path.read_text(encoding="utf-8").strip().split("\n")
            assert lines[0] == "round,ndcg5,mean_client_loss,total_clicks"
            assert len(lines) == 1 + 3
            values = [float(line.split(",")[1]) for line in lines[1:]]
            finals.append(float(np.mean(values[-10:])))

        manifest = json.loads(
            (out / "manifest_g1.0_u4_m2_fedips.json").read_text(encoding="utf-8")
        )
        assert manifest["repeats"] == 2
        assert len(manifest["seeds"]) == 2
        assert manifest["federation"]["rounds"] == 3
        # Every run's seed derives from the master seed; the base config's
        # own seed field is never used, so it is not recorded.
        assert manifest["master_seed"] == 0
        assert "seed" not in manifest["federation"]
        assert manifest["versions"] == {"fedltr": fedltr.__version__, "numpy": np.__version__}

        summary = capsys.readouterr().out.strip().split("\n")
        assert summary[0] == "sweep_point,mean_final_ndcg5,stderr,repeats"
        tag, mean_s, stderr_s, reps = summary[1].split(",")
        assert tag == "g1.0_u4_m2_fedips"
        assert reps == "2"
        assert abs(float(mean_s) - np.mean(finals)) <= 1e-4
        expected_se = np.std(finals, ddof=1) / np.sqrt(2)
        assert abs(float(stderr_s) - expected_se) <= 1e-4

    def test_rerun_is_byte_identical(self, tmp_path):
        config = _write_config(tmp_path / "spec.json")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_flag_and_master_seed_key_write_identical_outputs(self, tmp_path):
        config = _write_config(tmp_path / "spec.json")
        keyed = _write_config(tmp_path / "keyed.json", {"master_seed": 3})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config), "--seed", "3", "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(keyed), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        manifest = json.loads((out_a / "manifest_g1.0_u4_m2_fedips.json").read_text())
        assert manifest["master_seed"] == 3

    def test_lambda_flag_writes_baseline_score(self, tmp_path, capsys):
        config = _write_config(tmp_path / "spec.json", {"repeats": 1})
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out), "--lambda"]) == 0
        payload = json.loads((out / "lambda.json").read_text(encoding="utf-8"))
        assert list(payload) == ["ndcg5"]
        assert 0.0 <= payload["ndcg5"] <= 1.0
        assert any(
            line.startswith("lambda_linear,")
            for line in capsys.readouterr().out.strip().split("\n")
        )

    def test_invalid_config_returns_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "extra, named",
        [
            pytest.param(
                {"modes": ["bogus"]},
                "sweep point g1.0_u4_m2_bogus: federation.mode must be one of "
                "('fedips', 'fedavg'), got 'bogus'",
                id="extra0",
            ),
            # em_pooling was removed with the other EM knobs.
            pytest.param({"federation": {"em_pooling": 5}}, "em_pooling", id="extra1"),
            pytest.param({"federation": {"logging_lr": -3}}, "logging_lr", id="extra2"),
            # The spec's num_users is 8: m=0 and 50 users per round are invalid.
            pytest.param(
                {"sweep": {"m": [2, 0]}},
                "sweep point g1.0_u4_m0_fedips: federation.m must be an integer >= 1, got 0",
                id="extra3",
            ),
            pytest.param(
                {"sweep": {"users_per_round": [4, 50]}},
                "sweep point g1.0_u50_m2_fedips: federation.users_per_round must be "
                "<= num_users (8), got 50",
                id="extra4",
            ),
            pytest.param(
                {"federation": {"users_per_round": 2.5}},
                "federation.users_per_round must be an integer >= 1, got 2.5",
                id="extra5",
            ),
            pytest.param(
                {"sweep": {"m": [2.5]}},
                "sweep point g1.0_u4_m2.5_fedips: federation.m must be an integer >= 1, got 2.5",
                id="extra6",
            ),
            # Uniform queries are always dropped and features always scaled
            # per query: the two switches are gone.
            pytest.param({"normalize": True}, "unknown config keys: ['normalize']", id="extra7"),
            pytest.param(
                {"filter_uniform": True}, "unknown config keys: ['filter_uniform']", id="extra8"
            ),
            # bool() of any nonempty string is True, int() truncates floats.
            pytest.param(
                {"run_lambda": "false"}, "run_lambda must be true or false, got 'false'",
                id="extra9",
            ),
            pytest.param(
                {"repeats": 2.7}, "repeats must be an integer >= 1, got 2.7", id="extra10"
            ),
            pytest.param(
                {"master_seed": 1.9}, "master_seed must be an integer >= 0, got 1.9",
                id="extra11",
            ),
            # A string once escaped as a TypeError traceback; a bool ran as 1.0.
            pytest.param(
                {"federation": {**_FEDERATION, "gamma": "1.0"}},
                "federation.gamma must be a finite real >= 0, got '1.0'",
                id="extra12",
            ),
            pytest.param(
                {"federation": {**_FEDERATION, "eta_local": True}},
                "federation.eta_local must be a finite real > 0, got True",
                id="extra13",
            ),
            pytest.param(
                {"test_fraction": "0.2"},
                "test_fraction must be a finite real in (0, 1), got '0.2'",
                id="extra14",
            ),
            # The baseline's step size, epochs and NDCG cutoff are constants:
            # the `lambda` section is gone.
            pytest.param(
                {"lambda": {"learning_rate": 0.1}}, "unknown config keys: ['lambda']",
                id="extra15",
            ),
            pytest.param(
                {"lambda": {"epochs": 30}}, "unknown config keys: ['lambda']", id="extra16"
            ),
            # Synthetic values were passed through int(), or failed at run time.
            pytest.param(
                {"dataset": {"synthetic": {**_SYNTHETIC, "queries": 120.9}}},
                "dataset.synthetic.queries must be an integer >= 1, got 120.9",
                id="extra17",
            ),
            pytest.param(
                {"dataset": {"synthetic": {**_SYNTHETIC, "queries": 0}}},
                "dataset.synthetic.queries must be an integer >= 1, got 0",
                id="extra18",
            ),
            pytest.param(
                {"dataset": {"synthetic": {**_SYNTHETIC, "seed": 3.7}}},
                "dataset.synthetic.seed must be an integer >= 0, got 3.7",
                id="extra19",
            ),
            # The label noise of the synthetic corpus is a constant.
            pytest.param(
                {"dataset": {"synthetic": {**_SYNTHETIC, "noise_sd": 1.5}}},
                "unknown dataset.synthetic keys: ['noise_sd']",
                id="extra20",
            ),
            # Constants now: a spec setting one is rejected.
            pytest.param(
                {"federation": {**_FEDERATION, "max_impressions_factor": 50}},
                "unknown federation keys: ['max_impressions_factor']",
                id="extra21",
            ),
            pytest.param(
                {"federation": {**_FEDERATION, "logging_lr": 0.1}},
                "unknown federation keys: ['logging_lr']",
                id="extra22",
            ),
            pytest.param(
                {"federation": {**_FEDERATION, "logging_fraction": 0}},
                "unknown federation keys: ['logging_fraction']",
                id="extra34",
            ),
            # Containers of the wrong JSON type escaped as TypeError
            # tracebacks, ran as if empty, or were read character by character.
            pytest.param({"sweep": {"gamma": 1.0}}, "sweep.gamma must be a JSON list", id="extra23"),
            pytest.param(
                {"dataset": {"synthetic": 5}}, "dataset.synthetic must be a JSON object",
                id="extra24",
            ),
            pytest.param({"lambda": [1]}, "unknown config keys: ['lambda']", id="extra25"),
            pytest.param({"federation": 5}, "federation must be a JSON object", id="extra26"),
            pytest.param({"federation": []}, "federation must be a JSON object", id="extra27"),
            pytest.param({"sweep": []}, "sweep must be a JSON object", id="extra28"),
            pytest.param({"dataset": "ab"}, "dataset must be a JSON object", id="extra29"),
            pytest.param({"modes": "fedavg"}, "modes must be a JSON list", id="extra30"),
            pytest.param({"sweep": {"m": "12"}}, "sweep.m must be a JSON list", id="extra31"),
            # open(5) read file descriptor 5.
            pytest.param(
                {"dataset": {"path": 5}}, "dataset.path must be a string, got 5", id="extra32"
            ),
            # Every run's seed derives from master_seed; this one was never read.
            pytest.param(
                {"federation": {**_FEDERATION, "seed": 5}}, "unknown federation keys: ['seed']",
                id="extra33",
            ),
            # A range rule that had no case of its own.
            pytest.param(
                {"federation": {**_FEDERATION, "eta_global": 0}},
                "federation.eta_global must be a finite real > 0, got 0",
                id="extra35",
            ),
            pytest.param(
                {"lambda": {"ndcg_k": 5}}, "unknown config keys: ['lambda']", id="extra36"
            ),
            # Every round is evaluated: the cadence is gone.
            pytest.param(
                {"federation": {**_FEDERATION, "eval_every": 1}},
                "unknown federation keys: ['eval_every']",
                id="extra37",
            ),
            pytest.param(
                {"federation": {**_FEDERATION, "gamma_sigma": -0.1}},
                "federation.gamma_sigma must be a finite real >= 0, got -0.1",
                id="extra38",
            ),
            # A mode that is not a string escaped as a TypeError traceback
            # from building the sweep point's tag.
            pytest.param(
                {"modes": [0]},
                "sweep point g1.0_u4_m2_0: federation.mode must be one of "
                "('fedips', 'fedavg'), got 0",
                id="extra39",
            ),
            pytest.param(
                {"modes": [True]}, "federation.mode must be one of ('fedips', 'fedavg'), got True",
                id="extra40",
            ),
            pytest.param(
                {"modes": [1.5]}, "federation.mode must be one of ('fedips', 'fedavg'), got 1.5",
                id="extra41",
            ),
            # An integer beyond float range escaped as an OverflowError traceback.
            pytest.param(
                {"federation": {**_FEDERATION, "gamma": 10**400}},
                f"federation.gamma must be a finite real >= 0, got {10**400}",
                id="extra42",
            ),
            # A negative seed once failed every run in np.random.SeedSequence.
            pytest.param(
                {"master_seed": -1}, "master_seed must be an integer >= 0, got -1", id="extra43"
            ),
            # Nothing to run.
            pytest.param({"modes": []}, "modes must be nonempty", id="extra44"),
            pytest.param({"sweep": {"gamma": []}}, "sweep lists must be nonempty", id="extra45"),
            # Runs are named by their sweep point: a repeated one wrote its
            # CSV over the other's and printed its summary line twice.
            pytest.param(
                {"sweep": {"gamma": [1.0, 1.0]}}, "sweep point g1.0_u4_m2_fedips appears twice",
                id="extra46",
            ),
            pytest.param(
                {"modes": ["fedips", "fedips"]}, "sweep point g1.0_u4_m2_fedips appears twice",
                id="extra47",
            ),
            # out_dir went through str(): null ran into a directory named
            # None. A file's value is checked though --out replaces it.
            pytest.param({"out_dir": None}, "out_dir must be a string, got None", id="extra48"),
            pytest.param({"out_dir": 5}, "out_dir must be a string, got 5", id="extra49"),
            pytest.param(
                {"out_dir": ["a", "b"]}, "out_dir must be a string, got ['a', 'b']", id="extra50"
            ),
        ],
    )
    def test_bad_knobs_are_rejected_at_parse_time(self, tmp_path, capsys, extra, named):
        config = _write_config(tmp_path / "spec.json", extra)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert named in err
        assert not out.exists()

    def test_null_out_dir_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path / "spec.json", {"out_dir": None})
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: out_dir must be a string, got None" in err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_config_root_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text("[1]", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: config root must be a JSON object" in err

    def test_negative_seed_flag_is_rejected_at_parse_time(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: master_seed must be an integer >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--eval-every", "2"], ["gen-data", "--noise-sd", "1.5"]],
        ids=["eval_every", "noise_sd"],
    )
    def test_removed_flags_are_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(
                ["--config", "huge.json"],
                f"federation.num_users must be an integer >= 1 within int64 range, got {10**400}",
                id="num_users",
            ),
            pytest.param(
                ["--seed", str(2**63)],
                f"master_seed must be an integer >= 0 within int64 range, got {2**63}",
                id="master_seed",
            ),
        ],
    )
    def test_integer_beyond_int64_is_rejected_at_parse_time(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        # A population of 10**400 once passed parse time, and building its
        # users looped until the process was killed.
        _write_config(tmp_path / "huge.json", {"federation": {**_FEDERATION, "num_users": 10**400}})
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        assert main(["run", *argv, "--out", "results"]) == 2
        assert f"invalid configuration: {named}\n" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_integers_up_to_the_int64_bound_are_accepted(self):
        assert parse_spec(None, {"master_seed": 2**63 - 1}).master_seed == 2**63 - 1

    def test_worker_pool_writes_the_serial_outputs(self, tmp_path, monkeypatch):
        started = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        config = _write_config(tmp_path / "spec.json", {"sweep": {"m": [2, 3]}, "repeats": 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        _processors(monkeypatch, 1)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "serial")]) == 0
        assert not started
        _processors(monkeypatch, 2)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "pooled")]) == 0
        assert [kwargs["max_workers"] for kwargs in started] == [2]
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 2
        assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
        for name in names:
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pooled" / name).read_bytes(), name

    def test_a_sweep_starts_no_more_workers_than_runs(self, tmp_path, monkeypatch):
        # A fork-started pool starts all of its workers at once, and each
        # receives the corpus: two runs once started four. Threads stand in
        # for the processes here.
        built = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(**kwargs)

        config = _write_config(tmp_path / "spec.json", {"sweep": {"m": [2, 3]}, "repeats": 1})
        _processors(monkeypatch, 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_corpus", None)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert built == [2]
        assert len(list((tmp_path / "out").glob("run_*.csv"))) == 2

    def test_a_sweep_ships_the_corpus_once_per_worker(self, tmp_path, monkeypatch):
        # Four runs on two workers: each worker gets the train and the test
        # part once, whatever the start method, and each job its config only.
        pickled = []

        def getstate(dataset):
            pickled.append(dataset.n_queries)
            return vars(dataset)

        monkeypatch.setattr(Dataset, "__getstate__", getstate, raising=False)
        config = _write_config(tmp_path / "spec.json", {"sweep": {"m": [2, 3]}, "repeats": 2})
        _processors(monkeypatch, 2)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out").glob("run_*.csv"))) == 4
        assert len(pickled) <= 2 * 2

    def test_a_pool_worker_runs_its_sweep_serially(self, tmp_path, monkeypatch):
        # A multiprocessing.Pool worker is daemonic and may not start a pool
        # of its own. Forked, it sees two processors for its two runs.
        config = _write_config(tmp_path / "spec.json")
        _processors(monkeypatch, 1)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "serial")]) == 0
        _processors(monkeypatch, 2)
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "worker")]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(main, (argv,)) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 2
        assert names == sorted(p.name for p in (tmp_path / "worker").iterdir())
        for name in names:
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "worker" / name).read_bytes(), name

    def test_output_path_of_a_file_exits_two(self, tmp_path, capsys):
        config = _write_config(tmp_path / "spec.json")
        out = tmp_path / "results"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_empty_split_part_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # Two queries at test_fraction 0.2 leave no test query; every run
        # once failed at round 1 as "no query has a nonzero ideal DCG".
        corpus = tmp_path / "two.txt"
        assert main(["gen-data", "--queries", "2", "--docs", "8", "--out", str(corpus)]) == 0
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        out = tmp_path / "results"
        assert main(["run", "--dataset", str(corpus), "--repeats", "2", "--out", str(out)]) == 1
        assert (out / "FAILED").read_text(encoding="utf-8") == (
            "ValueError: the split of 2 queries at test_fraction 0.2 leaves "
            "2 train and 0 test queries; each part needs one\n"
        )
        assert not list(out.glob("run_*.csv"))

    def test_corpus_of_uniform_queries_fails_naming_them(self, tmp_path, capsys, monkeypatch):
        # One document per query gives every query one grade; the error once
        # read "cannot split an empty dataset".
        config = _write_config(
            tmp_path / "spec.json",
            {"dataset": {"synthetic": {**_SYNTHETIC, "docs_per_query": 1}}},
        )
        monkeypatch.setattr(cli, "run_experiment", _no_run)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text(encoding="utf-8") == (
            "ValueError: the corpus's 120 queries are all dropped: "
            "each one's documents share one grade\n"
        )

    def test_failed_run_leaves_marker(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", "--dataset", str(tmp_path / "missing.txt"), "--out", str(out)]
        )
        assert code == 1
        assert (out / "FAILED").exists()

    def test_successful_rerun_removes_a_stale_marker(self, tmp_path, capsys):
        out = tmp_path / "results"
        missing = tmp_path / "missing.txt"
        assert main(["run", "--dataset", str(missing), "--out", str(out)]) == 1
        assert (out / "FAILED").exists()
        config = _write_config(tmp_path / "spec.json")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / "FAILED").exists()

    def test_failed_run_keeps_the_other_runs(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path / "spec.json", {"sweep": {"m": [2, 3]}})
        out = tmp_path / "results"
        doomed_seed = derive_seed(0, 1, 0)
        real_run = cli.run_experiment

        def flaky_run(cfg, train, test):
            if cfg.seed == doomed_seed:
                raise RuntimeError("diverged")
            return real_run(cfg, train, test)

        _processors(monkeypatch, 1)
        monkeypatch.setattr(cli, "run_experiment", flaky_run)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text(encoding="utf-8") == (
            "run_g1.0_u4_m3_fedips_rep0: RuntimeError: diverged\n"
        )
        assert sorted(p.name for p in out.glob("run_*.csv")) == [
            "run_g1.0_u4_m2_fedips_rep0.csv",
            "run_g1.0_u4_m2_fedips_rep1.csv",
            "run_g1.0_u4_m3_fedips_rep1.csv",
        ]
        summary = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in summary[1:]] == ["g1.0_u4_m2_fedips"]

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(
                ["--queries", "0"], "dataset.synthetic.queries must be an integer >= 1, got 0",
                id="queries0",
            ),
        ],
    )
    def test_gen_data_rejects_bad_values(self, tmp_path, capsys, flags, named):
        path = tmp_path / "synthetic.txt"
        assert main(["gen-data", "--queries", "4", *flags, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"gen-data failed: {named}\n"
        assert not path.exists()

    def test_gen_data_reports_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "missing" / "synthetic.txt"
        assert main(["gen-data", "--queries", "4", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gen-data failed: ") and err.count("\n") == 1

    def test_gen_data_reports_a_corpus_too_large_to_allocate(self, tmp_path, capsys):
        # 10^11 queries of 20 documents and 50 features would take 728 TiB.
        path = tmp_path / "synthetic.txt"
        assert main(["gen-data", "--queries", "100000000000", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gen-data failed: ") and err.count("\n") == 1
        assert not path.exists()

    def test_gen_data_round_trips(self, tmp_path, capsys):
        path = tmp_path / "synthetic.txt"
        code = main(
            [
                "gen-data", "--queries", "10", "--docs", "5", "--features", "4",
                "--seed", "2", "--out", str(path),
            ]
        )
        assert code == 0
        loaded = load_svmlight(str(path))
        reference = generate_synthetic(10, 5, 4, seed=2)
        assert loaded.n_queries == reference.n_queries
        for got, want in zip(loaded.queries, reference.queries):
            assert got.qid == want.qid
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)
