"""Configuration parsing and the experiment harness end to end."""

import json

import numpy as np
import pytest

import fedltr
from fedltr import cli
from fedltr.cli import WORKERS_ENV, derive_seed, main, parse_spec
from fedltr.dataset import generate_synthetic, load_svmlight


def _write_config(path, extra=None):
    config = {
        "dataset": {
            "synthetic": {
                "queries": 120,
                "docs_per_query": 10,
                "feature_dim": 12,
                "seed": 3,
            }
        },
        "federation": {
            "num_users": 8,
            "users_per_round": 4,
            "queries_per_user": 3,
            "k": 3,
            "m": 2,
            "rounds": 3,
            "eval_every": 1,
            "logging_fraction": 0.2,
            "logging_epochs": 5,
        },
        "repeats": 2,
    }
    config.update(extra or {})
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestParseSpec:
    def test_empty_spec_takes_defaults(self):
        spec = parse_spec(None, {})
        assert spec.federation.k == 5
        assert spec.federation.m == 10
        assert spec.federation.gamma == 1.0
        assert spec.federation.queries_per_user == 5
        assert spec.federation.num_users == 200
        assert spec.modes == ("fedips",)
        assert spec.synthetic == {
            "queries": 500,
            "docs_per_query": 20,
            "feature_dim": 50,
            "seed": 7,
            "noise_sd": 1.5,
        }
        assert spec.repeats == 1
        assert spec.test_fraction == 0.2
        assert spec.filter_uniform and spec.normalize
        assert not spec.run_lambda

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

    def test_lambda_flag_writes_baseline_score(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "spec.json", {"repeats": 1, "lambda": {"epochs": 5}}
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out), "--lambda"]) == 0
        payload = json.loads((out / "lambda.json").read_text(encoding="utf-8"))
        assert 0.0 <= payload["ndcg5"] <= 1.0
        assert payload["config"]["epochs"] == 5
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
            pytest.param({"modes": ["bogus"]}, "bogus", id="extra0"),
            # em_pooling was removed with the other EM knobs.
            pytest.param({"federation": {"em_pooling": 5}}, "em_pooling", id="extra1"),
            pytest.param({"federation": {"logging_lr": -3}}, "logging_lr", id="extra2"),
            # The spec's num_users is 8: m=0 and 50 users per round are invalid.
            pytest.param({"sweep": {"m": [2, 0]}}, "sweep point g1.0_u4_m0_fedips", id="extra3"),
            pytest.param(
                {"sweep": {"users_per_round": [4, 50]}}, "sweep point g1.0_u50_m2_fedips", id="extra4"
            ),
            pytest.param(
                {"federation": {"users_per_round": 2.5}}, "users_per_round must be an integer",
                id="extra5",
            ),
            pytest.param(
                {"sweep": {"m": [2.5]}}, "sweep point g1.0_u4_m2.5_fedips: m must be an integer",
                id="extra6",
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

    def test_failed_run_leaves_marker(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", "--dataset", str(tmp_path / "missing.txt"), "--out", str(out)]
        )
        assert code == 1
        assert (out / "FAILED").exists()

    def test_failed_run_keeps_the_other_runs(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path / "spec.json", {"sweep": {"m": [2, 3]}})
        out = tmp_path / "results"
        doomed_seed = derive_seed(0, 1, 0)
        real_run = cli.run_experiment

        def flaky_run(cfg, train, test):
            if cfg.seed == doomed_seed:
                raise RuntimeError("diverged")
            return real_run(cfg, train, test)

        monkeypatch.delenv(WORKERS_ENV, raising=False)
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
