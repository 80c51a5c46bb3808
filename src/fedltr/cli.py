"""Experiment harness: JSON/flag configuration, sweeps with derived
seeds, CSV traces, and a summary table."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import LambdaConfig, train_lambda_linear
from .dataset import (
    Dataset,
    filter_uniform_queries,
    generate_synthetic,
    load_svmlight,
    normalize_query_level,
    split,
    write_svmlight,
)
from .federation import FederationConfig, RoundMetrics, final_ndcg, run_experiment
from .metrics import mean_ndcg

WORKERS_ENV = "FEDLTR_WORKERS"

_SPEC_KEYS = {
    "dataset",
    "test_fraction",
    "filter_uniform",
    "normalize",
    "federation",
    "modes",
    "run_lambda",
    "lambda",
    "sweep",
    "repeats",
    "out_dir",
    "master_seed",
}
_DATASET_KEYS = {"path", "synthetic"}
_SYNTHETIC_KEYS = {"queries", "docs_per_query", "feature_dim", "seed", "noise_sd"}
_SWEEP_KEYS = {"gamma", "users_per_round", "m"}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment plan: data source, preprocessing,
    base federated config, sweep axes, and output location."""

    dataset_path: str | None
    synthetic: dict
    test_fraction: float
    filter_uniform: bool
    normalize: bool
    federation: FederationConfig
    modes: tuple[str, ...]
    run_lambda: bool
    lambda_config: LambdaConfig
    sweep_gamma: tuple[float, ...]
    sweep_users_per_round: tuple[int, ...]
    sweep_m: tuple[int, ...]
    repeats: int
    out_dir: str
    master_seed: int

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.modes:
            raise ValueError("modes must be nonempty")
        for axis in (self.sweep_gamma, self.sweep_users_per_round, self.sweep_m):
            if not axis:
                raise ValueError("sweep lists must be nonempty")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        # Building every point's config checks the sweep values and modes
        # here, at parse time, rather than when their run starts.
        self.sweep_points()

    def sweep_points(self) -> list[tuple[str, FederationConfig]]:
        """The (tag, config) of every point of the cross product of sweep
        values and modes, in run order. Configs carry the base seed."""
        points = []
        for gamma, upr, m, mode in itertools.product(
            self.sweep_gamma, self.sweep_users_per_round, self.sweep_m, self.modes
        ):
            tag = f"g{gamma}_u{upr}_m{m}_{mode}"
            try:
                point = replace(self.federation, gamma=gamma, users_per_round=upr, m=m, mode=mode)
            except ValueError as exc:
                raise ValueError(f"sweep point {tag}: {exc}") from None
            points.append((tag, point))
        return points


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def parse_spec(config_path: str | None = None, overrides: dict | None = None) -> ExperimentSpec:
    """Resolve an ExperimentSpec from an optional JSON file plus flag
    overrides. Unknown keys anywhere are errors; omitted fields take the
    standard defaults."""
    raw: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
    _check_keys(raw, _SPEC_KEYS, "config")
    overrides = dict(overrides or {})

    dataset_cfg = dict(raw.get("dataset", {}))
    _check_keys(dataset_cfg, _DATASET_KEYS, "dataset")
    synthetic = {
        "queries": 500,
        "docs_per_query": 20,
        "feature_dim": 50,
        "seed": 7,
        "noise_sd": 1.5,
    }
    if "synthetic" in dataset_cfg:
        _check_keys(dict(dataset_cfg["synthetic"]), _SYNTHETIC_KEYS, "dataset.synthetic")
        synthetic.update(dataset_cfg["synthetic"])

    fed_raw = dict(raw.get("federation", {}))
    fed_fields = set(FederationConfig.__dataclass_fields__)
    _check_keys(fed_raw, fed_fields - {"mode"}, "federation")
    for key in ("gamma", "users_per_round", "m", "rounds", "seed", "num_users",
                "eta_local", "eta_global", "k", "eval_every", "propensity_mode"):
        if key in overrides and overrides[key] is not None:
            fed_raw[key] = overrides[key]
    federation = FederationConfig(**fed_raw)

    lam_raw = dict(raw.get("lambda", {}))
    _check_keys(lam_raw, set(LambdaConfig.__dataclass_fields__), "lambda")
    lambda_config = LambdaConfig(**lam_raw)

    sweep = dict(raw.get("sweep", {}))
    _check_keys(sweep, _SWEEP_KEYS, "sweep")

    modes = raw.get("modes", ["fedips"])
    if "mode" in overrides and overrides["mode"] is not None:
        modes = [overrides["mode"]]

    def _override(name, default):
        value = overrides.get(name)
        return default if value is None else value

    return ExperimentSpec(
        dataset_path=_override("dataset_path", dataset_cfg.get("path")),
        synthetic=synthetic,
        test_fraction=float(raw.get("test_fraction", 0.2)),
        filter_uniform=bool(raw.get("filter_uniform", True)),
        normalize=bool(raw.get("normalize", True)),
        federation=federation,
        modes=tuple(modes),
        run_lambda=bool(_override("run_lambda", raw.get("run_lambda", False))),
        lambda_config=lambda_config,
        sweep_gamma=tuple(sweep.get("gamma", [federation.gamma])),
        sweep_users_per_round=tuple(sweep.get("users_per_round", [federation.users_per_round])),
        sweep_m=tuple(sweep.get("m", [federation.m])),
        repeats=int(_override("repeats", raw.get("repeats", 1))),
        out_dir=str(_override("out_dir", raw.get("out_dir", "results"))),
        master_seed=int(_override("master_seed", raw.get("master_seed", 0))),
    )


def load_experiment_data(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Load or generate the corpus, apply preprocessing, and split it."""
    if spec.dataset_path is not None:
        data = load_svmlight(spec.dataset_path)
    else:
        data = generate_synthetic(
            num_queries=int(spec.synthetic["queries"]),
            docs_per_query=int(spec.synthetic["docs_per_query"]),
            feature_dim=int(spec.synthetic["feature_dim"]),
            seed=int(spec.synthetic["seed"]),
            noise_sd=float(spec.synthetic["noise_sd"]),
        )
    if spec.filter_uniform:
        data = filter_uniform_queries(data)
    if spec.normalize:
        data = normalize_query_level(data)
    return split(data, spec.test_fraction, seed=int(spec.synthetic["seed"]))


def derive_seed(master_seed: int, sweep_index: int, repeat_index: int) -> int:
    """Pure function of (master seed, sweep index, repeat index)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(5, sweep_index, repeat_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _write_csv(path: Path, trace: list[RoundMetrics]) -> None:
    lines = ["round,ndcg5,mean_client_loss,total_clicks"]
    for m in trace:
        if m.ndcg5 is not None:
            lines.append(f"{m.round_index},{m.ndcg5!r},{m.mean_client_loss!r},{m.total_clicks}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(spec: ExperimentSpec) -> int:
    """Execute every (sweep point, repeat) run, write each run's CSV as
    soon as it finishes and one manifest per sweep point, and print a
    summary table of the points whose runs all finished. Returns a process
    exit status. A failed run does not stop the others: the FAILED marker
    names it and its error, and the exit status is 1."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        train, test = load_experiment_data(spec)
        points = []
        for sweep_index, (tag, point) in enumerate(spec.sweep_points()):
            runs = [
                (
                    f"run_{tag}_rep{repeat}",
                    replace(point, seed=derive_seed(spec.master_seed, sweep_index, repeat)),
                )
                for repeat in range(spec.repeats)
            ]
            points.append((tag, point, runs))
        jobs = [job for _, _, runs in points for job in runs]
        finals: dict[str, float] = {}
        failures: dict[str, str] = {}

        def finish(name: str, outcome) -> None:
            try:
                trace = outcome()
            except Exception as exc:
                failures[name] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
                print(f"run failed: {name}: {failures[name]}", file=sys.stderr)
                (out / "FAILED").write_text(
                    "".join(f"{n}: {failures[n]}\n" for n, _ in jobs if n in failures),
                    encoding="utf-8",
                )
                return
            _write_csv(out / f"{name}.csv", trace)
            finals[name] = final_ndcg(trace)

        workers = int(os.environ.get(WORKERS_ENV, "1"))
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(run_experiment, cfg, train, test): name for name, cfg in jobs
                }
                for future in as_completed(futures):
                    finish(futures[future], future.result)
        else:
            for name, cfg in jobs:
                finish(name, lambda: run_experiment(cfg, train, test))

        print("sweep_point,mean_final_ndcg5,stderr,repeats")
        for tag, point, runs in points:
            manifest = {
                "federation": asdict(point),
                "repeats": spec.repeats,
                "seeds": [cfg.seed for _, cfg in runs],
                "dataset": {"path": spec.dataset_path, "synthetic": spec.synthetic},
                "versions": {"fedltr": __version__, "numpy": np.__version__},
            }
            (out / f"manifest_{tag}.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            if any(name in failures for name, _ in runs):
                continue
            values = np.asarray([finals[name] for name, _ in runs])
            stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
            print(f"{tag},{values.mean():.4f},{stderr:.4f},{len(values)}")

        if spec.run_lambda:
            model = train_lambda_linear(train, spec.lambda_config, spec.master_seed)
            lam_ndcg = mean_ndcg(model, test, 5)
            (out / "lambda.json").write_text(
                json.dumps(
                    {"ndcg5": lam_ndcg, "config": asdict(spec.lambda_config)},
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
            print(f"lambda_linear,{lam_ndcg:.4f},0.0000,1")
        return 1 if failures else 0
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedltr", description="Federated learning-to-rank simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment or a sweep")
    run_p.add_argument("--config", help="JSON experiment spec")
    run_p.add_argument("--mode", choices=["fedips", "fedavg"])
    run_p.add_argument("--propensity-mode", dest="propensity_mode", choices=["known", "estimated"])
    run_p.add_argument("--gamma", type=float)
    run_p.add_argument("--users", dest="users_per_round", type=int,
                       help="participating users per round")
    run_p.add_argument("--population", dest="num_users", type=int,
                       help="total user population")
    run_p.add_argument("--clicks", dest="m", type=int, help="click quota per user per round")
    run_p.add_argument("--rounds", type=int)
    run_p.add_argument("--k", type=int, help="displayed positions")
    run_p.add_argument("--eta-local", dest="eta_local", type=float)
    run_p.add_argument("--eta-global", dest="eta_global", type=float)
    run_p.add_argument("--eval-every", dest="eval_every", type=int)
    run_p.add_argument("--seed", dest="master_seed", type=int)
    run_p.add_argument("--repeats", type=int)
    run_p.add_argument("--lambda", dest="run_lambda", action="store_const", const=True,
                       help="also train the full-information baseline")
    run_p.add_argument("--dataset", dest="dataset_path", help="svmlight file to use")
    run_p.add_argument("--out", dest="out_dir", help="output directory")

    gen_p = sub.add_parser("gen-data", help="write a synthetic svmlight dataset")
    gen_p.add_argument("--queries", type=int, default=500)
    gen_p.add_argument("--docs", type=int, default=20)
    gen_p.add_argument("--features", type=int, default=50)
    gen_p.add_argument("--seed", type=int, default=7)
    gen_p.add_argument("--noise-sd", type=float, default=1.5)
    gen_p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen-data":
        data = generate_synthetic(
            num_queries=args.queries,
            docs_per_query=args.docs,
            feature_dim=args.features,
            seed=args.seed,
            noise_sd=args.noise_sd,
        )
        write_svmlight(data, args.out)
        print(f"wrote {len(data.queries)} queries to {args.out}")
        return 0
    overrides = {
        key: getattr(args, key)
        for key in (
            "mode", "propensity_mode", "gamma", "users_per_round", "num_users", "m",
            "rounds", "k", "eta_local", "eta_global", "eval_every", "master_seed",
            "repeats", "run_lambda", "dataset_path", "out_dir",
        )
    }
    # --seed names the run's master seed; per-run seeds derive from it.
    overrides["seed"] = overrides["master_seed"]
    try:
        spec = parse_spec(args.config, overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
