"""Experiment harness: JSON/flag configuration, sweeps with derived
seeds, CSV traces, and a summary table."""

from __future__ import annotations

import argparse
import contextlib
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
    SPLIT_RULES,
    SYNTHETIC_RULES,
    Dataset,
    filter_uniform_queries,
    generate_synthetic,
    load_svmlight,
    normalize_query_level,
    split,
    write_svmlight,
)
from .federation import (
    FederationConfig,
    RoundMetrics,
    final_ndcg,
    run_experiment,
)
from .metrics import mean_ndcg
from .rules import check

WORKERS_ENV = "FEDLTR_WORKERS"

_SPEC_KEYS = {
    "dataset",
    "test_fraction",
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
# generate_synthetic's arguments and their defaults, for `dataset.synthetic`
# and for `gen-data`.
_SYNTHETIC_DEFAULTS = {
    "queries": 500,
    "docs_per_query": 20,
    "feature_dim": 50,
    "seed": 7,
    "noise_sd": 1.5,
}
# The sweep axes in tag order, each with its tag prefix.
_SWEEP_TAGS = {"gamma": "g", "users_per_round": "u", "m": "m"}
# The value rule of each of the spec's own values, by its key in the spec;
# see `rules`. A value of the wrong type is rejected, not converted:
# bool("false") is True, int(2.7) is 2 and open(5) reads file descriptor 5.
_SPEC_RULES = {
    **SPLIT_RULES,
    "repeats": "integer [1, inf)",
    "master_seed": "integer",
    "run_lambda": "bool",
    "dataset.path": "string",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment plan: data source, test split, base
    federated config, sweep axes, and output location."""

    dataset_path: str | None
    synthetic: dict
    test_fraction: float
    federation: FederationConfig
    modes: tuple[str, ...]
    run_lambda: bool
    lambda_config: LambdaConfig
    sweep: dict
    repeats: int
    out_dir: str
    master_seed: int

    def __post_init__(self) -> None:
        path = {} if self.dataset_path is None else {"dataset.path": self.dataset_path}
        check("", _SPEC_RULES, {**vars(self), **path})
        check("dataset.synthetic", SYNTHETIC_RULES, self.synthetic)
        if not self.modes:
            raise ValueError("modes must be nonempty")
        if not all(self.sweep[axis] for axis in _SWEEP_TAGS):
            raise ValueError("sweep lists must be nonempty")
        # Building every point's config checks the sweep values and modes
        # here, at parse time, rather than when their run starts.
        self.sweep_points()

    def sweep_points(self) -> list[tuple[str, FederationConfig]]:
        """The (tag, config) of every point of the cross product of sweep
        values and modes, in run order. Each run's seed is derived from
        master_seed when it starts."""
        points = []
        axes = [self.sweep[axis] for axis in _SWEEP_TAGS]
        for *values, mode in itertools.product(*axes, self.modes):
            labels = [f"{prefix}{value}" for prefix, value in zip(_SWEEP_TAGS.values(), values)]
            tag = "_".join([*labels, mode])
            try:
                point = replace(self.federation, mode=mode, **dict(zip(_SWEEP_TAGS, values)))
            except ValueError as exc:
                raise ValueError(f"sweep point {tag}: {exc}") from None
            points.append((tag, point))
        return points


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _section(raw: dict, key: str, allowed, where: str | None = None) -> dict:
    """A copy of the JSON object raw[key] (empty when absent), whose keys
    must be among `allowed`. `where` names it in errors."""
    where = where or key
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    _check_keys(value, allowed, where)
    return dict(value)


def _list(value, where: str) -> tuple:
    """The JSON list `value` as a tuple; `where` names it in errors. A
    string would otherwise be read as a list of its characters."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a JSON list, got {value!r}")
    return tuple(value)


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

    dataset_cfg = _section(raw, "dataset", _DATASET_KEYS)
    synthetic = dict(_SYNTHETIC_DEFAULTS)
    synthetic.update(_section(dataset_cfg, "synthetic", _SYNTHETIC_DEFAULTS, "dataset.synthetic"))

    # The mode is swept over `modes` and every run's seed derives from
    # master_seed; every other field may come from the file or, winning over
    # it, from an override.
    fed_fields = set(FederationConfig.__dataclass_fields__) - {"mode", "seed"}
    fed_raw = _section(raw, "federation", fed_fields)
    fed_raw.update((k, v) for k, v in overrides.items() if k in fed_fields and v is not None)
    federation = FederationConfig(**fed_raw)

    lambda_config = LambdaConfig(**_section(raw, "lambda", LambdaConfig.__dataclass_fields__))

    sweep_raw = _section(raw, "sweep", _SWEEP_TAGS)
    sweep = {
        axis: _list(sweep_raw.get(axis, [getattr(federation, axis)]), f"sweep.{axis}")
        for axis in _SWEEP_TAGS
    }

    modes = _list(raw.get("modes", ["fedips"]), "modes")
    if overrides.get("mode") is not None:
        modes = (overrides["mode"],)

    def _override(name, default):
        value = overrides.get(name)
        return default if value is None else value

    return ExperimentSpec(
        dataset_path=_override("dataset_path", dataset_cfg.get("path")),
        synthetic=synthetic,
        test_fraction=raw.get("test_fraction", 0.2),
        federation=federation,
        modes=modes,
        run_lambda=_override("run_lambda", raw.get("run_lambda", False)),
        lambda_config=lambda_config,
        sweep=sweep,
        repeats=_override("repeats", raw.get("repeats", 1)),
        out_dir=str(_override("out_dir", raw.get("out_dir", "results"))),
        master_seed=_override("master_seed", raw.get("master_seed", 0)),
    )


def load_experiment_data(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Load or generate the corpus, drop the queries whose documents all
    share one grade, scale features per query, and split it."""
    if spec.dataset_path is not None:
        data = load_svmlight(spec.dataset_path)
    else:
        data = generate_synthetic(**spec.synthetic)
    kept = filter_uniform_queries(data)
    if kept.n_queries == 0:
        raise ValueError(
            f"the corpus's {data.n_queries} queries are all dropped: "
            "each one's documents share one grade"
        )
    return split(normalize_query_level(kept), spec.test_fraction, seed=spec.synthetic["seed"])


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


def _workers_from_env() -> int:
    """The number of worker processes FEDLTR_WORKERS asks for; 1 when it
    is unset."""
    value = os.environ.get(WORKERS_ENV, "1")
    # A string that int() cannot read fails the check as it stands.
    with contextlib.suppress(ValueError):
        value = int(value)
    check("", {WORKERS_ENV: "integer [1, inf)"}, {WORKERS_ENV: value})
    return value


def run(spec: ExperimentSpec, workers: int = 1) -> int:
    """Execute every (sweep point, repeat) run, write each run's CSV as
    soon as it finishes and one manifest per sweep point, and print a
    summary table of the points whose runs all finished. Returns a process
    exit status. A failed run does not stop the others: the FAILED marker
    names it and its error, and the exit status is 1; a marker left by an
    earlier run into the same directory is removed first. With workers > 1
    runs are spread over that many processes. An output directory that
    cannot be made exits 2, as a bad configuration does."""
    out = Path(spec.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "FAILED").unlink(missing_ok=True)
    except OSError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
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
            federation = asdict(point)
            del federation["seed"]
            manifest = {
                "federation": federation,
                "master_seed": spec.master_seed,
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
    gen_p.add_argument("--queries", type=int)
    gen_p.add_argument("--docs", dest="docs_per_query", type=int)
    gen_p.add_argument("--features", dest="feature_dim", type=int)
    gen_p.add_argument("--seed", type=int)
    gen_p.add_argument("--noise-sd", dest="noise_sd", type=float)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(**_SYNTHETIC_DEFAULTS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen-data":
        try:
            data = generate_synthetic(**{key: getattr(args, key) for key in _SYNTHETIC_DEFAULTS})
            write_svmlight(data, args.out)
        except (ValueError, OSError) as exc:
            print(f"gen-data failed: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {data.n_queries} queries to {args.out}")
        return 0
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        spec = parse_spec(args.config, overrides)
        workers = _workers_from_env()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(spec, workers)


if __name__ == "__main__":
    sys.exit(main())
