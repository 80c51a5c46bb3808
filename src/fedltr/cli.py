"""Experiment harness: JSON/flag configuration, sweeps with derived
seeds, CSV traces, and a summary table."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import train_lambda_linear
from .dataset import (
    SPLIT_RULES,
    SYNTHETIC_RULES,
    Dataset,
    filter_uniform_queries,
    generate_synthetic,
    load_svmlight,
    normalize_query_level,
    split,
    worker_count,
    write_svmlight,
)
from .federation import (
    FEDERATION_RULES,
    FederationConfig,
    RoundMetrics,
    final_ndcg,
    run_experiment,
)
from .metrics import mean_ndcg
from .rules import check

# generate_synthetic's arguments and their defaults, for `dataset.synthetic`
# and for `gen-data`.
_SYNTHETIC_DEFAULTS = {
    "queries": 500,
    "docs_per_query": 20,
    "feature_dim": 50,
    "seed": 7,
}
# The sweep axes in tag order, each with its tag prefix.
_SWEEP_TAGS = {"gamma": "g", "users_per_round": "u", "m": "m"}
# The value rule of each of the spec's own values, by its key in the spec;
# see `rules`. A value of the wrong type is rejected, not converted:
# bool("false") is True, int(2.7) is 2 and open(5) reads file descriptor 5.
_SPEC_RULES = {
    **SPLIT_RULES,
    "repeats": "integer [1, inf)",
    "master_seed": "integer [0, inf)",
    "run_lambda": "bool",
    "out_dir": "string",
    "dataset.path": "string",
}
# The defaults of the spec's own values but `modes` and `dataset.path`.
_SPEC_DEFAULTS = {
    "test_fraction": 0.2, "run_lambda": False, "repeats": 1, "out_dir": "results", "master_seed": 0
}
# The spec's layout: every key it may hold, each with its rule; see `rules`.
# A file's values are checked as written, so a flag that replaces one does
# not hide it; the ExperimentSpec and FederationConfig built from them check
# the values they take. A null `dataset.path` names no file. The mode is
# swept over `modes` and every run's seed derives from master_seed, so
# `federation` holds neither.
_SPEC_LAYOUT = {
    "dataset": {"path": None, "synthetic": SYNTHETIC_RULES},
    "federation": {field: rule for field, rule in FEDERATION_RULES.items() if field != "mode"},
    "sweep": dict.fromkeys(_SWEEP_TAGS, "list"),
    "modes": "list",
    **{key: _SPEC_RULES[key] for key in _SPEC_DEFAULTS},
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
            # A mode that is not a string is formatted as the axis values
            # are, so the mode rule, not the join, reports it.
            labels = [f"{prefix}{value}" for prefix, value in zip(_SWEEP_TAGS.values(), values)]
            tag = "_".join([*labels, f"{mode}"])
            # Runs are named by their tag, so a repeated one would overwrite files.
            if any(tag == seen for seen, _ in points):
                raise ValueError(f"sweep point {tag} appears twice")
            try:
                point = replace(self.federation, mode=mode, **dict(zip(_SWEEP_TAGS, values)))
            except ValueError as exc:
                raise ValueError(f"sweep point {tag}: {exc}") from None
            points.append((tag, point))
        return points


def parse_spec(config_path: str | None = None, overrides: dict | None = None) -> ExperimentSpec:
    """Resolve an ExperimentSpec from an optional JSON file plus flag
    overrides, which win over it; a flag that was not set is None. Unknown
    keys anywhere are errors; omitted fields take the standard defaults."""
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    raw: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
    check("", _SPEC_LAYOUT, raw, "config")
    values = {**_SPEC_DEFAULTS, **raw, **flags}
    dataset, sweep = raw.get("dataset", {}), raw.get("sweep", {})
    fed_flags = {key: value for key, value in flags.items() if key in _SPEC_LAYOUT["federation"]}
    federation = FederationConfig(**{**raw.get("federation", {}), **fed_flags})
    return ExperimentSpec(
        dataset_path=flags.get("dataset_path", dataset.get("path")),
        synthetic={**_SYNTHETIC_DEFAULTS, **dataset.get("synthetic", {})},
        federation=federation,
        modes=(flags["mode"],) if "mode" in flags else tuple(raw.get("modes", ["fedips"])),
        sweep={axis: tuple(sweep.get(axis, [getattr(federation, axis)])) for axis in _SWEEP_TAGS},
        **{key: values[key] for key in _SPEC_DEFAULTS},
    )


def load_experiment_data(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Load or generate the corpus, drop the queries whose documents all
    share one grade, scale features per query, and split it, seeded by
    `dataset.synthetic.seed` even for a file: `--seed` never moves a split."""
    if spec.dataset_path is not None:
        data = load_svmlight(spec.dataset_path)
    else:
        data = generate_synthetic(**spec.synthetic)
    # Rebinding `data` frees each stage's input once its output exists.
    n_queries = data.n_queries
    data = filter_uniform_queries(data)
    if data.n_queries == 0:
        raise ValueError(
            f"the corpus's {n_queries} queries are all dropped: "
            "each one's documents share one grade"
        )
    data = normalize_query_level(data)
    return split(data, spec.test_fraction, seed=spec.synthetic["seed"])


def derive_seed(master_seed: int, sweep_index: int, repeat_index: int) -> int:
    """Pure function of (master seed, sweep index, repeat index)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(5, sweep_index, repeat_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _write_csv(path: Path, trace: list[RoundMetrics]) -> None:
    lines = ["round,ndcg5,mean_client_loss,total_clicks"]
    for m in trace:
        lines.append(f"{m.round_index},{m.ndcg5!r},{m.mean_client_loss!r},{m.total_clicks}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The (train, test) corpus of a sweep's worker process.
_corpus: tuple[Dataset, Dataset] | None = None


def _keep_corpus(train: Dataset, test: Dataset) -> None:
    """Start a sweep's worker process: keep the corpus its runs share."""
    global _corpus
    _corpus = (train, test)


def _run_on_corpus(cfg: FederationConfig) -> list[RoundMetrics]:
    """One run of a sweep's worker process, on the corpus it keeps."""
    return run_experiment(cfg, *_corpus)


def run(spec: ExperimentSpec) -> int:
    """Execute every (sweep point, repeat) run, write each run's CSV as
    soon as it finishes and one manifest per sweep point, and print a
    summary table of the points whose runs all finished. Returns a process
    exit status. A failed run does not stop the others: the FAILED marker
    names it and its error, and the exit status is 1; a marker left by an
    earlier run into the same directory is removed first. Runs are spread
    over `worker_count(runs)` processes. An output directory that cannot be
    made exits 2, as a bad configuration does."""
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

        # A fork-started pool starts all of its workers at once, needed or not.
        workers = worker_count(len(jobs))
        if workers > 1:
            # Imported here, as a serial run never needs its resident memory.
            from concurrent.futures import ProcessPoolExecutor, as_completed
            # Each worker gets the corpus once, when it starts.
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_keep_corpus, initargs=(train, test)
            ) as pool:
                futures = {pool.submit(_run_on_corpus, cfg): name for name, cfg in jobs}
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
            model = train_lambda_linear(train, spec.master_seed)
            lam_ndcg = mean_ndcg(model, test, 5)
            (out / "lambda.json").write_text(
                json.dumps({"ndcg5": lam_ndcg}, indent=2) + "\n", encoding="utf-8"
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
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(**_SYNTHETIC_DEFAULTS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen-data":
        try:
            data = generate_synthetic(**{key: getattr(args, key) for key in _SYNTHETIC_DEFAULTS})
            write_svmlight(data, args.out)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"gen-data failed: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {data.n_queries} queries to {args.out}")
        return 0
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        spec = parse_spec(args.config, overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
