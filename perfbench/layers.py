"""Outside-in per-layer tracing.

`Tracer` replaces public fedltr functions at the module attribute their
caller looks up (`fedltr.federation.client_opt`, `fedltr.cli.load_svmlight`,
...) with timing wrappers, and puts the originals back on exit. Each
wrapper adds its wall time to its layer and to the enclosing wrapped call,
so a layer's self time is its time minus that of the wrapped calls it
made. A function that no longer exists leaves its layer absent.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """Timed layer `name`: the functions `attrs` of `module`, as their
    caller sees them. `on_result(tracer, args, result)` counts the work a
    call did."""

    name: str
    module: str
    attrs: tuple[str, ...]
    on_result: Callable | None = None


def _count_impressions(tracer: "Tracer", args: tuple, records) -> None:
    tracer.counts["clicksim.impressions"] += len(records)
    tracer.counts["clicksim.clicks"] += sum(r.n_clicks for r in records)
    tracer.seen_users.add(args[0].id)


LAYERS = (
    Layer("dataset.load_s", "fedltr.cli", ("generate_synthetic", "load_svmlight")),
    Layer(
        "dataset.prepare_s",
        "fedltr.cli",
        ("filter_uniform_queries", "normalize_query_level", "split"),
    ),
    Layer("federation.init", "fedltr.federation", ("init_state",)),
    Layer("clicksim.logging_policy_s", "fedltr.federation", ("train_logging_policy",)),
    Layer("federation.round", "fedltr.federation", ("run_round",)),
    Layer(
        "clicksim.collect_s", "fedltr.federation", ("collect_round_clicks",), _count_impressions
    ),
    Layer("objective.client_loss_s", "fedltr.federation", ("client_loss",)),
    Layer("federation.client_opt_s", "fedltr.federation", ("client_opt",)),
    Layer("federation.server_opt_s", "fedltr.federation", ("server_opt",)),
    Layer("propensity.em_round_s", "fedltr.federation", ("federated_em_round",)),
    Layer("metrics.eval_s", "fedltr.federation", ("mean_ndcg",)),
)


class Tracer:
    """Context manager that wraps the functions of `layers` while active.

    `total[name]` and `own[name]` hold each layer's wall time and self time
    in seconds, `calls[name]` its call count, `counts` the work counted by
    the layers' result hooks and `absent` the layers none of whose
    functions exist.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_users: set = set()
        self.absent: set[str] = set()
        self._children: list[float] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for layer in self.layers:
            module = importlib.import_module(layer.module)
            found = False
            for attr in layer.attrs:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found = True
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            if not found:
                self.absent.add(layer.name)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.total[layer.name] += elapsed
                self.own[layer.name] += elapsed - self._children.pop()
                self.calls[layer.name] += 1
                if self._children:
                    self._children[-1] += elapsed
            if layer.on_result is not None:
                layer.on_result(self, args, result)
            return result

        return wrapper
