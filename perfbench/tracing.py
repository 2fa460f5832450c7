"""Spans around the calls permitsim's layers make into each other.

The benchmark installs timing wrappers on module attributes, from outside
the package, for the length of one traced run.  Each call becomes a span
(name, start, end, parent) kept in memory; self time is a span's duration
minus the time its child spans cover.  Spans flagged ``memory`` also record
the peak of the bytes allocated inside them, traced by ``tracemalloc``.

Nothing here is imported by permitsim, and the wrappers are removed when
``Tracer.installed`` exits, also on error.
"""

from __future__ import annotations

import importlib
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from workloads import STANDARD_KINDS


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = math.nan
    attrs: dict = field(default_factory=dict)
    peak_alloc_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    ``name_of(args, kwargs)`` names the span when one name is not enough;
    ``on_return(span, args, kwargs, result)`` stores counts on it.
    """

    module: str
    attr: str
    name: str
    memory: bool = False
    name_of: Callable | None = None
    on_return: Callable | None = None


class Tracer:
    """Collects nested spans in memory for one run.

    With ``memory`` off, spans flagged ``memory`` are timed like any other:
    tracemalloc slows every allocation, so a run that measures self time
    should not also trace memory.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, memory: bool = False) -> Iterator[Span]:
        """Time the block as a child of the innermost open span.

        With ``memory`` (and the tracer's ``memory``), tracemalloc traces the
        block alone, which keeps its cost out of the rest of the run; such
        spans therefore cannot nest.
        """
        memory = memory and self.memory
        if memory:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"memory span {name!r} inside another traced block")
            tracemalloc.start()
        parent = self._open[-1] if self._open else -1
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if memory:
                span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            name = target.name_of(args, kwargs) if target.name_of else target.name
            with self.span(name, memory=target.memory) as span:
                result = fn(*args, **kwargs)
            if target.on_return:
                target.on_return(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for target in targets:
                module = importlib.import_module(target.module)
                fn = getattr(module, target.attr)
                originals.append((module, target.attr, fn))
                setattr(module, target.attr, self.wrap(fn, target))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


# ---------------------------------------------------------------------------
# permitsim's layer boundaries

_TRAJECTORY_FIELDS = (
    "price",
    "total_bank",
    "total_emissions",
    "avg_abatement",
    "net_allocation_minus_initial",
)


def _noise_counts(span: Span, args, kwargs, noise) -> None:
    span.attrs.update(
        seed=noise.seed,
        path_offset=noise.path_offset,
        paths=noise.n_paths,
        bytes=noise.d_tilde.nbytes + noise.d_firm.nbytes,
    )


def _sample_counts(span: Span, args, kwargs, sample) -> None:
    span.attrs["trajectory_elements"] = sum(
        getattr(sample, name).size for name in _TRAJECTORY_FIELDS
    )


def _policy_kind(args, kwargs) -> str:
    policy = args[0] if args else kwargs["policy"]
    return f"policies.simulate_policy_paths.{policy.kind.value}"


#: The module attributes through which the layers call each other.
LAYER_TARGETS = [
    Target("permitsim.stochastic", "generate_noise", "stochastic.generate_noise",
           on_return=_noise_counts),
    Target("permitsim.policies", "allocation_views", "policies.allocation_views",
           memory=True),
    Target("permitsim.policies", "equilibrium_frictionless",
           "equilibrium.equilibrium_frictionless", memory=True),
    Target("permitsim.equilibrium", "best_response_frictionless",
           "firm.best_response_frictionless"),
    Target("permitsim.cli", "simulate_policy_paths", "policies.simulate_policy_paths",
           name_of=_policy_kind, on_return=_sample_counts),
    Target("permitsim.cli", "cost_report_from_samples",
           "policies.cost_report_from_samples"),
]

#: Root span name per workload command: the CLI function the run calls.
ROOT_SPANS = {"simulate": "cli.run_simulate", "compare": "cli.run_compare"}
_SELF_TIMED = (
    "stochastic.generate_noise",
    "policies.allocation_views",
    "equilibrium.equilibrium_frictionless",
    "firm.best_response_frictionless",
    *(f"policies.simulate_policy_paths.{k}" for k in STANDARD_KINDS),
    "policies.cost_report_from_samples",
    *ROOT_SPANS.values(),
)
_CALL_COUNTED = (
    "stochastic.generate_noise",
    "policies.allocation_views",
    "equilibrium.equilibrium_frictionless",
    "firm.best_response_frictionless",
)
_MEMORY_TRACKED = ("policies.allocation_views", "equilibrium.equilibrium_frictionless")

#: Per-layer metric name -> unit, as listed in BENCHMARK.json.
LAYER_UNITS: dict[str, str] = {
    **{f"{n}.self_s": "s" for n in _SELF_TIMED},
    **{f"{n}.calls": "count" for n in _CALL_COUNTED},
    **{f"{n}.peak_alloc_mb": "MB" for n in _MEMORY_TRACKED},
    "stochastic.generate_noise.paths": "count",
    "stochastic.noise_bytes": "B-computed",
    "stochastic.noise_regen_ratio": "ratio",
    **{
        f"policies.simulate_policy_paths.{k}.{stat}": unit
        for k in STANDARD_KINDS
        for stat, unit in (("chunk_s_p50", "s"), ("chunk_s_p90", "s"), ("chunks", "count"))
    },
    "cli.output_bytes": "B",
    "cli.trajectory_use_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_time_share": "ratio",
}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    tracer: Tracer, wall_s: float, trajectory_elements_written: int, output_bytes: int
) -> dict:
    """Per-layer values of one traced run of ``wall_s``, except ``trace.overhead_s``.

    Counts come from the spans; ``stochastic.noise_bytes`` is computed from
    array shapes, not measured.  ``trace.self_time_share`` is the sum of the
    reported self times over ``wall_s``: near 1 when the spans cover the run.
    """
    spans = tracer.spans
    own = tracer.self_times()
    metrics: dict[str, float] = {}
    for name in _SELF_TIMED:
        metrics[f"{name}.self_s"] = sum(
            (t for s, t in zip(spans, own) if s.name == name), 0.0
        )
    for name in _CALL_COUNTED:
        metrics[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    for name in _MEMORY_TRACKED:
        peaks = [s.peak_alloc_bytes for s in spans if s.name == name]
        # a run without tracemalloc leaves these to the tracemalloc runs
        metrics[f"{name}.peak_alloc_mb"] = (
            max(peaks, default=0) / 2**20 if tracer.memory else None
        )

    noise = [s.attrs for s in spans if s.name == "stochastic.generate_noise"]
    generated = sum(a["paths"] for a in noise)
    distinct = {
        (a["seed"], a["path_offset"] + p) for a in noise for p in range(a["paths"])
    }
    metrics["stochastic.generate_noise.paths"] = generated
    metrics["stochastic.noise_bytes"] = sum(a["bytes"] for a in noise)
    metrics["stochastic.noise_regen_ratio"] = generated / len(distinct) if distinct else 0.0

    returned = 0
    for kind in STANDARD_KINDS:
        name = f"policies.simulate_policy_paths.{kind}"
        chunks = [s for s in spans if s.name == name]
        durations = [s.duration for s in chunks]
        returned += sum(s.attrs["trajectory_elements"] for s in chunks)
        metrics[f"{name}.chunk_s_p50"] = nearest_rank(durations, 0.5)
        metrics[f"{name}.chunk_s_p90"] = nearest_rank(durations, 0.9)
        metrics[f"{name}.chunks"] = len(chunks)

    metrics["cli.output_bytes"] = output_bytes
    metrics["cli.trajectory_use_ratio"] = (
        trajectory_elements_written / returned if returned else 0.0
    )
    metrics["trace.wall_s"] = wall_s
    metrics["trace.self_time_share"] = (
        sum(metrics[f"{name}.self_s"] for name in _SELF_TIMED) / wall_s
    )
    return metrics
