"""In-memory span recorder and run-time instrumentation of ``cooptile``.

``instrument`` wraps the public functions and methods of the traced
modules with span recorders for the duration of a ``with`` block and puts
the originals back afterwards; no program file changes. A span keeps its
name, its start and end, and the span that called it. Self time is a
span's duration minus the time its child spans cover, worked out as the
spans close, so nested calls are never counted twice.

Hooks that count work (rows, cycle reports, final populations) run with
the clock paused, so their cost lands in no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from enum import Enum

import numpy as np

#: Modules wrapped by ``instrument``, short names as used in span names.
TRACED_MODULES = ("geometry", "linear", "agents", "engine", "bench", "datasets")


class Recorder:
    """Closed spans in parallel arrays, plus counters filled by hooks."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._paused_ns = 0
        self.enabled = True
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self._next_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent_id = array("q")  # -1 for a root span
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.counters: dict[str, float] = {}
        self.populations: list[int] = []

    def now(self) -> int:
        """Clock that stands still while hooks run."""
        return self._clock() - self._paused_ns

    def name_index(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx: int) -> None:
        self._stack.append([self._next_id, name_idx, self.now(), 0])
        self._next_id += 1

    def close(self) -> None:
        end = self.now()
        sid, name_idx, start, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            self.parent_id.append(parent[0])
        else:
            self.parent_id.append(-1)
        self.span_id.append(sid)
        self.name_id.append(name_idx)
        self.start.append(start)
        self.end.append(end)
        self.self_ns.append(duration - child_ns)

    @contextmanager
    def paused(self):
        """Stop the clock and the recording of spans while the block runs."""
        t0 = self._clock()
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True
            self._paused_ns += self._clock() - t0

    def open_names(self) -> list[str]:
        """Names of the spans still open, outermost first."""
        return [self.names[frame[1]] for frame in self._stack]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def by_name(self) -> dict[str, dict[str, np.ndarray]]:
        """Durations and self times (ns) of the closed spans, per span name."""
        names, start, end, own = (np.asarray(a) for a in (self.name_id, self.start, self.end, self.self_ns))
        out = {}
        for idx, name in enumerate(self.names):
            sel = names == idx
            out[name] = {"duration": end[sel] - start[sel], "self": own[sel]}
        return out

    def write(self, path) -> None:
        """Write every closed span, one array per column, to an ``.npz`` file.

        ``name_id`` indexes ``names``; ``parent_id`` is -1 for a root span.
        """
        columns = {col: np.asarray(getattr(self, col)) for col in ("span_id", "parent_id", "name_id", "start", "end", "self_ns")}
        np.savez(
            path,
            names=np.array(self.names),
            counters=np.array(json.dumps(self.counters)),
            populations=np.array(self.populations, dtype=np.int64),
            **columns,
        )


def _wrap(rec: Recorder, name: str, fn, hook=None):
    idx = rec.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rec.open(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if hook is not None:
            with rec.paused():
                hook(rec, args, kwargs, result)
        return result

    return traced


def _public_members(module):
    """(owner, attribute, function, kind) for each public callable defined in ``module``."""
    for attr, value in list(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield module, attr, value, None
        elif inspect.isclass(value) and value.__module__ == module.__name__ and not issubclass(value, Enum):
            for name, member in list(vars(value).items()):
                if name.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    yield value, name, member.__func__, classmethod
                elif isinstance(member, staticmethod):
                    yield value, name, member.__func__, staticmethod
                elif inspect.isfunction(member):
                    yield value, name, member, None


@contextmanager
def instrument(rec: Recorder, hooks: dict | None = None):
    """Wrap every public function of ``TRACED_MODULES`` while the block runs.

    ``hooks`` maps a span name (``"engine.Engine.predict_batch"``) to
    ``hook(rec, args, kwargs, result)``, called after the span closes.
    Module-level functions are also rebound wherever another module
    imported them by name, so calls through either binding are traced.
    """
    import cooptile

    hooks = hooks or {}
    package = cooptile.__name__
    loaded = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    restore: list[tuple[object, str, object]] = []
    try:
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for owner, attr, fn, kind in _public_members(module):
                qual = attr if owner is module else f"{owner.__name__}.{attr}"
                name = f"{short}.{qual}"
                wrapped = _wrap(rec, name, fn, hooks.get(name))
                if owner is module:
                    for other in loaded:
                        if vars(other).get(attr) is fn:
                            restore.append((other, attr, fn))
                            setattr(other, attr, wrapped)
                else:
                    original = vars(owner)[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, kind(wrapped) if kind else wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

#: (metric, unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("geometry.contains.calls", "count", "lower"),
    ("geometry.contains.us", "us", "lower"),
    ("geometry.intersection_volume.calls", "count", "lower"),
    ("geometry.intersection_volume.us", "us", "lower"),
    ("geometry.reshape.calls", "count", "lower"),
    ("geometry.reshape.us", "us", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("linear.partial_fit.calls", "count", "lower"),
    ("linear.partial_fit.us", "us", "lower"),
    ("linear.predict.calls", "count", "lower"),
    ("linear.predict.us", "us", "lower"),
    ("linear.predict_batch.rows", "count", "higher"),
    ("linear.self_s", "s", "lower"),
    ("agents.apply_feedback.calls", "count", "lower"),
    ("agents.apply_feedback.us", "us", "lower"),
    ("agents.score.calls", "count", "lower"),
    ("agents.self_s", "s", "lower"),
    ("engine.explore_step.calls", "count", "lower"),
    ("engine.explore_step.p50_us", "us", "lower"),
    ("engine.explore_step.p99_us", "us", "lower"),
    ("engine.exploit_step.calls", "count", "lower"),
    ("engine.exploit_step.p50_us", "us", "lower"),
    ("engine.exploit_step.p99_us", "us", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.predict_batch.rows_per_s", "1/s", "higher"),
    ("engine.predict_batch.tie_rows", "count", "lower"),
    ("engine.predict_batch.uncovered_rows", "count", "lower"),
    ("engine.agents", "count", "lower"),
    ("engine.ncs.create", "count", "lower"),
    ("engine.ncs.push", "count", "lower"),
    ("engine.ncs.absorb", "count", "lower"),
    ("bench.grid_search_linear.s", "s", "lower"),
    ("bench.grid_search_mas.s", "s", "lower"),
    ("bench.engine_trainings", "count", "lower"),
    ("bench.pool.cpu_s", "s", "lower"),
    ("bench.pool.busy_ratio", "fraction", "higher"),
    ("datasets.generate.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Hypercube operations that return a reshaped box.
RESHAPES = ("push", "exclude", "enclose", "expand", "retract")


def _engine_predict_batch_hook(rec: Recorder, args, kwargs, result) -> None:
    import oracle

    engine, X = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["X"], dtype=float)
    ref = oracle.exploit(engine.snapshot(), X)
    rec.count("engine.predict_batch.rows", X.shape[0])
    rec.count("engine.predict_batch.tie_rows", int(ref.tied.sum()))
    rec.count("engine.predict_batch.uncovered_rows", int((~ref.covered).sum()))


def _linear_predict_batch_hook(rec: Recorder, args, kwargs, result) -> None:
    rec.count("linear.predict_batch.rows", len(result))


def _explore_step_hook(rec: Recorder, args, kwargs, result) -> None:
    for event in result.ncs_events:
        rec.count(f"engine.ncs.{event.resolution.value}")


def _train_hook(rec: Recorder, args, kwargs, result) -> None:
    rec.populations.append(len(result.agents))
    if any(name.startswith("bench.") for name in rec.open_names()):
        rec.count("bench.engine_trainings")


HOOKS = {
    "engine.Engine.predict_batch": _engine_predict_batch_hook,
    "linear.OnlineLinearModel.predict_batch": _linear_predict_batch_hook,
    "engine.Engine.explore_step": _explore_step_hook,
    "engine.Engine.train": _train_hook,
}


def layer_metrics(rec: Recorder, pool: dict, overhead_s: float) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS`` from one traced pass.

    ``pool`` holds ``cpu_s`` and ``busy_ratio`` measured by the untraced
    run (zero when no pool ran); ``overhead_s`` is traced minus untraced wall.
    """
    spans = rec.by_name()
    empty = {"duration": np.zeros(0, np.int64), "self": np.zeros(0, np.int64)}

    def get(name):
        return spans.get(name, empty)

    def calls(*names):
        return int(sum(get(n)["self"].size for n in names))

    def median_self_us(*names):
        values = np.concatenate([get(n)["self"] for n in names])
        return float(np.median(values)) / 1e3 if values.size else 0.0

    def pct_us(name, q):
        values = get(name)["duration"]
        return float(np.percentile(values, q)) / 1e3 if values.size else 0.0

    def self_s(module):
        return float(sum(s["self"].sum() for n, s in spans.items() if n.startswith(module + "."))) / 1e9

    def total_s(*names):
        return float(sum(get(n)["duration"].sum() for n in names)) / 1e9

    reshape = [f"geometry.Hypercube.{op}" for op in RESHAPES]
    batch_s = total_s("engine.Engine.predict_batch")
    c = rec.counters
    out = {
        "geometry.contains.calls": calls("geometry.Hypercube.contains"),
        "geometry.contains.us": median_self_us("geometry.Hypercube.contains"),
        "geometry.intersection_volume.calls": calls("geometry.Hypercube.intersection_volume"),
        "geometry.intersection_volume.us": median_self_us("geometry.Hypercube.intersection_volume"),
        "geometry.reshape.calls": calls(*reshape),
        "geometry.reshape.us": median_self_us(*reshape),
        "geometry.self_s": self_s("geometry"),
        "linear.partial_fit.calls": calls("linear.OnlineLinearModel.partial_fit"),
        "linear.partial_fit.us": median_self_us("linear.OnlineLinearModel.partial_fit"),
        "linear.predict.calls": calls("linear.OnlineLinearModel.predict"),
        "linear.predict.us": median_self_us("linear.OnlineLinearModel.predict"),
        "linear.predict_batch.rows": int(c.get("linear.predict_batch.rows", 0)),
        "linear.self_s": self_s("linear"),
        "agents.apply_feedback.calls": calls("agents.ContextAgent.apply_feedback"),
        "agents.apply_feedback.us": median_self_us("agents.ContextAgent.apply_feedback"),
        "agents.score.calls": calls("agents.ContextAgent.score"),
        "agents.self_s": self_s("agents"),
        "engine.explore_step.calls": calls("engine.Engine.explore_step"),
        "engine.explore_step.p50_us": pct_us("engine.Engine.explore_step", 50),
        "engine.explore_step.p99_us": pct_us("engine.Engine.explore_step", 99),
        "engine.exploit_step.calls": calls("engine.Engine.exploit_step"),
        "engine.exploit_step.p50_us": pct_us("engine.Engine.exploit_step", 50),
        "engine.exploit_step.p99_us": pct_us("engine.Engine.exploit_step", 99),
        "engine.self_s": self_s("engine"),
        "engine.predict_batch.rows_per_s": c.get("engine.predict_batch.rows", 0) / batch_s if batch_s else 0.0,
        "engine.predict_batch.tie_rows": int(c.get("engine.predict_batch.tie_rows", 0)),
        "engine.predict_batch.uncovered_rows": int(c.get("engine.predict_batch.uncovered_rows", 0)),
        "engine.agents": float(np.mean(rec.populations)) if rec.populations else 0.0,
        "engine.ncs.create": int(c.get("engine.ncs.create", 0)),
        "engine.ncs.push": int(c.get("engine.ncs.push", 0)),
        "engine.ncs.absorb": int(c.get("engine.ncs.absorb", 0)),
        "bench.grid_search_linear.s": total_s("bench.grid_search_linear"),
        "bench.grid_search_mas.s": total_s("bench.grid_search_mas"),
        "bench.engine_trainings": int(c.get("bench.engine_trainings", 0)),
        "bench.pool.cpu_s": float(pool.get("cpu_s", 0.0)),
        "bench.pool.busy_ratio": float(pool.get("busy_ratio", 0.0)),
        "datasets.generate.s": total_s(*(n for n in spans if n.startswith("datasets."))),
        "trace.overhead_s": float(overhead_s),
    }
    assert list(out) == [m[0] for m in LAYER_METRICS]
    return out
