"""Self-time tracing of the repro layers, installed from outside ``src/``.

:func:`install` wraps the public entry point of every layer the
benchmark reports on (traffic generation, corpus storage, schemes,
batch featurization, the attack pipeline and its classifiers, the
streaming attacker, the executor pool and each experiment spec's
build_cells / run_cell / combine / to_result) in a :class:`Tracer`
frame.  A frame books **self time**: its wall time minus the time spent
in wrapped calls nested inside it.  Every second is booked once:
featurization inside ``AttackPipeline.train`` and fits inside
``best_classifier`` go to their own layers, and the stage applies of a
``SchemeStack`` to the stack's own (outermost) apply frame.

Worker processes inherit the wrappers when the pool forks (install
before the pool starts and use the ``fork`` start method).  A worker
starts from empty totals and writes them to ``export_dir`` after every
cell it runs; :func:`merge_snapshots` sums the parent and every worker.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import operator
import os
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "layer_metrics", "merge_snapshots"]


class Tracer:
    """Per-process self-time and count book of wrapped calls.

    ``begin_interval``/``end_interval`` bracket the timed call in the
    process that makes it.  Time inside the interval that no wrapped
    frame covers is booked as ``gap_s``, so ``sum(self_s) + gap_s``
    equals ``interval_s`` when nothing is booked twice or missed.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.export_dir: str | None = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        #: name -> {distinct key: value}; unioned across processes.
        self.distinct: dict[str, dict[str, int]] = defaultdict(dict)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Drop every total (a forked worker starts from zero).

        A pool forks its workers from inside the parent's ``Pool()``
        frame, which never returns in the worker, so the open frames go
        too.  Containers are cleared in place: wrappers hold references
        to them.
        """
        self.pid = os.getpid()
        for book in (self.self_s, self.counts, self.peaks, self.distinct, self._stack, self._depth):
            book.clear()
        #: Inclusive seconds of top-level frames (a worker's busy time).
        self.top_s = 0.0
        self.gap_s = 0.0
        self.interval_s = 0.0
        self._interval_start = 0.0
        self._idle_since: float | None = None

    # -- intervals ---------------------------------------------------------

    def begin_interval(self) -> None:
        if self._stack:
            raise RuntimeError("begin_interval inside a traced call")
        self._interval_start = self._idle_since = self.clock()

    def end_interval(self) -> None:
        now = self.clock()
        self.gap_s += now - self._idle_since
        self.interval_s += now - self._interval_start
        self._idle_since = None

    # -- frames ------------------------------------------------------------

    def timed(self, layer: str, fn, outermost: bool = False, after=None):
        """``fn`` wrapped in a ``layer`` frame.

        With ``outermost``, calls nested inside a frame of the same
        layer run unwrapped: the outer frame already covers them.
        ``after(args, kwargs, result)`` runs once the frame is booked.
        """
        depth, stack, clock = self._depth, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[layer]:
                return fn(*args, **kwargs)
            if os.getpid() != self.pid:
                self.reset()
            start = clock()
            if not stack and self._idle_since is not None:
                self.gap_s += start - self._idle_since
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                depth[layer] -= 1
                stack.pop()
                self.self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                    if self._idle_since is not None:
                        self._idle_since = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "distinct": {name: dict(keys) for name, keys in self.distinct.items()},
            "top_s": self.top_s,
            "gap_s": self.gap_s,
            "interval_s": self.interval_s,
        }

    def export_if_worker(self, root_pid: int) -> None:
        """Write this worker's totals (called after each cell it runs)."""
        if os.getpid() == root_pid or self.export_dir is None:
            return
        path = os.path.join(self.export_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)


def merge_snapshots(parent: dict, workers: list[dict]) -> dict:
    """Sum seconds and counts, max peaks, union distinct keys.

    Also books each process's busy time and untimed gap: the parent is
    busy for the timed call minus the time it sat blocked on the pool
    (``executor.wait``); a worker is busy while its cells run, and every
    second of a cell is inside a frame, so a worker's gap is zero up to
    rounding.
    """
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    peaks: dict[str, int] = defaultdict(int)
    distinct: dict[str, dict[str, int]] = defaultdict(dict)
    processes = []
    for snap in [parent, *workers]:
        for key, value in snap["self_s"].items():
            self_s[key] += value
        for key, value in snap["counts"].items():
            counts[key] += value
        for key, value in snap["peaks"].items():
            peaks[key] = max(peaks[key], value)
        for key, values in snap["distinct"].items():
            distinct[key].update(values)
        if snap is parent:
            busy = snap["interval_s"] - snap["self_s"].get("executor.wait", 0.0)
            gap = snap["gap_s"]
        else:
            busy = snap["top_s"]
            gap = busy - sum(snap["self_s"].values())
        processes.append({"pid": snap["pid"], "busy_s": busy, "gap_s": gap})
    return {
        "self_s": dict(self_s),
        "counts": dict(counts),
        "peaks": dict(peaks),
        "distinct": dict(distinct),
        "processes": processes,
    }


def layer_metrics(merged: dict, workers: int) -> dict[str, float]:
    """The per-layer metric values of one traced run (see README.md)."""
    s, c, p, d = merged["self_s"], merged["counts"], merged["peaks"], merged["distinct"]
    processes = merged["processes"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    generated = c.get("traffic.packets_generated", 0)
    trained = c.get("attack.pipelines_trained", 0)
    wait = s.get("executor.wait", 0.0)
    worker_busy = sum(proc["busy_s"] for proc in processes[1:])
    return {
        "traffic.generate_s": s.get("traffic.generate", 0.0),
        "traffic.packets_generated": generated,
        "traffic.dup_ratio": ratio(generated, sum(d.get("traffic.corpus", {}).values())),
        "storage.build_s": s.get("storage.build", 0.0),
        "storage.open_s": s.get("storage.open", 0.0),
        "storage.bytes_mapped": p.get("storage.bytes_mapped", 0),
        "schemes.plan_s": s.get("schemes.plan", 0.0),
        "schemes.apply_s": s.get("schemes.apply", 0.0),
        "schemes.flows_materialized": c.get("schemes.flows_materialized", 0),
        "batch.featurize_s": s.get("batch.featurize", 0.0),
        "batch.windows": c.get("batch.windows", 0),
        "attack.train_s": s.get("attack.train", 0.0),
        "attack.pipelines_trained": trained,
        "attack.train_dup_ratio": ratio(trained, len(d.get("attack.pipelines", {}))),
        "attack.classify_s": s.get("attack.classify", 0.0),
        "attack.windows_classified": c.get("attack.windows_classified", 0),
        "classifiers.fit_s.nn": s.get("classifiers.fit.nn", 0.0),
        "classifiers.fit_s.svm": s.get("classifiers.fit.svm", 0.0),
        "classifiers.fit_s.bayes": s.get("classifiers.fit.bayes", 0.0),
        "classifiers.fits": c.get("classifiers.fits", 0),
        "stream.consume_s": s.get("stream.consume", 0.0),
        "stream.events": c.get("stream.events", 0),
        "stream.windows_closed": c.get("stream.windows_closed", 0),
        "stream.peak_open_packets": p.get("stream.peak_open_packets", 0),
        "executor.cells": c.get("executor.cells", 0),
        "executor.cell_s": s.get("executor.cell", 0.0),
        "executor.combine_s": s.get("executor.combine", 0.0),
        "executor.pool_s": s.get("executor.pool", 0.0),
        "executor.wait_s": wait,
        "executor.idle_s": max(0.0, workers * wait - worker_busy) if workers > 1 else 0.0,
        "untimed_s": sum(proc["gap_s"] for proc in processes),
        "untimed_share_max": max(ratio(proc["gap_s"], proc["busy_s"]) for proc in processes),
    }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


class _Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def attr(self, owner: object, name: str, value: object) -> None:
        old = vars(owner)[name]
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def item(self, mapping: dict, key: str, value: object) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def method(self, cls: type, name: str, wrap) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self.attr(cls, name, classmethod(wrap(raw.__func__)))
        else:
            self.attr(cls, name, wrap(raw))

    def function(self, original, wrapper) -> None:
        """Rebind every ``repro.*`` module attribute that is ``original``.

        Modules bind imported functions by name, so wrapping only the
        defining module would miss every ``from ... import`` caller.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.attr(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _concrete(cls: type, name: str) -> list[type]:
    """``cls`` and its subclasses that define a concrete ``name``."""
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        todo.extend(current.__subclasses__())
        member = vars(current).get(name)
        if (
            member is not None
            and not getattr(member, "__isabstractmethod__", False)
            and current not in found
        ):
            found.append(current)
    return found


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def install(tracer: Tracer) -> _Patches:
    """Wrap every traced layer; ``undo()`` on the result restores them."""
    import multiprocessing.pool

    import repro.experiments  # noqa: F401  (registers every spec)
    from repro.analysis import batch
    from repro.analysis.attack import AttackPipeline
    from repro.analysis.classifiers.base import Classifier
    from repro.analysis.windows import window_key
    from repro.experiments import registry
    from repro.experiments.scenarios import EvaluationScenario
    from repro.schemes.base import Scheme
    from repro.storage import shards
    from repro.stream.attack import OnlineAttack
    from repro.traffic.generator import TrafficGenerator

    patches = _Patches()
    counts, peaks, distinct = tracer.counts, tracer.peaks, tracer.distinct
    root_pid = os.getpid()

    # traffic: TrafficGenerator.generate -----------------------------------
    def generated(args, kwargs, trace):
        generator, app = args[0], _arg(args, kwargs, 1, "app")
        key = repr(
            (
                dataclasses.astuple(generator),
                str(getattr(app, "value", app)),
                float(_arg(args, kwargs, 2, "duration")),
                _arg(args, kwargs, 3, "session", 0),
                _arg(args, kwargs, 4, "channel", 1),
            )
        )
        counts["traffic.packets_generated"] += len(trace)
        distinct["traffic.corpus"][key] = len(trace)

    patches.method(
        TrafficGenerator, "generate",
        lambda fn: tracer.timed("traffic.generate", fn, after=generated),
    )

    # storage: save_corpus (minus its generation), open_corpus, from_store
    def opened(args, kwargs, store):
        peaks["storage.bytes_mapped"] = max(peaks["storage.bytes_mapped"], int(store.nbytes))

    patches.method(EvaluationScenario, "save_corpus", lambda fn: tracer.timed("storage.build", fn))
    patches.method(EvaluationScenario, "from_store", lambda fn: tracer.timed("storage.open", fn))
    patches.function(
        shards.open_corpus, tracer.timed("storage.open", shards.open_corpus, after=opened)
    )

    # schemes: fused_plan, and apply at the outermost call only ------------
    def applied(args, kwargs, defended):
        counts["schemes.flows_materialized"] += len(defended.observable_flows)

    for cls in _concrete(Scheme, "apply"):
        patches.method(
            cls, "apply",
            lambda fn: tracer.timed("schemes.apply", fn, outermost=True, after=applied),
        )
    for cls in _concrete(Scheme, "fused_plan"):
        patches.method(cls, "fused_plan", lambda fn: tracer.timed("schemes.plan", fn))

    # batch: flow_feature_matrix, fused_flow_matrices ---------------------
    def featurized(args, kwargs, result):
        if isinstance(result, list):
            counts["batch.windows"] += sum(len(matrix) for matrix in result)
        else:
            counts["batch.windows"] += len(result)

    for fn in (batch.flow_feature_matrix, batch.fused_flow_matrices):
        patches.function(fn, tracer.timed("batch.featurize", fn, after=featurized))

    # attack: train, classify_matrix; classifiers: fit per class ----------
    def trained(args, kwargs, pipeline):
        traces_by_app = _arg(args, kwargs, 1, "traces_by_app")
        attackers = pipeline._attackers
        key = repr(
            (
                window_key(pipeline.window),
                pipeline.min_packets,
                pipeline.seed,
                pipeline.feature_indices,
                pipeline.augment_directions,
                None if attackers is None else tuple(type(a).__name__ for a in attackers),
                tuple(
                    (label, len(traces), sum(len(trace) for trace in traces))
                    for label, traces in traces_by_app.items()
                ),
            )
        )
        counts["attack.pipelines_trained"] += 1
        distinct["attack.pipelines"][key] = 1

    def classified(args, kwargs, labels):
        counts["attack.windows_classified"] += len(labels)

    def fitted(args, kwargs, result):
        counts["classifiers.fits"] += 1

    patches.method(AttackPipeline, "train", lambda fn: tracer.timed("attack.train", fn, after=trained))
    patches.method(
        AttackPipeline, "classify_matrix",
        lambda fn: tracer.timed("attack.classify", fn, after=classified),
    )
    for cls in _concrete(Classifier, "fit"):
        layer = f"classifiers.fit.{getattr(cls, 'name', cls.__name__.lower())}"
        patches.method(cls, "fit", lambda fn, layer=layer: tracer.timed(layer, fn, after=fitted))

    # stream: OnlineAttack.consume -----------------------------------------
    def counting(fn):
        @functools.wraps(fn)
        def consume(self, stream):
            # zip/map/count run in C, so events are counted without a
            # Python frame per event.
            counter = itertools.count()
            before = self.featurizer.windows_emitted
            result = fn(self, map(operator.itemgetter(0), zip(stream, counter)))
            counts["stream.events"] += next(counter)
            counts["stream.windows_closed"] += self.featurizer.windows_emitted - before
            peaks["stream.peak_open_packets"] = max(
                peaks["stream.peak_open_packets"], self.featurizer.peak_open_packets
            )
            return result

        return tracer.timed("stream.consume", consume)

    patches.method(OnlineAttack, "consume", counting)

    # experiments: each spec's build_cells, run_cell, combine, to_result ---
    def cell_done(args, kwargs, result):
        counts["executor.cells"] += 1
        tracer.export_if_worker(root_pid)

    for name, spec in list(registry._REGISTRY.items()):
        # Specs are frozen; every executor path (serial and worker)
        # looks the spec up in the registry, so swapping the entry
        # swaps what runs.
        patches.item(
            registry._REGISTRY,
            name,
            dataclasses.replace(
                spec,
                build_cells=tracer.timed("executor.combine", spec.build_cells),
                run_cell=tracer.timed("executor.cell", spec.run_cell, after=cell_done),
                combine=tracer.timed("executor.combine", spec.combine),
                to_result=tracer.timed("executor.combine", spec.to_result),
            ),
        )
    # The parent forks and joins the workers (busy), and blocks on map.
    for name in ("__init__", "__exit__"):
        patches.method(multiprocessing.pool.Pool, name, lambda fn: tracer.timed("executor.pool", fn))
    patches.method(multiprocessing.pool.Pool, "map", lambda fn: tracer.timed("executor.wait", fn))
    return patches
