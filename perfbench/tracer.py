"""Outside-in layer tracing for the benchmark.

The tracer replaces public palab functions at the module attributes their
callers look up at call time (``palab.processes.dpi.wasserstein_l1``,
``palab.cli.empirical_pmf``, ...) with wrappers that record one span per
call.  Nothing inside ``src/`` changes; ``uninstall`` puts the original
objects back, so untraced passes run the unmodified program.

A span's self time is its duration minus the durations of the spans it
encloses.  Self times telescope: over one traced pass, the self times of all
layer spans plus the self time of the enclosing ``bench`` root span add up to
the pass's wall time exactly (up to float rounding).

A probe whose attribute no longer exists is skipped at install time and keeps
reporting zero calls, so a later change that deletes a wrapped function
leaves the layer metric in place instead of crashing the traced run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

_clock = time.perf_counter


def n_atoms(pmf) -> int:
    """Stored support size of a pmf, whichever representation it uses."""
    atoms = getattr(pmf, "atoms", None)
    if atoms is not None:
        return len(atoms)
    return len(pmf.support_arrays()[1])


def n_rows(batch) -> int:
    """Row count of a sample batch (``SampleBatch.count``) or a row array."""
    count = getattr(batch, "count", None)
    return int(count) if count is not None else len(batch)


@dataclass
class Probe:
    """One wrapped attribute: where it lives, which layer and kind it
    belongs to, and what it accumulated since the last reset."""

    target: str            # "module.path:attr" or "module.path:Class.attr"
    layer: str
    kind: str
    note: Optional[Callable] = None   # note(probe, args, kwargs, result)
    timed: bool = True                # False: count calls only, no span
    self_s: float = 0.0
    calls: int = 0
    failures: int = 0
    counts: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)
    installed: bool = False

    def reset(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.failures = 0
        self.counts = {}
        self.durations = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _resolve(target: str):
    """(owner object, attribute name) for ``module:attr`` or ``module:Class.attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs probes, keeps the span stack, and aggregates layer metrics."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self._stack: list[float] = [0.0]
        self._saved: list[tuple[object, str, object]] = []
        self.root_s = 0.0       # duration of the bench root spans
        self.root_self_s = 0.0  # root duration not covered by any layer span

    # -- wrappers ------------------------------------------------------------
    def _timed(self, fn, probe: Probe):
        stack = self._stack
        note = probe.note

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                probe.failures += 1
                raise
            finally:
                dur = _clock() - t0
                probe.self_s += dur - stack.pop()
                probe.calls += 1
                stack[-1] += dur
                probe.durations.append(dur)
            if note is not None:
                note(probe, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counting(fn, probe: Probe):
        def wrapper(*args, **kwargs):
            probe.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            try:
                owner, attr = _resolve(probe.target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                probe.installed = False
                continue
            raw = owner.__dict__.get(attr, original) if isinstance(owner, type) else original
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else original
            wrapped = self._timed(fn, probe) if probe.timed else self._counting(fn, probe)
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            self._saved.append((owner, attr, raw))
            probe.installed = True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- one traced region -----------------------------------------------------
    def run_root(self, fn):
        """Run ``fn`` inside the ``bench`` root span; returns (result, seconds)."""
        if len(self._stack) != 1:
            raise RuntimeError("root span opened inside another span")
        self._stack[0] = 0.0
        t0 = _clock()
        out = fn()
        dur = _clock() - t0
        self.root_s += dur
        self.root_self_s += dur - self._stack[0]
        return out, dur

    def reset(self) -> None:
        self.root_s = 0.0
        self.root_self_s = 0.0
        for probe in self.probes:
            probe.reset()

    # -- aggregation -------------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return sum(p.self_s for p in self.probes if p.layer == layer)

    def kind_self(self, layer: str, *kinds: str) -> float:
        return sum(p.self_s for p in self.probes if p.layer == layer and p.kind in kinds)

    def kind_calls(self, layer: str, *kinds: str) -> int:
        return sum(p.calls for p in self.probes if p.layer == layer and p.kind in kinds)

    def count(self, layer: str, key: str):
        return sum(p.counts.get(key, 0) for p in self.probes if p.layer == layer)

    def failures(self, layer: str) -> int:
        return sum(p.failures for p in self.probes if p.layer == layer)

    def durations(self, layer: str, kind: str) -> list[float]:
        out: list[float] = []
        for p in self.probes:
            if p.layer == layer and p.kind == kind:
                out.extend(p.durations)
        return out

    def wrapper_calls(self) -> tuple[int, int]:
        """(timed wrapper calls, counting wrapper calls) since the last reset."""
        timed = sum(p.calls for p in self.probes if p.timed)
        counting = sum(p.calls for p in self.probes if not p.timed)
        return timed, counting

    def closure_error(self) -> float:
        """|sum of all self times - root duration|; zero up to rounding when
        every span was opened and closed inside a root span."""
        total = self.root_self_s + sum(p.self_s for p in self.probes if p.timed)
        return abs(total - self.root_s)


def calibrate(reps: int = 20_000) -> tuple[float, float]:
    """Seconds one timed and one counting wrapper call add to the call they
    wrap, measured on a no-op function in this process (median of 5)."""

    def noop(x):
        return x

    # with a note of the usual kind, so the estimate covers the notes too
    timed_probe = Probe("calibration:noop", "calibration", "noop", lambda p, a, k, o: p.add("calls", 1))
    count_probe = Probe("calibration:noop", "calibration", "noop", timed=False)
    tracer = Tracer([timed_probe, count_probe])
    timed = tracer._timed(noop, timed_probe)
    counting = tracer._counting(noop, count_probe)

    def loop(fn) -> float:
        t0 = _clock()
        for i in range(reps):
            fn(i)
        return _clock() - t0

    costs_t, costs_c = [], []
    for _ in range(5):
        bare = loop(noop)
        costs_t.append(max(0.0, loop(timed) - bare) / reps)
        costs_c.append(max(0.0, loop(counting) - bare) / reps)
    return statistics.median(costs_t), statistics.median(costs_c)
