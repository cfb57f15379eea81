"""Span tracing of the spectralqm layers, done from outside the program.

`Tracer.install()` replaces every public function of the six layer modules
with a timing wrapper, in every namespace of the package that binds it, so
calls through the program's own `from .x import f` imports are caught too.
`uninstall()` puts the originals back.  Spans (name, start, end, parent,
round) are kept in memory and written out by the caller at the end.

A span's self time is its duration minus the durations of its direct
children; self times of all spans in a round add up to the traced time.
"""

from __future__ import annotations

import functools
import inspect
import os
import platform
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grids", "operators", "evolution", "scenarios", "checks", "cli")

# the public check functions that run_all reaches, plus its field generator
CHECK_FUNCTIONS = (
    "check_normalization",
    "check_parseval_momentum",
    "check_ehrenfest_velocity",
    "check_ehrenfest_force",
    "check_commutator_system",
    "check_commutant_uniqueness",
    "check_antihermitian_exponential",
    "check_field_energy_parseval",
    "check_superposition",
    "check_gauge_shift",
    "check_evolution_operator",
    "random_smooth_fields",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, round]
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.split_step_calls: list[tuple[int, inspect.BoundArguments]] = []
        self.round = 0
        self.first_traced_round = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["spectralqm"]
        modules = [sys.modules[f"spectralqm.{layer}"] for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._patched):
            setattr(ns, bound, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(index)
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, index, fn, args, kwargs, result)
            return result

        return traced

    # -- derived metrics --------------------------------------------------

    def self_times(self, round_: int) -> tuple[dict, dict]:
        """Per span name: summed self time and summed inclusive time."""
        child = defaultdict(float)
        for name, start, end, parent, rnd in self.spans:
            if rnd == round_ and parent >= 0:
                child[parent] += end - start
        own, inclusive = defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd == round_:
                own[name] += end - start - child[i]
                inclusive[name] += end - start
        return own, inclusive

    def layer_metrics(self, round_: int) -> dict[str, float]:
        own, inclusive = self.self_times(round_)
        counts = self.counts[round_]
        steps = counts["diffraction_steps"]
        metrics = {
            "cli.write_s": own["cli.write_csv"] + own["cli.write_json"],
            "cli.bytes_written": counts["bytes_written"],
            "scenarios.build_s": inclusive["scenarios.build"],
            "scenarios.diffraction_step_ms":
                1e3 * own["scenarios.run_diffraction"] / steps if steps else 0.0,
            "evolution.steps": counts["steps"],
            "evolution.records": counts["records"],
            "evolution.states_kept": counts["states_kept"],
            "evolution.spectrum_s": own["evolution.spectrum"],
            "evolution.evolution_operator_s": own["evolution.evolution_operator"],
            "operators.to_dense_s": own["operators.to_dense"],
            "operators.dense_mb": counts["dense_mb"],
            "checks.reports": counts["reports"],
        }
        for fn in CHECK_FUNCTIONS:
            metrics[f"checks.{fn}_s"] = own[f"checks.{fn}"]
        return metrics

    def step_and_record_us(self) -> tuple[float, float]:
        """Per-step and per-record split_step cost of the first traced round.

        Each split_step call of that round is replayed on the same inputs
        with a single record interval (two records: start and end) and no
        stored states.  The replay gives the step cost; what the real call
        took beyond it, over its extra records, gives the record cost.
        """
        split_step = self.originals["evolution.split_step"]
        base = called = 0.0
        steps = extra_records = 0
        for index, bound in self.split_step_calls:
            arguments = dict(bound.arguments, record_every=bound.arguments["steps"],
                             store_states=False)
            start = time.perf_counter()
            split_step(**arguments)
            base += time.perf_counter() - start
            name, begin, end, _, _ = self.spans[index]
            called += end - begin
            steps += bound.arguments["steps"]
            extra_records += bound.arguments["steps"] // bound.arguments.get("record_every", 1) - 1
        step_us = 1e6 * base / steps if steps else 0.0
        record_us = 1e6 * (called - base) / extra_records if extra_records else 0.0
        return step_us, record_us


def _count_bytes(tracer, index, fn, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer.counts[tracer.round]["bytes_written"] += os.path.getsize(path)


def _count_split_step(tracer, index, fn, args, kwargs, result):
    counts = tracer.counts[tracer.round]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    counts["steps"] += bound.arguments["steps"]
    counts["records"] += len(result.times)
    counts["states_kept"] += len(result.states)
    if tracer.round == tracer.first_traced_round:
        tracer.split_step_calls.append((index, bound))


def _count_dense(tracer, index, fn, args, kwargs, result):
    parent = tracer.spans[index][3]
    if parent < 0 or tracer.spans[parent][0] != "operators.to_dense":
        tracer.counts[tracer.round]["dense_mb"] += result.matrix.nbytes / 1e6


def _count_reports(tracer, index, fn, args, kwargs, result):
    tracer.counts[tracer.round]["reports"] += len(result)


def _count_diffraction(tracer, index, fn, args, kwargs, result):
    config = kwargs.get("config", args[0] if args else None)
    tracer.counts[tracer.round]["diffraction_steps"] += config.steps


_HOOKS = {
    "cli.write_csv": _count_bytes,
    "cli.write_json": _count_bytes,
    "evolution.split_step": _count_split_step,
    "operators.to_dense": _count_dense,
    "checks.run_all": _count_reports,
    "scenarios.run_diffraction": _count_diffraction,
}


# -- host --------------------------------------------------------------------


def cpu_ticks() -> list[int]:
    """The aggregate `cpu` line of /proc/stat: user nice system idle iowait irq softirq steal."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def host_speed_ms() -> float:
    """Time of a fixed kernel outside the program: 1000 256-point FFT pairs.

    Steal and idle time miss a slow spell that comes from a busy sibling
    hyperthread or a lower clock; this kernel slows down with it.
    """
    a = np.ones(256, dtype=complex)
    start = time.perf_counter()
    for _ in range(1000):
        a = np.fft.ifft(np.fft.fft(a))
    return 1e3 * (time.perf_counter() - start)


def peak_rss_mb() -> float:
    """This process's peak resident memory so far, from VmHWM.  Not
    ru_maxrss: in a child, that starts from the parent's size at spawn."""
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return hwm_kb / 1024.0


def steal_pct(ticks_before: list[int], ticks_after: list[int]) -> float:
    """Share of the host's CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(ticks_before, ticks_after)]
    return 100.0 * delta[7] / (sum(delta) or 1)


def host_record(ticks_before: list[int], ticks_after: list[int]) -> dict:
    import scipy

    delta = [b - a for a, b in zip(ticks_before, ticks_after)]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "steal_pct": steal_pct(ticks_before, ticks_after),
        "idle_pct": 100.0 * (delta[3] + delta[4]) / (sum(delta) or 1),
    }
