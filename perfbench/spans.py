"""Span recorder for the traced run.

The recorder replaces public `cpdyn` functions with timing wrappers in every
`cpdyn` module namespace that binds them (`flow` imports `from_chart` by
name, the package re-exports everything), and puts the originals back
afterwards. Classes are never wrapped: `observables.energy` dispatches on
`isinstance(..., ChartPoint)`. Spans stay in memory until `dump`.

A span is `[name, start, end, parent, op, count]`: `parent` is the index of
the enclosing span or -1, `op` the operation it belongs to, and `count` a
work count taken from the call's inputs or outputs (steps, terms, bytes).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, COUNT = range(6)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _flow_steps(fn, args, kwargs, result):
    grid = _arg(fn, args, kwargs, "grid")
    settings = _arg(fn, args, kwargs, "settings")
    sub_dt = getattr(settings, "dt", None)
    return grid.n_steps * (round(grid.dt / sub_dt) if sub_dt else 1)


def _grid_steps(fn, args, kwargs, result):
    return _arg(fn, args, kwargs, "grid").n_steps


def _n_terms(fn, args, kwargs, result):
    return len(_arg(fn, args, kwargs, "terms"))


def _n_samples(fn, args, kwargs, result):
    return len(result.times)


def _file_bytes(fn, args, kwargs, result):
    return os.path.getsize(_arg(fn, args, kwargs, "path"))


_OBSERVABLES = (
    "populations_quantum",
    "populations_classical",
    "quaternionic_z_quantum",
    "quaternionic_z_classical",
    "concurrence_quantum",
    "concurrence_classical",
    "is_separable",
    "energy",
)

# (defining module, function, span name, work count or None)
TARGETS = [
    ("cpdyn.cli", "main", "cli", None),
    ("cpdyn.scenario", "load_scenario", "scenario.load", None),
    ("cpdyn.scenario", "scenario_from_dict", "scenario.load", None),
    ("cpdyn.scenario", "run", "scenario.run", _n_samples),
    ("cpdyn.scenario", "compare", "scenario.compare", None),
    ("cpdyn.scenario", "emit_csv", "scenario.csv", _file_bytes),
    ("cpdyn.flow", "integrate_classical", "flow", _flow_steps),
    ("cpdyn.flow", "classical_hamiltonian", "flow.energy", None),
    ("cpdyn.quantum", "evolve_rk4", "quantum.rk4", _grid_steps),
    ("cpdyn.quantum", "evolve_exact_grid", "quantum.spectral", None),
    ("cpdyn.chart", "from_chart", "chart.from_chart", None),
    ("cpdyn.chart", "select_pivot", "chart.select_pivot", None),
    ("cpdyn.chart", "transition", "chart.transition", None),
    ("cpdyn.chart", "to_chart", "chart.to_chart", None),
    ("cpdyn.pauli", "build_hamiltonian", "pauli.build", _n_terms),
    ("cpdyn.pauli", "require_hermitian", "pauli.hermitian", None),
] + [("cpdyn.observables", f, "observables", None) for f in _OBSERVABLES]


class Recorder:
    """In-memory spans of the calls made while `enabled` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, 0.0, 0.0, parent, rec.op, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                rec._stack.pop()
            if count is not None:
                span[COUNT] = count(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh)


def _cpdyn_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cpdyn" or n.startswith("cpdyn."))]


@contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Wrap every target in each `cpdyn` namespace that binds it.

    Yields the sorted span names whose function no longer exists, so that
    their metrics read as missing rather than zero. Restores every
    original on exit.
    """
    saved = []
    missing = set()
    modules = _cpdyn_modules()
    try:
        for modname, fname, span, count in targets:
            original = getattr(sys.modules.get(modname), fname, None)
            if not inspect.isfunction(original):
                missing.add(span)
                continue
            wrapper = recorder.wrap(span, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        saved.append((mod, attr, original))
        yield sorted(missing)
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((s[END] - s[START]) - covered)
    return out


# Spans each layer metric is computed from; a metric whose span's function
# no longer exists reads None (missing), never zero.
NEEDS = {
    "flow.steps": ("flow",),
    "flow.rhs_evals": ("flow",),
    "flow.self_s": ("flow",),
    "flow.us_per_step": ("flow",),
    "flow.energy_calls": ("flow.energy",),
    "flow.energy_s": ("flow.energy",),
    "quantum.rk4_s": ("quantum.rk4",),
    "quantum.rk4_us_per_step": ("quantum.rk4",),
    "quantum.spectral_s": ("quantum.spectral",),
    "chart.probe_calls": ("flow", "chart.select_pivot"),
    "chart.probe_s": ("flow", "chart.select_pivot", "chart.from_chart"),
    "chart.transitions": ("flow", "chart.transition"),
    "chart.useful_ratio": ("flow", "chart.select_pivot", "chart.transition"),
    "chart.from_chart_calls": ("scenario.compare", "chart.from_chart"),
    "chart.from_chart_s": ("scenario.compare", "chart.from_chart"),
    "observables.calls": ("observables",),
    "observables.s": ("observables",),
    "scenario.compare_self_s": ("scenario.compare",),
    "scenario.csv_self_s": ("scenario.csv",),
    "scenario.samples": ("scenario.run",),
    "scenario.csv_bytes": ("scenario.csv",),
    "pauli.build_s": ("pauli.build",),
    "pauli.terms": ("pauli.build",),
    "pauli.hermitian_s": ("pauli.hermitian",),
    "cli.self_s": ("cli",),
}


UNITS = {name: "s" for name in NEEDS if name.endswith(("_s", ".s"))}
UNITS.update({
    "flow.us_per_step": "us",
    "quantum.rk4_us_per_step": "us",
    "chart.useful_ratio": "1",
    "scenario.csv_bytes": "bytes",
    "trace.overhead_ratio": "1",
    "accuracy.fidelity_gap_max": "1",
})
UNITS.update({name: "count" for name in NEEDS if name not in UNITS})


def layer_metrics(spans, passes: int, missing) -> dict[str, float | None]:
    """Per-pass layer figures from the spans of `passes` identical traced
    passes."""
    selfs = self_times(spans)

    def pick(name, parent=None):
        return [i for i, s in enumerate(spans) if s[NAME] == name and (
            parent is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent))]

    def dur(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx) / passes

    def self_s(idx):
        return sum(selfs[i] for i in idx) / passes

    def count(idx):
        return sum(spans[i][COUNT] for i in idx) // passes

    def calls(idx):
        return len(idx) // passes

    flow, rk4 = pick("flow"), pick("quantum.rk4")
    steps, rk4_steps = count(flow), count(rk4)
    probes = pick("chart.select_pivot", parent="flow")
    switches = calls(pick("chart.transition", parent="flow"))
    top_obs = [i for i in pick("observables")
               if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != "observables"]
    scen_from_chart = pick("chart.from_chart", parent="scenario.compare")
    csv, pauli = pick("scenario.csv"), pick("pauli.build")

    metrics = {
        "flow.steps": steps,
        "flow.rhs_evals": 4 * steps,
        "flow.self_s": self_s(flow),
        "flow.us_per_step": 1e6 * self_s(flow) / steps if steps else 0.0,
        "flow.energy_calls": calls(pick("flow.energy")),
        "flow.energy_s": dur(pick("flow.energy")),
        "quantum.rk4_s": dur(rk4),
        "quantum.rk4_us_per_step": 1e6 * dur(rk4) / rk4_steps if rk4_steps else 0.0,
        "quantum.spectral_s": dur(pick("quantum.spectral")),
        "chart.probe_calls": calls(probes),
        "chart.probe_s": dur(probes + pick("chart.from_chart", parent="flow")),
        "chart.transitions": switches,
        # no probe wastes nothing
        "chart.useful_ratio": switches / calls(probes) if probes else 1.0,
        "chart.from_chart_calls": calls(scen_from_chart),
        "chart.from_chart_s": dur(scen_from_chart),
        "observables.calls": calls(top_obs),
        "observables.s": dur(top_obs),
        "scenario.compare_self_s": self_s(pick("scenario.compare")),
        "scenario.csv_self_s": self_s(csv),
        "scenario.samples": count(pick("scenario.run")),
        "scenario.csv_bytes": count(csv),
        "pauli.build_s": dur(pauli),
        "pauli.terms": count(pauli),
        "pauli.hermitian_s": dur(pick("pauli.hermitian")),
        "cli.self_s": self_s(pick("cli")),
    }
    for key, needed in NEEDS.items():
        if any(span in missing for span in needed):
            metrics[key] = None
    return metrics


def layer_self_shares(spans) -> dict[str, float]:
    """Share of all traced self time spent in each layer (the part of a
    span name before the first dot)."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s[NAME].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + t
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items())}
