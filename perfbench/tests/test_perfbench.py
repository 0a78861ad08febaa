"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import cpdyn  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from cpdyn import chart, flow, observables, quantum  # noqa: E402
from workloads import HOST_KERNEL, PASSES, WORKLOADS, max_fidelity_gap  # noqa: E402


def span(name, start, end, parent=-1, count=None):
    return [name, start, end, parent, 0, count]


def test_self_time_subtracts_nested_children():
    recorded = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("d", 2.0, 3.0, parent=1),
        span("c", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 3.0, 12.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("n, percentile, value", [(11, 100 / 11, 1.0), (20, 50.0, 10.0),
                                                  (100, 90.0, 90.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, value):
    values = list(range(n, 0, -1))  # unsorted on purpose
    pct, got = stats.tail(values)
    assert pct == pytest.approx(percentile)
    assert got == value
    assert sum(v > got for v in values) == stats.TAIL_BEYOND


def test_tail_needs_more_samples_than_beyond():
    with pytest.raises(ValueError):
        stats.tail(range(10))


def _bindings():
    """(module, attribute, function) for every target bound in a cpdyn module."""
    originals = [getattr(sys.modules[m], f) for m, f, _, _ in spans.TARGETS]
    return [(mod, attr, value) for mod in spans._cpdyn_modules()
            for attr, value in vars(mod).items()
            if any(value is original for original in originals)]


def test_wrappers_cover_every_binding_and_restore_originals():
    before = _bindings()
    assert any(mod is flow and attr == "from_chart" for mod, attr, _ in before)
    assert any(mod is observables and attr == "energy" for mod, attr, _ in before)
    recorder = spans.Recorder()
    with spans.installed(recorder) as missing:
        assert missing == []
        for mod, attr, original in before:
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
        assert observables.ChartPoint is chart.ChartPoint  # classes stay
    for mod, attr, original in before:
        assert getattr(mod, attr) is original


def test_recorded_flow_spans_nest_and_count_steps():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = a + a.conj().T
    psi0 = np.array([0.8, 0.6, 0.0], dtype=complex)
    grid = quantum.TimeGrid(t_end=0.05, dt=0.01, output_stride=1)
    recorder = spans.Recorder()
    with spans.installed(recorder) as missing:
        recorder.enabled = True
        cpdyn.integrate_classical(H, chart.to_chart(psi0, 0), grid)
        recorder.enabled = False
    names = [s[spans.NAME] for s in recorder.spans]
    assert names.count("flow") == 1
    assert names.count("flow.energy") == len(grid.sample_indices())
    flow_index = names.index("flow")
    assert all(s[spans.PARENT] == flow_index for s in recorder.spans if s[spans.NAME] != "flow"
               and s[spans.NAME] != "chart.to_chart")
    metrics = spans.layer_metrics(recorder.spans, 1, missing)
    assert metrics["flow.steps"] == grid.n_steps
    assert metrics["flow.rhs_evals"] == 4 * grid.n_steps
    assert metrics["observables.calls"] == 0


def test_missing_function_reads_missing_not_zero():
    targets = [("cpdyn.flow", "no_such_function", "flow", None)]
    with spans.installed(spans.Recorder(), targets) as missing:
        assert missing == ["flow"]
    metrics = spans.layer_metrics([], 1, missing)
    assert metrics["flow.steps"] is None
    assert metrics["chart.probe_calls"] is None
    assert metrics["quantum.rk4_s"] == 0.0


def test_gate_fidelity_gap_matches_program_from_chart():
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    pivots = np.array([0, 3, 1, 2])
    states = np.array([chart.from_chart(chart.ChartPoint(int(p), c))
                       for p, c in zip(pivots, coords)]) * np.exp(0.7j)
    assert max_fidelity_gap(states, coords, pivots) < 1e-15
    states[2] = np.roll(states[2], 1)
    assert max_fidelity_gap(states, coords, pivots) > 1e-3


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(PASSES)
    assert list(HOST_KERNEL) == list(WORKLOADS)
    assert set(HOST_KERNEL.values()) <= set(hostspeed.KERNELS)


@pytest.mark.parametrize("total_ops", [5, 28, 48])
def test_setup_samples_spread_over_the_fixed_passes(total_ops):
    clock = iter(range(1000))
    samples = []
    after_op = run.setup_sampler(total_ops, samples, lambda: float(next(clock)))
    taken_after = []
    for i in range(total_ops + 10):
        before = len(samples)
        after_op()
        taken_after += [i] * (len(samples) - before)
    assert len(samples) == run.SETUP_SAMPLES
    assert max(taken_after) < total_ops
    if total_ops >= run.SETUP_SAMPLES:
        assert taken_after[0] < total_ops / 4 and taken_after[-1] >= 3 * total_ops / 4


def test_host_factor_uses_the_kernel_samples_around_the_interval():
    host = hostspeed.Timeline("interpreted")
    ref = host.reference_s
    # a fast period (kernel at REFERENCE_S), then a slow one at 1.5x
    host.samples = [(float(t), ref) for t in range(10)]
    host.samples += [(float(t), 1.5 * ref) for t in range(10, 20)]
    assert hostspeed.NEIGHBOURS == 2
    assert host.factor(2.2, 2.8) == pytest.approx(1.0)
    assert host.factor(15.2, 15.8) == pytest.approx(1 / 1.5)
    # across the change, the mean of the sample before and the one after
    assert host.factor(9.2, 9.8) == pytest.approx(1 / 1.25)
    # samples further away do not count
    host.samples.append((12.0, 9.0 * ref))
    assert host.factor(15.2, 15.8) == pytest.approx(1 / 1.5)


@pytest.mark.parametrize("name", sorted(hostspeed.KERNELS))
def test_host_kernels_never_call_the_program(name):
    host = hostspeed.Timeline(name)
    recorder = spans.Recorder()
    recorder.enabled = True
    with spans.installed(recorder):
        host.sample()
    assert recorder.spans == [] and len(host.samples) == 1
