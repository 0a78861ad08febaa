"""What the benchmark in `perfbench/` relies on: every function its traced
run wraps exists, and every layer metric it derives from them is a number.

A deleted or renamed target does not fail the benchmark run; its metrics
read null in the result line.  This test catches that first: it runs the
first two operations of each workload (for `figures`, one `compare` and
one `simulate`, so that the CSV writer runs too) under the span recorder,
as a traced pass does, and gates their output as the benchmark does.
"""

import pytest

from harness import ROOT, perfbench_module

spans = perfbench_module("spans")
workloads = perfbench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_metrics_are_numbers(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](ROOT, 1, tmp_path)
    recorder = spans.Recorder()
    with spans.installed(recorder) as missing:
        for op in ops[:2]:
            recorder.op += 1
            recorder.enabled = True
            try:
                _, out = op.run()
            finally:
                recorder.enabled = False
            op.check(out)
    assert missing == []
    metrics = spans.layer_metrics(recorder.spans, 1, missing)
    assert [name for name, value in metrics.items() if value is None] == []
