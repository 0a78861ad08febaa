"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy. One process, one caller, one
operation at a time (a closed loop); BLAS keeps its default thread count.

After set-up and one untimed warm-up operation, the run makes the workload's
fixed number of passes over its operations (`workloads.PASSES`), then more
while another pass is expected to finish within `--seconds`. Every
operation's output is checked after its timer stops. A reference kernel
runs after every operation and around every set-up sample, and every
end-to-end time is scaled to the reference host speed (see hostspeed.py).
With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the last line holds
the per-layer metrics of the traced passes. The line before it is a
JSON `detail` object with provenance and the figures behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import provenance
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SCENARIO = "scenarios/fig1_left.json"
SETUP_SAMPLES = 12

UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "steps_per_s": "steps/s",
    "compare_s": "s",
    "simulate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import `cpdyn` from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cpdyn" / "__init__.py").is_file():
        raise ProgramMissing(f"no cpdyn sources under {src}")
    if not (ROOT / "scenarios").is_dir():
        raise ProgramMissing(f"no scenarios directory under {ROOT}")
    sys.path.insert(0, str(src))
    import cpdyn

    if Path(cpdyn.__file__).resolve().parent != (src / "cpdyn").resolve():
        raise ProgramMissing(f"imported cpdyn from {cpdyn.__file__}, not {src}")
    return cpdyn


def time_setup(host: hostspeed.Timeline) -> tuple[float, float]:
    """Start and wall time of one fresh `python -m cpdyn.cli validate`
    process; the host's speed is sampled before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "cpdyn.cli", "validate", "--config", SETUP_SCENARIO]
    host.sample()
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = perf_counter() - t0
    host.sample()
    if proc.returncode != 0 or not proc.stdout.startswith("ok:"):
        raise RuntimeError(f"validate exited {proc.returncode}: {proc.stderr.strip()}")
    return t0, elapsed


def setup_sampler(total_ops: int, samples: list, take):
    """A hook to call after each operation: it appends SETUP_SAMPLES results
    of `take()`, evenly spread over the first `total_ops` operations."""
    due = Counter((2 * k + 1) * total_ops // (2 * SETUP_SAMPLES)
                  for k in range(SETUP_SAMPLES))
    done = 0

    def after_op():
        nonlocal done
        samples.extend(take() for _ in range(due[done]))
        done += 1

    return after_op


class Tally:
    """Attempted and failed operations and the worst fidelity gap seen."""

    def __init__(self, failures, host: hostspeed.Timeline):
        self.failures = failures
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.gap_max = 0.0

    def run(self, op, recorder=None) -> tuple[float, float, dict[str, float]]:
        """Time one operation, sample the host's speed, then gate the
        operation's output. Returns the start, time and phase times."""
        error, phases = None, {}
        if recorder is not None:
            recorder.op += 1
            recorder.enabled = True
        t0 = perf_counter()
        try:
            phases, out = op.run()
        except self.failures as exc:
            error = exc
        finally:
            elapsed = perf_counter() - t0
            if recorder is not None:
                recorder.enabled = False
        self.host.sample()
        self.attempted += 1
        if error is None:
            try:
                gap = op.check(out)
            except self.failures as exc:
                error = exc
            else:
                if gap is not None:
                    self.gap_max = max(self.gap_max, gap)
        if error is not None:
            self.failed += 1
            print(f"FAIL {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
        return t0, elapsed, phases


def run_pass(ops, tally, recorder=None, after_op=None) -> dict:
    """One pass over `ops`: per-operation starts, times and phase times as
    measured. The pass's `wall` includes `after_op`, which runs between
    operations."""
    start, op_s, phases = [], [], []
    t0 = perf_counter()
    for op in ops:
        began, elapsed, phase_s = tally.run(op, recorder)
        start.append(began)
        op_s.append(elapsed)
        phases.append(phase_s)
        if after_op is not None:
            after_op()
    return {"wall": perf_counter() - t0, "start": start, "raw_op_s": op_s,
            "raw_phases": phases, "traced": recorder is not None}


def scale_pass(p: dict, host: hostspeed.Timeline) -> None:
    """Add the pass's operation and phase times scaled to the reference
    host speed (`op_s`, `phases`)."""
    factors = [host.factor(t0, t0 + dt) for t0, dt in zip(p["start"], p["raw_op_s"])]
    p["op_s"] = [f * dt for f, dt in zip(factors, p["raw_op_s"])]
    p["phases"] = [{k: f * v for k, v in ph.items()}
                   for f, ph in zip(factors, p["raw_phases"])]


def pass_medians(passes, times="op_s", phases="phases") -> dict[str, float]:
    """Time of one pass, in total and per phase, as the sum over operations
    of each one's median across `passes`."""
    out = {"wall": 0.0, "compare": 0.0, "simulate": 0.0}
    for j in range(len(passes[0][times])):
        out["wall"] += statistics.median(p[times][j] for p in passes)
        for phase in ("compare", "simulate"):
            out[phase] += statistics.median(p[phases][j].get(phase, 0.0) for p in passes)
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cpdyn = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports cpdyn, so only after import_program


    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance.collect(ROOT, args.seed)}
    host = hostspeed.Timeline(workloads.HOST_KERNEL[args.workload])
    setup_host = hostspeed.Timeline("startup")
    tally = Tally((cpdyn.NumericFailure, cpdyn.ConfigError, cpdyn.ZeroPivotError,
                   workloads.GateError), host)
    recorder = spans.Recorder() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        ops = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(tmp))
        fixed = 2 if args.trace else workloads.PASSES[args.workload]
        setup: list[tuple[float, float]] = []
        after_op = None
        if not args.trace:
            time_setup(setup_host)  # untimed: compiles the bytecode
            after_op = setup_sampler(fixed * len(ops), setup,
                                     lambda: time_setup(setup_host))
        tally.run(ops[0])  # warm-up: BLAS/LAPACK start-up and first-call costs
        host.sample()  # the first operation's start has a sample before it
        passes: list[dict] = []
        start = perf_counter()
        while True:
            if args.trace and len(passes) % 2 == 1:
                with spans.installed(recorder) as missing:
                    passes.append(run_pass(ops, tally, recorder))
            else:
                passes.append(run_pass(ops, tally, after_op=after_op))
            elapsed = perf_counter() - start
            longest = max(p["wall"] for p in passes)
            if len(passes) >= fixed and elapsed + longest > args.seconds:
                break

    for p in passes:
        scale_pass(p, host)
    plain = [p for p in passes if not p["traced"]]
    typical = pass_medians(plain)
    detail.update({
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_op_s": [p["op_s"] for p in passes],
        "pass_raw_op_s": [p["raw_op_s"] for p in passes],
        "pass_op_start_s": [p["start"] for p in passes],
        "host_kernel": workloads.HOST_KERNEL[args.workload],
        "host_samples": host.samples,
        "fail_ratio": tally.failed / tally.attempted,
        "fidelity_gap_max": tally.gap_max,
    })
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = spans.layer_metrics(recorder.spans, len(traced), missing)
        metrics["trace.overhead_ratio"] = (
            pass_medians(traced)["wall"] / typical["wall"] - 1.0)
        metrics["accuracy.fidelity_gap_max"] = tally.gap_max
        units = spans.UNITS
        detail["missing_spans"] = missing
        detail["layer_self_share"] = spans.layer_self_shares(recorder.spans)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        op_s = [t for p in plain[:fixed] for t in p["op_s"]]
        tail_pct, tail_s = stats.tail(op_s)
        metrics = {
            "wall_s": typical["wall"],
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": tail_s,
            "steps_per_s": sum(op.steps for op in ops) / typical["wall"],
            "compare_s": typical["compare"],
            "simulate_s": typical["simulate"],
            "setup_s": statistics.median(setup_host.factor(t0, t0 + dt) * dt
                                         for t0, dt in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
        detail.update({"op_tail_percentile": tail_pct, "op_samples": len(op_s),
                       "setup_samples": setup,
                       "setup_host_samples": setup_host.samples,
                       "raw_wall_s": pass_medians(plain, "raw_op_s", "raw_phases")["wall"],
                       "raw_setup_s": statistics.median(dt for _, dt in setup)})

    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:9s} {name:28s} {shown:>14s} {units[name]}")
    if not args.trace:
        print(f"{args.workload:9s} {'op_tail_s is p':28s} "
              f"{detail['op_tail_percentile']:>14.4g} of {detail['op_samples']} operations")
    print(f"{args.workload:9s} {'fail_ratio':28s} {detail['fail_ratio']:>14.6g} 1 "
          f"({tally.failed} of {tally.attempted})")
    if not args.trace:
        print(f"{args.workload:9s} {'accuracy.fidelity_gap_max':28s} {tally.gap_max:>14.3g} 1")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
