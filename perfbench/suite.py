"""Run every workload over several seeds, print each metric's median and
spread, and optionally write a result file for `compare.py`.

    python3 perfbench/suite.py --out perfbench/trajectory/BENCH_1.json

Each workload gets ten untraced runs, each with its own seed (1, 2, ...),
and two traced runs, both with seed 1, so that their counts must repeat
exactly. Every run lasts BENCHMARK.json's `run_seconds`. Runs go one at a time, cycling through the workloads, so that slow drift of
the machine spreads over all workloads alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes")
RUNS = 10
TRACED_RUNS = 2


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    return {
        "seed": seed,
        "process_s": elapsed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": json.loads(detail)["detail"],
    }


def summarise(values, bound=None) -> dict:
    q1, med, q3 = stats.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="")
    parser.add_argument("--out", help="write the result file here")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    plan = [(w, 1 + i, 0) for i in range(RUNS) for w in names]
    plan += [(w, 1, 1) for _ in range(TRACED_RUNS) for w in names]
    for workload, seed, trace in plan:
        res = invoke(workload, seed, seconds, trace)
        (traced if trace else runs)[workload].append(res)
        print(f"{workload} seed={seed} trace={trace} correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              f"process={res['process_s']:.1f}s", file=sys.stderr, flush=True)

    out = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seconds": seconds, "benchmark": bench, "workloads": {}}
    ok = True
    for workload in names:
        print(f"\n== {workload}")
        entry = {"runs": runs[workload], "traced": traced[workload],
                 "summary": {}, "layer": {}}
        attempted = sum(r["attempted"] for r in runs[workload] + traced[workload])
        failed = sum(r["failed"] for r in runs[workload] + traced[workload])
        ok &= failed == 0 and all(r["correct"] for r in runs[workload] + traced[workload])
        entry["fail_ratio"] = failed / attempted
        print(f"  {'fail_ratio':26s} {failed / attempted:12.4g} 1  ({failed} of {attempted})")
        for name, spec in e2e.items():
            s = summarise([r["metrics"][name] for r in runs[workload]], spec["bound"])
            entry["summary"][name] = s
            verdict = ("steady" if s["spread"] < spec["bound"] / 3 else
                       "within bound" if s["spread"] <= spec["bound"] else "TOO WIDE")
            ok &= verdict != "TOO WIDE"
            print(f"  {name:26s} {s['median']:12.6g} {spec['unit']:8s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"bound {spec['bound']} {verdict}")
        for name in ("raw_wall_s", "raw_setup_s"):
            s = summarise([r["detail"][name] for r in runs[workload]])
            entry["summary"][name] = s
            print(f"  {name:26s} {s['median']:12.6g} s        "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(not scaled to the host's speed; not gated)")
        pct = [r["detail"]["op_tail_percentile"] for r in runs[workload]]
        n = [r["detail"]["op_samples"] for r in runs[workload]]
        print(f"  op_tail_s percentile {min(pct):.4g}-{max(pct):.4g}, "
              f"{min(n)}-{max(n)} operations per run")
        print("  traced:")
        for name, unit in layer_units.items():
            values = [r["metrics"].get(name) for r in traced[workload]]
            if any(v is None for v in values):
                entry["layer"][name] = None
                print(f"    {name:30s} {'missing':>12s} {unit}")
                continue
            entry["layer"][name] = stats.quartiles(values)[1]
            note = ""
            if unit in COUNT_UNITS:
                same = len(set(values)) == 1
                ok &= same
                note = "repeats" if same else f"DIFFERS {values}"
            print(f"    {name:30s} {entry['layer'][name]:12.6g} {unit:6s} {note}")
        print(f"    layer self-time share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in
            traced[workload][0]["detail"]["layer_self_share"].items()))
        out["workloads"][workload] = entry
    out["provenance"] = {k: v for k, v in runs[names[0]][0]["detail"]["provenance"].items()
                         if k != "seed"}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    print("\nall gates passed, spreads within bounds, counts repeat" if ok
          else "\nSOME CHECK FAILED (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
