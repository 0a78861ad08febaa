"""Compare two result files written by `suite.py`, parent first.

    python3 perfbench/compare.py parent.json change.json

For each workload and end-to-end metric it prints both medians and
quartiles, the change's worsening as a share of the parent's median, and a
verdict against the metric's bound:

- REGRESSED: worse by more than the bound;
- unresolved: either side's run-to-run spread exceeds the bound, and not
  every change run beats every parent run; for op_tail_s also when the two
  files took the tail at different percentiles or sample counts;
- better: every change run beats every parent run;
- ok: otherwise.

It then lists the per-layer deltas of the traced runs. Exit status 1 means
a regression or more failed operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse `change` is than `parent`, as a share of `parent`."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def tail_basis(runs) -> set[tuple[float, int]]:
    """The (percentile, sample count) pairs at which `runs` took op_tail_s."""
    return {(r["detail"]["op_tail_percentile"], r["detail"]["op_samples"]) for r in runs}


def verdict(parent_runs, change_runs, p, c, spec) -> str:
    lower = spec["better"] == "lower"
    all_better = (max(change_runs) < min(parent_runs) if lower
                  else min(change_runs) > max(parent_runs))
    if all_better:
        return "better"
    if max(p["spread"], c["spread"]) > spec["bound"]:
        return "unresolved"
    if worsening(p["median"], c["median"], spec["better"]) > spec["bound"]:
        return "REGRESSED"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    specs = {m["name"]: m for m in parent["benchmark"]["end_to_end"]}
    units = {m["name"]: m["unit"] for m in parent["benchmark"]["per_layer"]}
    for side, data in (("parent", parent), ("change", change)):
        prov = data.get("provenance", {})
        print(f"{side}: {data.get('label', '')} sha={prov.get('git_sha')} "
              f"dirty={prov.get('git_dirty')} src={str(prov.get('source_sha256'))[:12]} "
              f"{prov.get('cpu_model')} nproc={prov.get('nproc')} "
              f"numpy={prov.get('numpy')} seconds={data.get('seconds')}")
    if parent.get("seconds") != change.get("seconds"):
        print("warning: the two files used different run lengths")

    bad = False
    for workload, pw in parent["workloads"].items():
        cw = change["workloads"].get(workload)
        if cw is None:
            print(f"\n== {workload}: missing from change")
            continue
        print(f"\n== {workload}")
        print(f"  {'fail_ratio':22s} parent {pw['fail_ratio']:.4g}  change {cw['fail_ratio']:.4g}")
        if cw["fail_ratio"] > pw["fail_ratio"]:
            bad = True
            print("  MORE FAILURES than the parent")
        for name, spec in specs.items():
            p, c = pw["summary"].get(name), cw["summary"].get(name)
            if p is None or c is None:
                continue
            pr = [r["metrics"][name] for r in pw["runs"]]
            cr = [r["metrics"][name] for r in cw["runs"]]
            v = verdict(pr, cr, p, c, spec)
            basis = tail_basis(pw["runs"]) | tail_basis(cw["runs"])
            if name == "op_tail_s" and len(basis) > 1:
                v = f"unresolved (tail taken at {sorted(basis)})"
            bad |= v == "REGRESSED"
            print(f"  {name:22s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {spec['unit']}  "
                  f"worse {100 * worsening(p['median'], c['median'], spec['better']):+.1f}% "
                  f"(bound {100 * spec['bound']:.0f}%)  {v}")
        if pw.get("layer") and cw.get("layer"):
            print("  per layer (traced, median):")
            for name, unit in units.items():
                a, b = pw["layer"].get(name), cw["layer"].get(name)
                if a is None or b is None:
                    print(f"    {name:30s} parent {a}  change {b}  (missing)")
                    continue
                rel = f"{100 * (b - a) / a:+.1f}%" if a else ("same" if b == a else "new")
                print(f"    {name:30s} parent {a:.6g}  change {b:.6g} {unit}  {rel}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
