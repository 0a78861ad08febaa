"""Print what watching for a chart switch costs the two classical loops.

    python tests/probe_cost.py [--root CHECKOUT] [--seed 1]

For the four 8-qubit (N = 256) documents of the benchmark's `high-dim`
workload of `--seed`, the script prints per document the best wall time
of `flow.integrate_classical` over a few runs (untraced, on the
document's decomposed `Spectrum`, so no `eigh` is timed), then, from one
counted run, the loop's `formed`, `watched` and `probes` counts of
`harness.loop_counts` and the trajectory's chart `switches`.

Then, for each bundled scenario of `scenarios/` (N = 4, the stacked
loop), it prints the `np.vdot` calls of one `flow.integrate_classical`
from the chart that `cpdyn` starts in: the formations of |u|^2, one at
t = 0, one on each step that the loop's skip rule leaves open and one
after each switch, beside the step count and the best microseconds per
step of a few untraced runs.  Last, it prints the best time of each part
of one stacked step at the initial state of `fig4`, each part timed on
its own with `timeit` as `flow._stacked_steps` makes it: the fill product
of K, the read of the pivot entries s_j, `quantum.rk4_weights`, the store
of the weights and the combine product w . K.  Their sum falls short of
the per-step time by the loop's own bookkeeping.

`--root` (default: this file's checkout) names the checkout to measure,
so one copy of this script measures any commit.  Not a test (pytest does
not collect it); the documents and scenarios take a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from harness import ROOT, best_time, counting, loop_counts, perfbench_module

# untimed counted run first, then this many timed runs; the best is printed
REPEATS = 5


def step_parts(rk4_weights, H, u, pivot: int, dt: float) -> dict:
    """Best microseconds of each part of one stacked step from u, with the
    stack, K and w built as `flow._stacked_steps` builds them (the combine
    writes to a spare buffer, so every repeat starts from u)."""
    n = u.size
    B = (-1j * dt) * H
    B2 = B @ B
    powers = np.concatenate([np.eye(n), B, B2, B @ B2, B2 @ B2])
    K = np.empty((5, n), dtype=complex)
    k_all, s, w = K.reshape(5 * n), K[1:, pivot], np.empty(5, dtype=complex)
    u = np.array(u, dtype=complex)
    powers.dot(u, k_all)
    s1, s2, s3, s4 = s.tolist()
    scope = {
        "fill": powers.dot, "u": u, "k_all": k_all, "s": s,
        "rk4_weights": rk4_weights, "s1": s1, "s2": s2, "s3": s3, "s4": s4,
        "w": w, "weights": rk4_weights(s1, s2, s3, s4),
        "combine": w.dot, "K": K, "out": np.empty(n, dtype=complex),
    }
    parts = {
        "fill": "fill(u, k_all)",
        "s_j": "s1, s2, s3, s4 = s.tolist()",
        "weights": "rk4_weights(s1, s2, s3, s4)",
        "store": "w[...] = weights",
        "combine": "combine(K, out)",
    }
    return {name: best_time(stmt, REPEATS, 20000, scope) * 1e6 for name, stmt in parts.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from cpdyn import flow  # the checkout's, now first on sys.path
    from cpdyn.chart import select_pivot, to_chart
    from cpdyn.quantum import Spectrum, rk4_weights
    from cpdyn.scenario import load_scenario, scenario_from_dict

    workloads = perfbench_module("workloads", root)
    rng = np.random.default_rng(args.seed)
    print(
        f"{'document':>14} {'steps':>6} {'samples':>7} {'best ms':>8} {'formed':>6} "
        f"{'watched':>7} {'probes':>6} {'switches':>8}"
    )
    total = 0.0
    for k in range(workloads.HIGH_DIM_DOCS):
        doc = workloads.high_dim_doc(rng, f"high-dim-{args.seed}-{k}")
        config = scenario_from_dict(doc)
        spec = Spectrum(config.hamiltonian)
        spec.V  # decomposed before the timer starts
        psi0 = config.initial_state
        point0 = to_chart(psi0, select_pivot(psi0))

        def run():
            return flow.integrate_classical(spec, point0, config.grid, config.flow)

        traj, counts = loop_counts(run)
        best = best_time(run, REPEATS)
        total += best
        print(
            f"{doc['name']:>14} {config.grid.n_steps:>6} "
            f"{len(config.grid.sample_indices()) - 1:>7} {best * 1e3:>8.2f} "
            f"{counts['formed']:>6} {counts['watched']:>7} {counts['probes']:>6} "
            f"{traj.n_switches:>8}"
        )
    print(f"{'total':>14} {'':>6} {'':>7} {total * 1e3:>8.2f}")

    print(f"\n{'scenario':>14} {'steps':>6} {'|u|^2':>6} {'share':>6} {'us/step':>7}")
    for path in sorted((root / "scenarios").glob("*.json")):
        config = load_scenario(path)
        psi0 = config.initial_state
        point0 = to_chart(psi0, select_pivot(psi0))

        def run():
            return flow.integrate_classical(config.hamiltonian, point0, config.grid, config.flow)

        with counting((np, "vdot")) as calls:
            run()
        usq, best = calls[0], best_time(run, REPEATS)
        steps = config.grid.n_steps
        print(f"{path.stem:>14} {steps:>6} {usq:>6} {usq / steps:>6.1%} {best / steps * 1e6:>7.2f}")

    config = load_scenario(root / "scenarios" / "fig4.json")
    point0 = to_chart(config.initial_state, select_pivot(config.initial_state))
    parts = step_parts(
        rk4_weights, config.hamiltonian, point0.homogeneous(), point0.pivot, config.grid.dt
    )
    print("\nstacked step parts at fig4's initial state, best us:")
    listed = " ".join(f"{name} {us:.2f}" for name, us in parts.items())
    print(f"{listed}, sum {sum(parts.values()):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
