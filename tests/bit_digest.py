"""Print sha256 digests of what a checkout computes, to compare two
checkouts bit for bit.

    python tests/bit_digest.py [--root CHECKOUT] [--seeds 1 2]

`--root` (default: this file's checkout) names the checkout to digest: its
`src/` is imported, its `scenarios/` run and its `perfbench/workloads.py`
read, so one copy of this script digests any commit that has those. The
script prints

- `bundled`: the sha256 of the 14 bundled outputs (`simulate --method both
  --out` and `compare --report` on each of the 7 scenarios) concatenated in
  file-name order, then one line per file;
- `high-dim seed S`: for each seed, one digest of the sampled `u`, pivots,
  switch times and quantum states of the seed's `high-dim` documents of
  the benchmark, from `scenario.run(config, "both")`;
- `sweep seed S`: for each seed, one digest of the `evolve_rk4` states of
  the seed's `sweep` systems of the benchmark, the one route no other line
  covers.

Two checkouts give the same bytes and bits when they print the same lines.
Not a test (pytest does not collect it); the high-dim documents take a
few seconds per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def bundled_outputs(root: Path) -> list[tuple[str, bytes]]:
    """(file name, contents) of the 14 bundled outputs, in name order."""
    from cpdyn import cli  # after `main` has put the checkout's src/ first on sys.path

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((root / "scenarios").glob("*.json")):
            csv = Path(tmp) / f"{path.stem}.csv"
            report = Path(tmp) / f"{path.stem}.report.json"
            for argv in (
                ["simulate", "--config", str(path), "--method", "both", "--out", str(csv)],
                ["compare", "--config", str(path), "--report", str(report)],
            ):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv[:3])} exited {code}")
            out += [(f.name, f.read_bytes()) for f in (csv, report)]
    return out


def load_workloads(root: Path):
    """The checkout's `perfbench/workloads.py` as a module."""
    spec = importlib.util.spec_from_file_location(
        "bit_digest_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


def high_dim_digest(root: Path, seed: int) -> str:
    """sha256 of the sampled `u`, pivots, switch times and quantum states of
    the `high-dim` documents of `seed`, in document order."""
    import numpy as np

    from cpdyn import scenario

    workloads = load_workloads(root)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for k in range(workloads.HIGH_DIM_DOCS):
        doc = workloads.high_dim_doc(rng, f"high-dim-{seed}-{k}")
        result = scenario.run(scenario.scenario_from_dict(doc), "both")
        c = result.classical_trajectory
        for a in (c.u, c.pivots, c.switch_times, result.quantum_trajectory.states):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sweep_digest(root: Path, seed: int) -> str:
    """sha256 of the `evolve_rk4` states of the `sweep` systems of `seed`,
    in system order, from the workload's own operations."""
    import numpy as np

    h = hashlib.sha256()
    for op in load_workloads(root).sweep(root, seed, None):
        _, (_, _, rk4) = op.run()
        h.update(np.ascontiguousarray(rk4.states).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))

    files = bundled_outputs(root)
    print(f"bundled {hashlib.sha256(b''.join(data for _, data in files)).hexdigest()}")
    for name, data in files:
        print(f"  {hashlib.sha256(data).hexdigest()}  {name}")
    for seed in args.seeds:
        print(f"high-dim seed {seed} {high_dim_digest(root, seed)}")
    for seed in args.seeds:
        print(f"sweep seed {seed} {sweep_digest(root, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
