"""Print what parsing a Pauli-string scenario document costs, by size.

    python tests/parse_cost.py [--root CHECKOUT] [--seed 1]

For seeded 8-, 10- and 12-qubit documents of 64 random Pauli strings, the
script prints the wall time of `scenario.scenario_from_dict` (the best of
a few runs, untraced), the best time of `pauli.require_hermitian` on the
H it built (the Hermiticity check, which the parse runs once) and that
check's share of the parse, and the parse's `tracemalloc` peak as a
multiple of `H.nbytes`, the size of the dense Hamiltonian it returns.  The
document load and Pauli build that the parse time covers are what the
benchmark's `high-dim` `simulate_s` times at 8 qubits; the peak shows
whether the parse forms an N x N temporary beside H (a multiple near 2) or
not (near 1).  `--root` (default: this file's checkout) names the checkout
to measure, so one copy of this script measures any commit.  Not a test
(pytest does not collect it); the 12-qubit document allocates a 256 MiB H.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from harness import ROOT, best_time, random_pauli_text

QUBITS = (8, 10, 12)
TERMS = 64
# untraced runs per size; the best is printed
REPEATS = {8: 20, 10: 5, 12: 3}


def pauli_document(rng, n_qubits: int) -> dict:
    """`random_pauli_text` of `TERMS` strings on `n_qubits`, and a random
    initial state."""
    text = random_pauli_text(rng, n_qubits, TERMS)
    psi0 = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    psi0 /= np.linalg.norm(psi0)
    return {
        "name": f"parse-cost-{n_qubits}",
        "hamiltonian": {"pauli": text},
        "initial_state": {"real": psi0.real.tolist(), "imag": psi0.imag.tolist()},
        "grid": {"t_end": 1.0, "dt": 1e-3},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from cpdyn import pauli  # the checkout's, now first on sys.path
    from cpdyn.scenario import scenario_from_dict

    rng = np.random.default_rng(args.seed)
    print(
        f"{'qubits':>6} {'terms':>5} {'parse ms':>9} {'check ms':>9} {'share':>6} "
        f"{'peak / H.nbytes':>15} {'peak MiB':>9}"
    )
    for n_qubits in QUBITS:
        doc = pauli_document(rng, n_qubits)
        # each parse's H is freed before the next parse allocates its own
        parse = best_time(lambda: scenario_from_dict(doc), REPEATS[n_qubits])
        tracemalloc.start()
        try:
            H = scenario_from_dict(doc).hamiltonian
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hermitian = best_time(lambda: pauli.require_hermitian(H), REPEATS[n_qubits])
        print(
            f"{n_qubits:>6} {TERMS:>5} {parse * 1e3:>9.2f} {hermitian * 1e3:>9.2f} "
            f"{hermitian / parse:>6.2f} {peak / H.nbytes:>15.3f} {peak / 2**20:>9.1f}"
        )
        del H
    return 0


if __name__ == "__main__":
    sys.exit(main())
