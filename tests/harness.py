"""What the tests and the scripts of `tests/` share, each written once: the
checkout's root and its `scenarios/`, the loader of `perfbench/` files, a
call counter, the counts of the eigen-coordinate loop, a best-of timer and
a random Pauli sum.

Not a test (pytest does not collect it).  It imports nothing from `cpdyn`
at module level, so a script that puts another checkout's `src/` first on
`sys.path` measures that checkout with these.
"""

from __future__ import annotations

import importlib.util
import sys
import timeit
from contextlib import contextmanager
from pathlib import Path

# the checkout this file is in; a script's `--root` defaults to it
ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def perfbench_module(name: str, root: Path = ROOT):
    """`<root>/perfbench/<name>.py`, imported by path (perfbench is no
    package) once per file."""
    path = (Path(root) / "perfbench" / f"{name}.py").resolve()
    key = f"perfbench_{name}@{path}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[key]


@contextmanager
def counting(*targets):
    """Count the calls of each `(owner, name)` of `targets` made within the
    block, by rebinding `owner.name` to a counting wrapper.  Yields the
    counts, a list in the order of `targets`; every original is put back
    on leaving the block, also on an error."""
    counts = [0] * len(targets)
    originals = [(owner, name, getattr(owner, name)) for owner, name in targets]

    def counted(i, original):
        def wrapper(*args, **kwargs):
            counts[i] += 1
            return original(*args, **kwargs)

        return wrapper

    try:
        for i, (owner, name, original) in enumerate(originals):
            setattr(owner, name, counted(i, original))
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def loop_counts(run) -> tuple:
    """`run()`, one `flow.integrate_classical` above `flow._STACK_MAX_N`,
    and what it makes the eigen-coordinate loop do: `formed`, the
    formations of u = V q (each one sets the switch bounds up again with
    `_watch`, as t = 0 does, which forms no u); `watched`, the products
    with the watched rows (the loop's one `np.matmul`); `usq`, the |u|^2 of
    the step checks (the `np.vdot` calls less the one of the switch rule at
    t = 0 and the one of each `_watch`); and `probes`, the `select_pivot`
    calls."""
    import numpy as np

    from cpdyn import flow  # the checkout first on sys.path

    with counting(
        (flow, "_watch"), (np, "matmul"), (np, "vdot"), (flow, "select_pivot")
    ) as counts:
        out = run()
    watch, watched, vdot, probes = counts
    return out, {
        "formed": watch - 1,
        "watched": watched,
        "usq": vdot - 1 - watch,
        "probes": probes,
    }


def best_time(stmt, repeats: int, number: int = 1, scope=None) -> float:
    """The least wall time of one run of `stmt`, a callable or a statement
    run in the globals `scope`, over `repeats` rounds of `number` runs, in
    seconds (`timeit`, which turns the garbage collector off while it
    times)."""
    rounds = timeit.repeat(stmt, globals=scope, number=number, repeat=repeats)
    return min(rounds) / number


def random_pauli_text(rng, n_qubits: int, terms: int = 64) -> str:
    """A Pauli sum of `terms` random strings on `n_qubits`, each with a
    coefficient uniform in [-1, 1]/8, written with 17 significant digits."""
    labels = rng.integers(0, 4, (terms, n_qubits))
    coeffs = rng.uniform(-1.0, 1.0, terms) / 8.0
    return " ".join(
        f"{'-' if c < 0 else '+'} {abs(float(c))!r}*{''.join('IXYZ'[k] for k in row)}"
        for c, row in zip(coeffs, labels)
    )
