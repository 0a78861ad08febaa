"""Print which one-line mutants of `quantum.rk4_weights` and of the named
tolerances and caps the tests kill.

    python tests/mutants.py [--root CHECKOUT] [--list]

A mutant of `rk4_weights` changes one line of the recurrence in
`src/cpdyn/quantum.py`:

- `scale`: one constant 0.5, 0.25, 2.0, 6.0 or 1/24 multiplied by
  1 + 2^-40 (each occurrence on its own);
- `negate`: one unary minus dropped;
- `swap`: s2 and s3 exchanged in one stage's beta;
- `order`: one product `c * x` of a float constant written `x * c`, which
  can change a weight's NaN bits where x.imag is NaN and x.real is not
  finite (see the `rk4_weights` docstring).

A mutant of a constant of `CONSTANTS` multiplies its value by 10 (`x10`)
or by 0.1 (`x0.1`; an integer is floor-divided by 10).

For each mutant the script copies the checkout's `src/` and `tests/` (and
`pyproject.toml`, for the pytest settings) to a temporary directory,
applies the mutant there, runs `python -m pytest tests/test_<module>.py -x
-q` on the copy, for the module the mutant changes, and prints `killed` (a
test failed), `survived` (all passed) or `error` (pytest could not run).
A survivor marks a rule that no test of its module pins.  `--root`
(default: this file's checkout) names the checkout to mutate, which is
never written; `--list` prints the mutants without running them.  Not a
test (pytest does not collect it); each mutant takes a few seconds.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import ROOT

FUNCTION = "rk4_weights"  # of `quantum`
SCALE = 1.0 + 2.0**-40
# each named tolerance and cap, as (module, name)
CONSTANTS = (
    ("quantum", "STATE_NORM_TOL"),
    ("quantum", "_EIGH_RESIDUAL"),
    ("chart", "PIVOT_FLOOR"),
    ("observables", "SEPARABILITY_EPS"),
    ("flow", "_NSQ_GUARD"),
    ("scenario", "_MAX_STEPS"),
    ("scenario", "_MAX_SAMPLE_ENTRIES"),
)


def source_path(module: str) -> Path:
    return Path("src/cpdyn") / f"{module}.py"


def mutants(source: str) -> list[tuple[str, int, str]]:
    """(kind, line number, mutated line) for each mutant of `rk4_weights`
    in `source`."""
    lines = source.splitlines()
    tree = ast.parse(source)
    func = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == FUNCTION
    )
    edits = []  # (kind, line, start column, end column, replacement)
    for node in ast.walk(func):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and all(isinstance(v, ast.Constant) for v in (node.left, node.right))
        ):
            # 1.0 / 24.0, the one constant written as a quotient
            value = node.left.value / node.right.value * SCALE
            edits.append(("scale", node.lineno, node.col_offset, node.end_col_offset, repr(value)))
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and node.value in (0.5, 0.25, 2.0, 6.0)
        ):
            value = node.value * SCALE
            edits.append(("scale", node.lineno, node.col_offset, node.end_col_offset, repr(value)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            # the operand follows the minus sign directly
            edits.append(("negate", node.lineno, node.col_offset, node.operand.col_offset, ""))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is float
        ):
            operand = ast.get_source_segment(source, node.right, padded=False)
            if not isinstance(node.right, ast.Name):
                operand = f"({operand})"
            text = f"{operand} * {node.left.value!r}"
            edits.append(("order", node.lineno, node.col_offset, node.end_col_offset, text))
        elif (
            isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["beta"]
        ):
            names = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
            if {"s2", "s3"} <= names:
                line = lines[node.lineno - 1]
                swapped = line.replace("s2", "\0").replace("s3", "s2").replace("\0", "s3")
                edits.append(("swap", node.lineno, 0, len(line), swapped))
    out = []
    for kind, lineno, start, end, text in sorted(edits, key=lambda e: (e[1], e[2])):
        old = lines[lineno - 1]
        out.append((kind, lineno, (old[:start] + text + old[end:]).strip()))
    return out


def constant_mutants(source: str, name: str) -> list[tuple[str, int, str]]:
    """(kind, line number, mutated line) for the x10 and x0.1 mutants of
    the module-level one-line assignment of `name` in `source`."""
    node = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]
    )
    value = node.value
    if isinstance(value, ast.Constant) and type(value.value) is float:
        texts = repr(value.value * 10), repr(value.value / 10)
    else:
        text = ast.get_source_segment(source, value)
        texts = f"({text}) * 10", f"({text}) // 10"
    return [(kind, node.lineno, f"{name} = {text}") for kind, text in zip(("x10", "x0.1"), texts)]


def all_mutants(root: Path) -> list[tuple[str, str, int, str]]:
    """(module, kind, line number, mutated line) for every mutant."""
    source = (root / source_path("quantum")).read_text()
    found = [("quantum", kind, lineno, new) for kind, lineno, new in mutants(source)]
    for module, name in CONSTANTS:
        source = (root / source_path(module)).read_text()
        for kind, lineno, new in constant_mutants(source, name):
            found.append((module, kind, lineno, new))
    return found


def run_mutant(root: Path, module: str, lineno: int, new: str) -> str:
    """killed, survived or error: the tests of `module` on a copy of
    `root` with line `lineno` of the module replaced by `new` (re-indented
    as the old one)."""
    with tempfile.TemporaryDirectory(prefix="cpdyn-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name, ignore=ignore)
        shutil.copy(root / "pyproject.toml", copy / "pyproject.toml")
        path = copy / source_path(module)
        lines = path.read_text().splitlines(keepends=True)
        old = lines[lineno - 1]
        indent = old[: len(old) - len(old.lstrip())]
        lines[lineno - 1] = indent + new + "\n"
        path.write_text("".join(lines))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", f"tests/test_{module}.py", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # pytest exits 0 when every test passed and 1 when one failed
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--list", action="store_true", help="print the mutants only")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    found = all_mutants(root)
    survivors = 0
    for module, kind, lineno, new in found:
        verdict = "" if args.list else run_mutant(root, module, lineno, new)
        survivors += verdict == "survived"
        print(f"{verdict:>8} {kind:>6} {module}.py:{lineno}: {new}", flush=True)
    if not args.list:
        print(f"{len(found)} mutants, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
