"""Print which one-line mutants of `quantum.rk4_weights` the tests kill.

    python tests/mutants.py [--root CHECKOUT] [--list]

Each mutant changes one line of the recurrence in `src/cpdyn/quantum.py`:

- `scale`: one constant 0.5, 0.25, 2.0, 6.0 or 1/24 multiplied by
  1 + 2^-40 (each occurrence on its own);
- `negate`: one unary minus dropped;
- `swap`: s2 and s3 exchanged in one stage's beta;
- `order`: one product `c * x` of a float constant written `x * c`, which
  can change a weight's NaN bits where x.imag is NaN and x.real is not
  finite (see the `rk4_weights` docstring).

For each mutant the script copies the checkout's `src/` and `tests/` (and
`pyproject.toml`, for the pytest settings) to a temporary directory,
applies the mutant there, runs `python -m pytest tests/test_quantum.py -x
-q` on the copy and prints `killed` (a test failed), `survived` (all
passed) or `error` (pytest could not run).  A survivor marks a rule that no
test of `quantum` pins.  `--root` (default: this file's checkout) names the
checkout to mutate, which is never written; `--list` prints the mutants
without running them.  Not a test (pytest does not collect it); each
mutant takes a few seconds.
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

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/cpdyn/quantum.py")
FUNCTION = "rk4_weights"
TESTS = "tests/test_quantum.py"
SCALE = 1.0 + 2.0**-40


def mutants(source: str) -> list[tuple[str, int, str]]:
    """(kind, line number, mutated line) for each mutant of `FUNCTION` in
    `source`."""
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


def run_mutant(root: Path, lineno: int, new: str) -> str:
    """killed, survived or error: `TESTS` on a copy of `root` with line
    `lineno` of `TARGET` replaced by `new` (re-indented as the old one)."""
    with tempfile.TemporaryDirectory(prefix="cpdyn-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name, ignore=ignore)
        shutil.copy(root / "pyproject.toml", copy / "pyproject.toml")
        path = copy / TARGET
        lines = path.read_text().splitlines(keepends=True)
        old = lines[lineno - 1]
        indent = old[: len(old) - len(old.lstrip())]
        lines[lineno - 1] = indent + new + "\n"
        path.write_text("".join(lines))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", TESTS, "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # pytest exits 0 when every test passed and 1 when one failed
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    parser.add_argument("--list", action="store_true", help="print the mutants only")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    found = mutants((root / TARGET).read_text())
    survivors = 0
    for kind, lineno, new in found:
        verdict = "" if args.list else run_mutant(root, lineno, new)
        survivors += verdict == "survived"
        print(f"{verdict:>8} {kind:>6} line {lineno}: {new}", flush=True)
    if not args.list:
        print(f"{len(found)} mutants, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
