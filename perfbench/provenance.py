"""Where a result came from: code version, interpreter, BLAS and machine."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _git(root: Path, *args) -> str | None:
    try:
        # never look for a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256(root: Path) -> str:
    """Hash of the program's sources, which identifies the measured code
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def collect(root: Path, seed: int) -> dict:
    import numpy as np

    blas_config, blas_threads = _openblas()
    top = _git(root, "rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == root.resolve()
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if dirty is None else bool(dirty),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
        "seed": seed,
    }
