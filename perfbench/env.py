"""Process environment of a benchmark run: thread pinning, the program's
source tree, and the record of versions and settings kept with each result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the program is single-threaded Python around small
# dense kernels, and extra BLAS threads only add scheduling noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program source, failed set-up)."""


def pin_threads() -> None:
    """Set every thread variable to 1; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SetupError("pin_threads() called after numpy was imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The calibration kernel then measures the CPU that the timed work runs
    on; on a VM whose vCPUs change speed independently, it would not
    otherwise.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def use_checkout_src() -> None:
    """Import ``orbitpoly`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "orbitpoly" / "__init__.py").is_file():
        raise SetupError(f"no program source: {SRC / 'orbitpoly'} is missing")
    sys.path.insert(0, str(SRC))
    import orbitpoly

    if SRC not in Path(orbitpoly.__file__).resolve().parents:
        raise SetupError(f"orbitpoly was imported from {orbitpoly.__file__}, not {SRC}")


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def describe() -> dict:
    """Versions and settings recorded next to every result."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines(),
    }
