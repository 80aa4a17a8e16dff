"""Process set-up shared by every benchmark entry point.

``prepare()`` must run before numpy is imported: it pins the BLAS/OpenMP
pools to one thread and the process (and the set-up processes it spawns) to
one core, drops ``MYOARM_*`` overrides so a run sees only the inputs the
benchmark generates, and puts the checkout's ``src`` first on ``sys.path``
so the package under test is the one beside this directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "BLIS_NUM_THREADS")


class MissingPackageError(RuntimeError):
    """The checkout holds no myoarm sources to benchmark."""


def prepare() -> None:
    """Pin threads and core, isolate the config environment, find the package.

    Every run pins itself to the same core. Runs of one checkout take a lock
    and wait for each other; runs from different checkouts do not, so the
    caller must run them one at a time.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for var in [v for v in os.environ if v.startswith("MYOARM_")]:
        del os.environ[var]
    if not (SRC / "myoarm" / "__init__.py").is_file():
        raise MissingPackageError(f"no myoarm package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def source_digest(package: Path = SRC / "myoarm") -> str:
    """sha256 over the package's source files: the identity of the code under
    test, so outputs are compared byte for byte only between runs of one code."""
    h = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(path.relative_to(package).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def machine() -> dict:
    """The facts every result is recorded with."""
    import platform

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }
