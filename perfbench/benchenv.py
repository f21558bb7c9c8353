"""Process set-up shared by the benchmark scripts.

Call :func:`pin_threads` before anything imports numpy: OpenBLAS and OpenMP
read their thread counts once, when the library loads. :func:`add_src_path`
makes ``import slat`` resolve to the ``src`` tree of the checkout the
benchmark sits in, never to an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def add_src_path() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 if slat is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import slat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import slat from {SRC}: {exc}")
    if Path(slat.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: slat resolved to {slat.__file__}, not under {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Library versions, BLAS build, thread settings and CPU of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }
