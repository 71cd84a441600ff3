"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Pinned in run.py before numpy is imported; identical on both sides of a comparison.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads(environ):
    for var in BLAS_THREAD_VARS:
        environ[var] = str(BLAS_THREADS)


def git_commit(root):
    """Commit id from the checkout's .git directory, or None outside a repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_libraries():
    """BLAS libraries loaded in this process with the thread count each reports."""
    out = []
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if ".so" in line})
    except OSError:
        return out
    for path in paths:
        name = os.path.basename(path)
        if not (name.startswith("lib") and "blas" in name.lower()):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = None
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                threads = int(query())
                break
        out.append({"library": name, "threads": threads})
    return out


def cache_sizes():
    """Per-level data/unified cache sizes of cpu0, as sysfs reports them."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def record(root, seed, sizes):
    import numpy
    import scipy

    blas_config = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(root),
        "seed": seed,
        "input_sizes": sizes,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas_config.get('name')} {blas_config.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_loaded": blas_libraries(),
        "caches": cache_sizes(),
    }
