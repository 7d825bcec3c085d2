"""The run record: what ran, where, and with which library versions."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from typing import Optional


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> Optional[str]:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> list:
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        out.append({k: _read(os.path.join(index, k)) for k in ("level", "type", "size")})
    return out


def git_sha(root: str) -> Optional[str]:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest(src: str) -> str:
    """sha256 over drglab's sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "drglab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def blas(numpy) -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}


def run_record(root: str, src: str, args) -> dict:
    import numpy
    import sympy
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "source_sha256": source_digest(src),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "caches": caches(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "sympy": sympy.__version__, "blas": blas(numpy),
        "load": "one benchmark process; set-up probes run one at a time",
        "loadavg_start": os.getloadavg(),
    }
    threads = rec["blas"]["threads"]
    rec["threads_within_nproc"] = threads is None or threads <= rec["affinity"]
    return rec
