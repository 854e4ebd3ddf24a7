"""Environment record of one benchmark run."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess


def code_sha256(root, bench_dir) -> str:
    """Digest of the program and benchmark sources: runs with the same
    digest ran the same code."""
    paths = sorted(glob.glob(os.path.join(root, "src", "hetlink", "*.py"))
                   + glob.glob(os.path.join(bench_dir, "*.py")))
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha(root) -> str | None:
    """HEAD of the repository whose top level is `root`, if it is one."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def blas_info(requested_threads: int) -> dict:
    import numpy as np
    info = {"threads_requested": requested_threads, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def collect(root, bench_dir, blas_threads: int) -> dict:
    import numpy as np
    import scipy
    return {
        "git_sha": git_sha(root),
        "code_sha256": code_sha256(root, bench_dir),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(blas_threads),
        "machine": platform.machine(),
    }
