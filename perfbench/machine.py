"""The machine a result was measured on: cores, CPU, interpreter, numpy, BLAS."""

import ctypes
import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """(library path, core name, thread count) of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln and ln.rstrip().endswith(".so")})
    except OSError:
        return None, None, None
    numpy_libs = [p for p in paths if "numpy" in p] or paths
    for path in numpy_libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    nthreads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                except AttributeError:
                    continue
                nthreads.restype = ctypes.c_int
                corename.restype = ctypes.c_char_p
                return os.path.basename(path), corename().decode(), nthreads()
    return None, None, None


def describe() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, core, threads = _openblas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_core": core,
        "blas_threads": threads,
    }
