"""Host-speed calibration.

The machines this benchmark runs on are shared: the speed of the same work
drifts by up to ~60% within a minute, in phases of a few seconds.  Each
timed item is therefore bracketed by two readings of a short fixed kernel
owned by the benchmark, and its latency is scaled by (kernel's nominal time
/ mean of the two readings).  The ratio of an item to its kernel stayed
within a few percent while both drifted, so the scaled latencies read as
"ms at the nominal host speed".  The raw latencies are kept in the run
record.

Three kernels match the three kinds of work in the package: "interp" is
interpreter-bound Python with small numpy arrays (the closed forms and the
CLI), "ld" is extended-precision 16x16 matrix products in numpy's own loops
(the moment ODE's matrix powers), and "blas" is a dense complex matrix
product on the capped BLAS threads (the Fock oracle).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# nominal kernel times, seconds: about their medians on the 2-CPU host the
# bounds were set on, in its fast phase; they only fix the scale of the metrics
NOMINAL_S = {"interp": 0.8e-3, "ld": 0.5e-3, "blas": 8.0e-3}
RUNS = {"interp": 1, "ld": 3, "blas": 3}  # kernel runs per reading; a reading is their median


def _interp_kernel() -> None:
    """Interpreter-bound Python with small numpy arrays, like the closed
    forms and the CLI."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    a = np.arange(16.0).reshape(4, 4)
    for _ in range(60):
        a = (a @ a.T) / (np.abs(a).max() + 1.0)


_LD_M = np.eye(16, dtype=np.longdouble) + np.arange(256, dtype=np.longdouble).reshape(16, 16) / 4096


def _ld_kernel() -> None:
    """Extended-precision 16x16 matrix products, which numpy runs in its own
    loops rather than BLAS, like the moment ODE's matrix powers."""
    a = _LD_M
    for _ in range(24):
        a = (a @ _LD_M) / 2


_BLAS_M = np.exp(1j * np.arange(300 * 300).reshape(300, 300) / 7.0) / 300.0


def _blas_kernel() -> None:
    """Dense complex matrix products on the capped BLAS threads, like the
    Fock oracle."""
    a = _BLAS_M
    for _ in range(4):
        a = a @ _BLAS_M


KERNELS = {"interp": _interp_kernel, "ld": _ld_kernel, "blas": _blas_kernel}


def reading(kind: str, runs: int | None = None) -> float:
    """Seconds the kernel of this kind takes now: the median of `runs` runs
    (RUNS[kind] by default)."""
    times = []
    for _ in range(runs or RUNS[kind]):
        t0 = time.perf_counter()
        KERNELS[kind]()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(kind: str, before: float, after: float) -> float:
    """Scale for a latency bracketed by two readings of its kernel."""
    return NOMINAL_S[kind] / ((before + after) / 2.0)
