"""A fixed reference computation that tracks how fast the machine runs now.

On a shared machine other load slows a process by up to 1.9x, in stretches
from tens of milliseconds to minutes. The benchmark runs `kernel` next to
every timed solve and rescales the solve's wall time to the speed at which
the kernel takes `REFERENCE_S`: a slowdown that stretches the solve
stretches its neighbouring kernels as well and cancels, while a change to
`qmi` moves the solve alone. The kernel does what `qmi` spends its time on:
small Hermitian eigendecompositions, matrix products and Python-level
arithmetic on their results. It imports nothing from `qmi`.
"""

import time

import numpy as np

# Median seconds of one `kernel()` on the 2-core x86_64 machine of the
# reference figures in README.md. Reported times are wall times at that speed.
REFERENCE_S = 0.0045

_rng = np.random.default_rng(0)
_MATRICES = []
for _d in (2, 3, 4, 8, 16, 32):
    _a = _rng.normal(size=(_d, _d)) + 1j * _rng.normal(size=(_d, _d))
    _MATRICES.append(_a @ _a.conj().T)


def kernel(passes: int = 10) -> float:
    """Seconds taken by `passes` sweeps of the reference computation."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(passes):
        for m in _MATRICES:
            w, v = np.linalg.eigh(m)
            acc += float(np.sum(np.abs((v * w) @ v.conj().T - m)))
            acc += sum(x * x for x in w.tolist())
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - start


def rescale(seconds: float, kernel_s: float) -> float:
    """Wall seconds at the reference speed."""
    return seconds * REFERENCE_S / kernel_s
