"""Machine-speed calibration for a host whose CPU throughput drifts.

On a shared host the speed of one core drifts by a factor of about 1.6 over
seconds to minutes (other tenants, frequency changes), which no run length
averages away.  The benchmark therefore runs this fixed kernel between ops,
off the op clock, and reports every time scaled to a reference speed:

    reported = measured * REFERENCE_S / median kernel time within 4 s of it

The kernel mixes what copreli's ops spend time on: interpreted Python,
small numpy calls dominated by dispatch, and one bulk numpy pass.  Its
inputs are fixed, so only the machine changes its time.
"""

import time

import numpy as np

# Kernel time on the reference machine: a shared 2-core x86-64 host, CPython
# 3.11, numpy 2.4.  Only the ratio to it matters.
REFERENCE_S = 0.016
WINDOW_S = 4.0

_SMALL = np.linspace(0.01, 0.99, 3)
_BULK = np.random.default_rng(0).random(200_000)


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(100_000):
        acc += j * j
    for _ in range(1_000):
        float(np.prod(np.exp(-_SMALL)))
    np.sort(_BULK)
    return time.perf_counter() - t0


def scale_at(when, samples_t, samples_s) -> np.ndarray:
    """REFERENCE_S over the median kernel time within WINDOW_S of each time in ``when``.

    One kernel sample is itself caught by bursts; the median of the samples
    around an op follows the drift without them.
    """
    samples_t = np.asarray(samples_t)
    samples_s = np.asarray(samples_s)
    out = np.empty(len(when))
    for i, t in enumerate(when):
        near = samples_s[np.abs(samples_t - t) <= WINDOW_S]
        out[i] = REFERENCE_S / np.median(near if near.size else samples_s)
    return out
