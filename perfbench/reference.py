"""A fixed reference computation that sets the benchmark's unit of time.

The speed of a small shared machine drifts: the same operations on the same
inputs run tens of percent faster or slower from one minute to the next, as
other tenants load the memory system. A run therefore interleaves this kernel
with its operations, at a fixed share of the measured time, and reports
operation times in units of the kernel's median duration in that run
(``ref``). Drift that slows both cancels in the ratio; a change to surfcert
moves only the operations, since the kernel calls none of its code.

The kernel streams broadcast numpy arithmetic over a 40 MB block of pairwise
differences, the kind of work that dominates every workload (the ball clip,
``extrinsic_diameter`` and the narrow phase). The block is allocated once, so
the kernel's time does not depend on what the allocator did before it. It has
no pure Python part: in trial runs a Python loop's time did not follow the
operations' drift.
"""
from __future__ import annotations

import time

import numpy as np

_POINTS = np.random.default_rng(20110509).random((1300, 3))
_BLOCK = np.zeros((_POINTS.shape[0], _POINTS.shape[0], 3))


def kernel() -> float:
    """Run the reference computation once; return its duration in seconds."""
    t0 = time.perf_counter()
    np.subtract(_POINTS[:, None, :], _POINTS[None, :, :], out=_BLOCK)
    np.square(_BLOCK, out=_BLOCK)
    if not float(_BLOCK.max()) > 0.0:  # keeps the result observable; never true
        raise AssertionError("reference kernel computed nothing")
    return time.perf_counter() - t0
