"""Host-speed calibration, so end-to-end times compare across a shared host.

The benchmark runs on a few cores of a shared machine whose speed for
the same code swings by up to 2x within seconds, for minutes at a time,
while the process's own CPU time grows exactly as fast as wall time
(the slowdown is invisible from inside).  A fixed kernel of about a
third of a second, run between ops by :func:`calibrate`, measures that
swing: its time over ``REFERENCE_S`` is the host's slowdown, and the
benchmark divides each op's wall time by the mean slowdown just before
and just after the op.  End-to-end times are therefore seconds at the
host speed on which the kernel takes ``REFERENCE_S``; the raw wall
times are kept in the results file and printed beside them.

The kernel contains no program code, so a change to the program cannot
move it.  Its three parts repeat the kinds of work the workloads spend
their time on: a Python loop of small complex matrix-vector steps (the
receiver ODE), ``%.15g`` float formatting (the CSV writers), and
whole-grid array arithmetic (pulse solves and closed forms).  The slow
spells hold back interpreter-bound code (the first two) about 1.8x and
whole-array arithmetic only about 1.2x, so each workload names the
parts that stand for its own work (``Workload.host_work``).
"""

from __future__ import annotations

import time

import numpy as np

# Time of each kernel part in the host's fast spells (its 5th percentile
# between ops on a 2-vCPU Intel Xeon, Python 3.11, numpy 2.4); only a
# scale, since comparisons are between runs on one machine.
REFERENCE_S = {"loop": 0.115, "format": 0.12, "array": 0.065}
PARTS = tuple(REFERENCE_S)
# Repeats of each part per calibration.
_STEPS = 20000
_FORMAT_PASSES = 48
_ARRAY_PASSES = 500

_GEN = np.zeros((6, 6), dtype=complex)
_GEN[0, 1] = _GEN[1, 0] = 0.5j
_GEN[2, 3] = _GEN[3, 2] = _GEN[3, 4] = _GEN[4, 3] = 0.7j
_GRID = np.linspace(0.0, 1.0, 48001)
_ENVELOPE = np.exp(-_GRID)
# Work buffers, so the array part allocates nothing and its time does not
# depend on what the process allocated before.
_U = np.empty_like(_GRID)
_V = np.empty_like(_GRID)


def calibrate() -> dict[str, float]:
    """Run the kernel once; seconds taken by each of its parts."""
    t0 = time.perf_counter()
    y = np.ones(6, dtype=complex)
    for _ in range(_STEPS):
        y = y + 1e-4 * (y @ _GEN)
        np.all(np.isfinite(y.view(float)))
    t1 = time.perf_counter()
    for i in range(_FORMAT_PASSES):
        start = (i % 12) * 4000
        ",".join(f"{float(x):.15g}" for x in _GRID[start:start + 4000])
    t2 = time.perf_counter()
    for _ in range(_ARRAY_PASSES):
        np.subtract(_GRID, 0.5, out=_U)
        np.multiply(_U, _U, out=_V)
        np.multiply(_V, -50.0, out=_V)
        np.exp(_V, out=_V)
        np.multiply(_V, _ENVELOPE, out=_V)
        _V.sum()
    t3 = time.perf_counter()
    return {"loop": t1 - t0, "format": t2 - t1, "array": t3 - t2}


def slowdown(times: dict[str, float], parts: tuple[str, ...]) -> float:
    """How much slower than reference the host ran the kernel ``parts``."""
    return sum(times[p] for p in parts) / sum(REFERENCE_S[p] for p in parts)
