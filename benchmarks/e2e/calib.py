"""Host-speed calibration kernel.

A fixed amount of pure-Python work of the kinds the join spends its time
on — dict updates, tuple building, list sort, ``array`` packing — with no
repo imports, so its duration tracks how fast *this host, right now*
runs interpreter bytecode. The harness runs it between consecutive timed
subprocesses and scales the pass's times by ``CALIB_REF_S`` over the
lower quartile of the calibrations, which removes slow drifts in host speed (noisy
neighbours, frequency changes) from results taken minutes apart.
"""

from __future__ import annotations

import time
from array import array

#: Duration of one kernel on the host the workloads were sized on. Only a
#: scale: normalised seconds read as "seconds on a host this fast".
CALIB_REF_S = 0.09

#: Small enough that the kernel's working set stays a few MiB: the parent
#: must not grow (a child's ``ru_maxrss`` starts from its parent's peak).
_N = 4_000
_PASSES = 30


def _one_pass(x: int) -> int:
    index = {}
    rows = []
    for i in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 1021
        bucket = index.get(key)
        if bucket is None:
            index[key] = [i]
        else:
            bucket.append(i)
        rows.append((x & 1023, i, key))
    rows.sort()
    packed = array("q", (row[1] for row in rows)).tobytes()
    total = 0
    for bucket in index.values():
        total += len(bucket)
    return (total + len(packed) + rows[0][1] + x) & 0x7FFFFFFF


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    x = 12345
    for _ in range(_PASSES):
        x = _one_pass(x)
    return x


def calibrate() -> float:
    """Seconds one kernel takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


if __name__ == "__main__":
    print(f"{calibrate():.6f}")
