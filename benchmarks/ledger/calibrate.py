"""Host-speed calibration: a fixed stdlib-only kernel timed beside every pass.

The host the ledger was defined on is shared.  Other tenants slow it by
1.3-1.5x for seconds to minutes at a time: over ten minutes the median
``yarrp6-walk`` pass of fifty simulated runs spread 15 % (max/min 1.73)
— no bound could tell that from a regression, and no estimator of raw
seconds (median, minimum, quantile) did better than 8 %.  The slow-downs
hit whatever is running, so each timed operation is bracketed by two
*spins* of the kernel below and its seconds are divided by how much
slower than :data:`REFERENCE_SPIN_S` those spins ran.  The same fifty
runs then spread 3.6 % (max/min 1.12); the closer the spins sit to what
they correct the better (5.3 % bracketing 0.5 s, 3.8 % bracketing
0.12 s), which is why operations are short.  Raw seconds stay in every
payload.

The kernel only uses the standard library, so no change to ``src/`` can
move it, and it mixes what the simulator's own hot path does: hashing
into a table too large for the L2 cache, attribute loads and stores on
slotted objects, ``struct.pack``, and plain integer arithmetic.
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.obs import wallclock

#: Seconds one spin takes on the reference host when no other tenant is
#: active.  A constant of the unit, not a tunable: calibrated seconds are
#: "seconds on a host on which a spin takes this long".
REFERENCE_SPIN_S = 0.055


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_TABLE_SIZE = 100_000
_TABLE: Dict[int, _Cell] = {}
_KEYS: List[int] = []


def spin() -> float:
    """Run the calibration kernel once; the host seconds it took."""
    if not _TABLE:  # built on first use, outside any timed region
        for index in range(_TABLE_SIZE):
            _TABLE[index * 7919 % 1_000_003] = _Cell(index)
        _KEYS.extend(_TABLE)
    table, keys, pack = _TABLE, _KEYS, struct.pack
    started = wallclock.now()
    cursor = 1
    total = 0
    for step in range(150_000):
        cursor = (cursor * 1103515245 + 12345) % _TABLE_SIZE
        cell = table[keys[cursor]]
        total += cell.value & 0xFF
        cell.value = total
        if step & 7 == 0:
            total ^= len(pack("!IH", total & 0xFFFFFFFF, step & 0xFFFF))
    for step in range(300_000):
        total += step * step & 0xFFFF
    return wallclock.now() - started


def host_speed(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two spins
    (1.0 = reference speed, 1.4 = a busy neighbour)."""
    return (before + after) / (2.0 * REFERENCE_SPIN_S)
