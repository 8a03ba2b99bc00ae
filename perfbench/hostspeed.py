"""Host-speed reference: a fixed pure-Python computation, timed in the
benchmark's own process between operations, by which every time is scaled.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over tens of seconds as other tenants load it (a fixed K3,3 report
took 1.2 to 1.8 s within two minutes, its CPU time tracking its wall time,
with no steal time).  Such drift moves a run's medians as a whole, so no
median within one run removes it.  The reference is slowed by the same drift,
so each operation's time is divided by the mean of the reference times taken
just before and just after it.  Over 25 s windows on a 2-vCPU x86-64 VM
(Python 3.11), the distance between the quartiles of a fixed operation's
window medians fell from 0.24-0.31 of their median unscaled to 0.03-0.06
scaled.

Times are reported at the host speed at which the reference takes
``REFERENCE_S`` seconds, so they stay in seconds.  The reference never runs
while an operation does and uses no zonoharm code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.1  # the reference's time at the speed every time is scaled to
_ROUNDS = 120  # about 0.1 s on the VM above
_SIZE = 12


def _round(rng: random.Random) -> None:
    """Integer Bareiss elimination, dict updates and a sort: the interpreter
    work zonoharm's own rank, kernel and point computations consist of."""
    m = [[rng.randint(-3, 3) for _ in range(_SIZE)] for _ in range(_SIZE)]
    prev = 1
    for k in range(_SIZE - 1):
        if m[k][k] == 0:
            for r in range(k + 1, _SIZE):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                continue
        for i in range(k + 1, _SIZE):
            for j in range(k + 1, _SIZE):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k] or 1
    counts: dict = {}
    for i in range(2000):
        counts[i * 7 % 1013] = counts.get(i * 7 % 1013, 0) + i
    sorted(counts.items(), key=lambda kv: kv[1])


def reference() -> tuple:
    """(wall, CPU) seconds of one run of the fixed reference computation."""
    rng = random.Random(7)
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(_ROUNDS):
        _round(rng)
    return time.perf_counter() - w0, time.process_time() - c0


def scale(wall_s: float, cpu_s: float, before: tuple, after: tuple) -> tuple:
    """(wall, CPU) of a measurement taken between the references ``before``
    and ``after``, at the speed where the reference takes REFERENCE_S."""
    return (
        wall_s * 2 * REFERENCE_S / (before[0] + after[0]),
        cpu_s * 2 * REFERENCE_S / (before[1] + after[1]),
    )
