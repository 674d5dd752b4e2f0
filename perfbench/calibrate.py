"""Host-speed calibration: a fixed pure-Python kernel timed beside samples.

The benchmark shares a small virtual machine with other tenants, and the
same campaign has run up to twice as slowly from one minute to the next
with nothing else running in the guest.  Raw host seconds therefore
measure the neighbours as much as the program.  :func:`measure` times a
fixed kernel that mixes the simulator's kinds of host work — small
objects, a heap of event tuples, dict counters, generator sends, string
formatting and JSON, and scattered reads over a freshly built 100k-dict
table — and every timed sample is expressed in *reference seconds*::

    reference_seconds = host_seconds * REFERENCE_S / kernel_seconds

where ``kernel_seconds`` is the mean of the kernel timings taken just
before and just after the sample.  The kernel runs after a full
collection with the cyclic garbage collector switched off, so the
program's live heap cannot decide whether (or how long) a collection
lands inside it: the kernel's time depends on the host, not on the
program, and a change to the program moves the scaled figure exactly as
it moves the raw one.  Raw figures are printed beside the scaled ones
on standard error.
"""

from __future__ import annotations

import gc
import heapq
import json
import time

__all__ = ["REFERENCE_S", "measure"]

#: Kernel seconds that define one reference second: about the kernel's
#: time on the 2-vCPU virtual machine the benchmark was built on when
#: the host was quiet (it took up to 0.12 s when it was not), so that
#: reference figures read close to raw ones on a quiet host.
REFERENCE_S = 0.07


class _Event:
    __slots__ = ("t", "seq", "name")

    def __init__(self, t: float, seq: int, name: str):
        self.t = t
        self.seq = seq
        self.name = name


def _process(n: int):
    total = 0
    for i in range(n):
        total += (yield i) or 0
    return total


def _kernel() -> int:
    heap: list = []
    counts: dict = {}
    lines = []
    proc = _process(4001)
    next(proc)
    for i in range(4000):
        ev = _Event(i * 0.5, i, "op%d" % (i % 13))
        heapq.heappush(heap, (ev.t + i * 7919 % 101, ev.seq, ev))
        key = (i % 97, ev.name)
        counts[key] = counts.get(key, 0) + 1
        proc.send(i & 7)
        if len(heap) > 256:
            _, _, e = heapq.heappop(heap)
            lines.append(f'{{"op":"{e.name}","t":{e.t:.3f},"seq":{e.seq}}}')
    json.dumps(lines[-64:])
    table = [{"k": i, "v": i * 0.5} for i in range(100_000)]
    n = len(table)
    total = j = 0
    for _ in range(40_000):
        j = (j + 7919) % n
        total += table[j]["k"]
    return total + len(counts)


def measure() -> float:
    """Host seconds one run of the calibration kernel takes now.

    The heap is collected first and the cyclic collector is off while
    the kernel runs (restored afterwards); the kernel's objects are
    freed by reference counting alone.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
