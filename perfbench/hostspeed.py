"""Host-speed calibration: every time the benchmark reports is scaled to a
fixed reference speed.

On a few cores of a shared host one CPU can run the same pure-Python loop
at one speed or at about half of it, switching every few seconds and
independently of the other CPU, so raw times of the same code spread far
past any useful bound.  The benchmark therefore

- pins itself and its children to one CPU (``pin``);
- measures each op as CPU time (user + system) of the process running it;
- times a fixed loop (``loop``) on that CPU between ops, and every
  ``PERIOD_S`` while a child op runs (they then share the CPU, and each
  is charged only its own CPU time);
- reports ``scaled = cpu * REF_S / loop_cpu``, where ``loop_cpu`` is the
  median CPU time of the loops during the op and the ``NEAR`` on each side
  of it, and ``REF_S`` is a fixed constant: the loop's CPU time on a
  reference host.

A scaled second is a second on that host.  A change to the program moves
the op's CPU time and not the loop's, so it shows in full.
"""

from __future__ import annotations

import bisect
import marshal
import os
import statistics
from pathlib import Path
from time import perf_counter, thread_time

REF_S = 0.009  # loop() on the reference host, in CPU seconds
NEAR = 2  # loop timings used on each side of a span
PERIOD_S = 0.2  # time between loops while a child op runs


def pin() -> int:
    """Pin this process (and the children it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _module_code() -> list:
    """Compiled code of a few standard-library modules, for ``loop``."""
    import argparse
    import fractions
    import json.decoder

    return [marshal.dumps(compile(Path(m.__file__).read_text(), m.__name__, "exec"))
            for m in (fractions, json.decoder, argparse)]


_CODE = _module_code()


def loop() -> int:
    """A fixed amount of interpreter work; its result is not used.

    Half of it is dict, str, int and frozenset work, the other half is
    what an import does (unmarshal module code and run it), because the
    CLI ops spend much of their time starting the interpreter.  Against a
    loop of the first half alone, the ops' times spread more.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(15000):
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0) + i
        total += len(str(k))
    base = frozenset(range(200))
    for i in range(150):
        total += len(base & frozenset(range(i % 50, i % 50 + 100)))
    for _ in range(3):
        for blob in _CODE:
            namespace = {"__name__": "hostspeed_loop"}
            exec(marshal.loads(blob), namespace)
            total += len(namespace)
    return total


class HostSpeed:
    """Loop timings taken around and during measured spans."""

    def __init__(self, every_s: float = 0.0):
        self.every_s = every_s  # calibrate at most this often (0: whenever asked)
        self.starts: list[float] = []  # perf_counter at each loop's start
        self.ends: list[float] = []  # and end
        self.times: list[float] = []  # each loop's CPU time
        self.loop_cpu = 0.0  # CPU time spent in loops so far

    def calibrate(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and self.ends and now - self.ends[-1] < self.every_s:
            return
        cpu = thread_time()
        loop()
        cpu = thread_time() - cpu
        self.starts.append(now)
        self.ends.append(perf_counter())
        self.times.append(cpu)
        self.loop_cpu += cpu

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median loop time during the span from ``start``
        to ``end`` (perf_counter times) and next to it."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.times[max(0, before - NEAR):max(before, after) + NEAR]
        if not near:
            raise RuntimeError("no calibration next to a measured span")
        return REF_S / statistics.median(near)
