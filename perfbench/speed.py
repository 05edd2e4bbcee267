"""Seconds at the machine's quiet speed.

On a shared machine co-tenants slow every process by up to a factor of two,
for a fraction of a second up to minutes at a time; a program's wall time
then says as much about its neighbours as about the program. :class:`Speed`
runs a fixed reference after every timed operation and divides the
operation's seconds by the median of the reference times nearest to it,
relative to the reference's quiet time. The result reads as the seconds the
operation takes when the machine is quiet.

There are two references, because a fresh interpreter slows down
differently from code running in a warm one:

* ``loop``, after in-process operations: dict copies, a sorted key
  intersection and attribute compares, the kind of work a model diff does;
  an operation is gauged by the median of the four loops nearest to it;
* ``child``, after subprocesses: a fresh interpreter that imports the
  standard-library modules procline needs, and nothing of procline; a
  subprocess is gauged by the references right before and right after it.
"""

from __future__ import annotations

import statistics
import time

#: fastest time of each reference on the quiet 2-vCPU sandbox the benchmark
#: was written on (Python 3.11.7); constants, so that figures from different
#: runs and commits compare
QUIET_S = {"loop": 0.0112, "child": 0.100}
CHILD_REFERENCE = [
    "-c",
    "import argparse, csv, dataclasses, decimal, enum, re, xml.etree.ElementTree, xml.sax.saxutils",
]
#: how many references of each kind around an operation gauge its slowdown
NEAREST = {"loop": 4, "child": 2}


class _Item:
    __slots__ = ("number", "text", "key")

    def __init__(self, number, text, key):
        self.number, self.text, self.key = number, text, key


class Speed:
    """Logs operation times and reference times; :meth:`take` normalises.

    ``spawn(argv)`` runs ``sys.executable`` with ``argv`` in a child process
    and returns its wall time; it serves the ``child`` reference.
    """

    def __init__(self, spawn=None):
        self.spawn = spawn
        self.base = {f"id-{i:04d}": _Item(i, str(i), (i,)) for i in range(3000)}
        self.events = []

    def _loop(self):
        changed = 0
        for rep in range(10):
            copy = dict(self.base)
            copy[f"id-{rep:04d}"] = _Item(-1, "x", ())
            for key in sorted(self.base.keys() & copy.keys()):
                a, b = self.base[key], copy[key]
                changed += a.number != b.number or a.text != b.text
        return changed

    def tick(self, kind="loop"):
        """Run one reference and log its time."""
        if kind == "child":
            seconds = self.spawn(CHILD_REFERENCE)
        else:
            start = time.perf_counter()
            self._loop()
            seconds = time.perf_counter() - start
        self.events.append((kind, None, seconds))

    def record(self, key, seconds, kind="loop"):
        """Log one operation's wall time, then gauge the machine right after it."""
        self.events.append((kind, key, seconds))
        self.tick(kind)

    def take(self):
        """({key: normalised seconds}, {key: raw seconds}, slowdown factor)
        for what was logged since the last call. The factor is the median
        over all references of their time relative to their quiet time."""
        refs = {}
        for index, (kind, key, seconds) in enumerate(self.events):
            if key is None:
                refs.setdefault(kind, []).append((index, seconds))
        normalised, raw = {}, {}
        for index, (kind, key, seconds) in enumerate(self.events):
            if key is None:
                continue
            near = sorted(refs[kind], key=lambda r: abs(r[0] - index))[: NEAREST[kind]]
            normalised[key] = seconds * QUIET_S[kind] / statistics.median(s for _, s in near)
            raw[key] = seconds
        factor = statistics.median(s / QUIET_S[kind] for kind, key, s in self.events if key is None)
        self.events = []
        return normalised, raw, factor


def per_op_median(rounds, metric):
    """Sum over the operations of ``metric`` of each one's median time.

    ``rounds`` holds one {(metric, operation, *repetition): seconds} dict per
    round; an operation's samples are all its repetitions in all rounds.
    """
    samples = {}
    for sample in rounds:
        for (name, label, *_), seconds in sample.items():
            if name == metric:
                samples.setdefault(label, []).append(seconds)
    return sum(statistics.median(times) for times in samples.values())

