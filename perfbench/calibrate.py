"""A fixed calibration slice that tracks the host's current speed.

The benchmark's host is a share of a machine whose speed switches between
phases as much as 2x apart, every few seconds, whatever the program does.
Wall times taken across runs minutes apart then measure the phase, not the
program.  The calibration slice is a fixed piece of pure-Python work of the
kind approvalwd does (set and dict operations, sorting, ``Fraction``
arithmetic), independent of approvalwd's code.  Timed next to each solve, it
gives the speed of the phase the solve ran in, and

    normalised = elapsed * REFERENCE_S / slice time

is the time the solve would take on a host on which one slice takes
REFERENCE_S.  A change to approvalwd changes ``elapsed`` and leaves the slice
alone, so it shows in full in the normalised figure.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# about the slice's time in the fast phase of a 2-vCPU cloud VM (Python 3.11;
# 5 ms in its slow phase)
REFERENCE_S = 0.003

_rng = random.Random(20260501)
_SETS = [frozenset(_rng.sample(range(400), 6)) for _ in range(120)]
_WEIGHTS = [Fraction(1, j) for j in range(1, 9)]


def work():
    """The slice: a fixed amount of set, dict, sort and Fraction work."""
    return [_round() for _ in range(3)]


def _round():
    covered = {}
    for s in _SETS:
        for c in s:
            covered[c] = covered.get(c, 0) + 1
    total = Fraction(0)
    for s in _SETS[:40]:
        hits = sorted(covered[c] for c in s)
        for j, h in enumerate(hits):
            total += _WEIGHTS[j] * h
    unions = 0
    for a, b in zip(_SETS, _SETS[1:]):
        unions += len(a | b) - len(a & b)
    return total, unions


def slice_s():
    """Seconds that one calibration slice takes now, with the collector off
    so that a collection the program is owed does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalised(elapsed, before, after):
    """``elapsed`` seconds, timed between slices of ``before`` and ``after``
    seconds, scaled to the reference speed."""
    return elapsed * REFERENCE_S * 2 / (before + after)
