"""The speed of the machine, measured while a run measures the program.

The benchmark runs on a shared host whose speed drifts by up to a third,
over minutes and within a second: the same op, repeated, takes 30% longer
in a slow phase than in a fast one, in CPU time as in wall time.  So raw
times of one commit spread across runs by more than any useful bound.

A ``SpeedMeter`` runs a fixed unit of pure-Python work before the first
timed call and after each one, for a fixed share of the time the call
took.  The mean time of the units just before and just after a call is
the machine's speed during it.  ``scales`` converts each call's time to
**reference seconds**: seconds on a machine where one unit takes
``REF_UNIT_S``, the typical speed of the 2-core Xeon box the benchmark was
written on.  A program change moves reference seconds as it moves wall
seconds; a change of machine speed moves both the unit and the program
and cancels out.  See README.md, "Reference seconds".
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter

# Typical time of one reference unit on the 2-core Xeon box (Python 3.11.7)
# the benchmark was written on.  Fixed: changing it rescales every figure.
REF_UNIT_S = 0.0005

# Share of a timed call's time spent on reference units after it.
REF_SHARE = 0.05


def reference_unit() -> int:
    """A fixed piece of interpreter-bound work like the solver's inner
    loops: integer arithmetic, ``Fraction`` sums and updates of a dict
    keyed by tuples."""
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    mix = 1
    for i in range(1, 150):
        mix = (mix * 48271) % 2147483647
        key = (mix % 37, i % 11)
        table[key] = table.get(key, 0) + math.gcd(mix, i)
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return acc.numerator + len(sorted(table.items()))


class SpeedMeter:
    """Reference units run around timed calls, and their times.  Create it
    just before the first call, and call ``after`` after each one."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []   # (seconds, units) per batch
        self.after(0.0)

    def after(self, busy_s: float) -> None:
        """Run reference units for ``REF_SHARE`` of ``busy_s``, at least one."""
        goal = REF_SHARE * busy_s
        spent, units = 0.0, 0
        # The unit frees all it allocates; with the collector off, it
        # neither runs a collection the program's garbage is due for nor
        # moves the program's next one.
        gc.disable()
        try:
            while True:
                start = perf_counter()
                reference_unit()
                spent += perf_counter() - start
                units += 1
                if spent >= goal:
                    break
        finally:
            gc.enable()
        self.samples.append((spent, units))

    @property
    def unit_s(self) -> float:
        """Mean seconds per reference unit over the whole run."""
        return sum(s for s, _ in self.samples) / sum(u for _, u in self.samples)

    def scales(self) -> list[float]:
        """Per timed call, in order: the factor from its seconds to
        reference seconds, from the units just before and just after it."""
        return [REF_UNIT_S * (u0 + u1) / (s0 + s1)
                for (s0, u0), (s1, u1) in zip(self.samples, self.samples[1:])]
