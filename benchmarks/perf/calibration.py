"""Machine-speed calibration.

The shared 2-core box this benchmark was built on goes through slow phases
that last minutes and stretch *everything* by up to 2x; ten runs of one
commit spread by 40-57%.  No statistic over the passes of one run removes
that.  So a fixed piece of interpreter-bound work — dict traffic, big-int
arithmetic, string building: what the product's own code is made of — is
timed around every stretch of timed ops, and the stretch's times are
multiplied by ``NOMINAL_S / measured``: times are reported as the reference
box would have taken when quiet.  In a 15-minute window with such phases
the run-to-run spread of the median pass time fell from 21-28% raw to 4-5%
scaled.

Imports nothing but ``time``: the first calibration runs before the
product is imported, because set-up time is scaled too.
"""

import time

#: Seconds :func:`calibrate` takes on the reference box when it is quiet.
NOMINAL_S = 0.05
#: Timed ops run at most this long between two calibrations.
SEGMENT_S = 0.4


def calibrate() -> float:
    """Seconds the fixed work takes right now."""
    started = time.perf_counter()
    totals = {}
    for number in range(400_000):
        key = number & 1023
        totals[key] = totals.get(key, 0) + number * number
    "".join(str(value) for value in totals.values())
    return time.perf_counter() - started


def speed_between(before_s: float, after_s: float) -> float:
    """Machine-speed factor of the stretch between two calibrations
    (1.0: the quiet reference box; 0.5: everything takes twice as long)."""
    return NOMINAL_S / ((before_s + after_s) / 2)
