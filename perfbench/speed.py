"""Reference-speed timing: a fixed calibration loop beside every timed job.

The benchmark runs on shared machines whose speed moves by more than half
for seconds at a time, with CPU time moving with wall time (so the process
is not descheduled; it runs slower).  A job time alone then measures the
machine as much as the program.  Each timed job is therefore bracketed by
calibration points: a point is a few runs of a fixed pure-Python loop
(integer, dict, sort and Fraction work, like the interpreter-bound work of
syzlab), timed in the process that runs the job, or, for a job that is a
child process, in the runner right before and after it.  A job's time at
reference speed is

    job time * REF_SAMPLE_S / (mean loop time of the points around the job)

that is, the time the job would take on a machine that runs one calibration
loop in exactly ``REF_SAMPLE_S``.  A change to the program moves it as it
moves the raw time; a change in the machine's speed, which moves the loop
too, cancels out.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_SAMPLE_S = 0.0025   # reference loop time (about the loop's time on a 2.1 GHz Xeon)
SAMPLES = 3             # loops per calibration point between in-process jobs
WINDOW_S = 0.2          # a job's speed comes from the points this close to it
TRIM = 0.2              # share of loop times cut from each end before averaging


def _loop():
    table = {}
    total = 0
    for i in range(9000):
        total += i * i % 7
        table[i & 255] = (total, i)
    ordered = sorted(table.values(), key=lambda pair: -pair[0])
    q = Fraction(1, 3)
    for i in range(90):
        q = q * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
    return len(ordered), q


def point(samples=SAMPLES):
    """One calibration point: [when it started, [times of the loops]]."""
    at = time.perf_counter()
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _loop()
        out.append(time.perf_counter() - t0)
    return [at, out]


def at_reference(times, points, window=WINDOW_S):
    """Times at reference speed; points[i] and points[i + 1] bracket times[i].

    The machine's speed during job i is the trimmed mean loop time of every
    point that starts within ``window`` seconds of the job (the two
    bracketing points at least).  Pooling a few neighbours steadies the
    estimate for short jobs; trimming drops a loop that was preempted, and
    the mean (not the median) follows a machine that flips between a fast
    and a slow speed several times a second, as shared hosts do.
    """
    if len(points) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} calibration points")
    starts = [at for at, _ in points]
    out = []
    lo = 0
    for i, t in enumerate(times):
        begin, end = starts[i] - window, starts[i + 1] + window
        while starts[lo] < begin:
            lo += 1
        hi = i + 1
        while hi + 1 < len(points) and starts[hi + 1] <= end:
            hi += 1
        samples = [s for _, loops in points[lo:hi + 1] for s in loops]
        out.append(t * REF_SAMPLE_S / trimmed_mean(samples))
    return out


def trimmed_mean(values):
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])
