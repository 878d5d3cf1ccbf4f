"""Machine-speed probes, so times can be reported in reference seconds.

On a virtual machine that shares its cores with other work (the 2-vCPU,
2.0 GHz Xeon VM the baseline was measured on), the same code runs at one
speed or at about 0.6 times that speed, switching within fractions of a
second, and that drift is not the program's doing.  So a child process
runs ``probe``, a fixed fraction of a millisecond of interpreter work, on
a timer signal every PERIOD_S seconds while it measures: the probes run
on the same core at the same moments as the program.  The benchmark
subtracts the probes' own time and scales what is left by
REFERENCE_S / (median probe time): seconds on a machine where one probe
takes REFERENCE_S.

The probe is built to move with the core's speed, not with the program
around it.  Checks on that VM:

- It works on a few local integers, so the program's use of the caches
  hardly slows it.  After a 32 MB sweep of memory it took 1% less time
  than right after itself; a probe over half a megabyte of lists took
  21% more, and would have hidden part of any change to the program's
  working set.
- The median, not the mean, of its times is used, so the odd probe that
  waits for the interpreter lock does not count.  With a busy thread in
  the worker, raw passes took 3.1 (corpus) and 2.5 (verify) times as
  long, scaled passes 2.9 and 2.2 times: most of a process-wide slowdown
  shows, not all.  A busy second core alone slowed the probe by up to
  8%.
- Holding 15 MB more of live lists through the pass moved the scaled
  times by 1% (corpus) and 2% (verify), within their noise.

Scaled times of repeated passes over one input varied by 4-6% where raw
times varied by 10-16%.  Probing between child processes instead,
outside the program, tracked the drift too coarsely: the scaled times of
sd2rp2_verify then varied by 16%, its raw times by 6%.
"""

import signal
import time

#: seconds one probe takes on the 2-core, 2.0 GHz Xeon VM the baseline
#: was measured on, in its faster state
REFERENCE_S = 0.00025
#: seconds of wall time between probes while a child measures
PERIOD_S = 0.025
#: interpreter steps in one probe
STEPS = 2500


def probe():
    """Seconds a fixed amount of arithmetic on local integers takes now."""
    start = time.perf_counter()
    x = 1
    for i in range(STEPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


class Probing:
    """Context that runs ``probe`` every PERIOD_S seconds on SIGALRM and
    collects the probe times, at least one, in the list it returns."""

    def __init__(self):
        self.times = []

    def _on_alarm(self, signum, frame):
        self.times.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self.times

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a pass shorter than PERIOD_S
            self.times.append(probe())
