"""The host's speed, sampled with a fixed pure-Python kernel.

On a shared host the same work takes more or less time as the load of other
tenants comes and goes.  On a shared 2-vCPU virtual machine one pass of
dra_high_degree took 3.0-5.2 s within two minutes, in phases of a few
seconds to minutes, some longer than a whole run.  A median over a run's
passes cannot remove a phase that long.  The engine slows down in about the
same proportion as this kernel, so a pass times the kernel while it runs and
its times are scaled by ``NOMINAL_S`` over the kernel's median time in that
pass.  They read as the seconds the work takes on a host where the kernel
takes ``NOMINAL_S``.  The raw times stay in the run record.

The kernel is a loop of small-integer arithmetic.  It needs no part of the
engine, so no change to the engine moves it.  Two sets of passes measured
the choice of kernel.  In one, 18 passes each of gwa_native and dra_random
within six minutes varied by 18 % and 14 % (coefficient of variation); in
the other, 8 passes each of dra_high_degree, gwa_native and dra_random
varied by 22 %, 17 % and 15 %.  Scaled by this kernel they varied by 9 % and
7 %, and by 7 %, 4 % and 7 %.  Kernels that allocated small containers,
multiplied big integers, called small functions or walked 8 MiB did no
better or were less steady from one set to the other.  A walk through
256 KiB of list cells tracked better within each set, but in a check of
whole runs its time moved by 40 % from one process to the next, whatever
the engine did, presumably with where its memory landed.  The scaling is
not exact: the engine and the kernel feel other tenants' load in somewhat
different proportions, and those proportions change over minutes.
"""

import signal
import time

# About the kernel's median time on a 2-vCPU Intel Xeon virtual machine
# with little other load; it only fixes the scale of the scaled times.
NOMINAL_S = 0.00015
# The kernel runs once every PERIOD_S of wall time while a sampler runs.
PERIOD_S = 0.01
_ITER = 2000


def kernel():
    s = 0
    for i in range(_ITER):
        s += i * i % 7
    return s


def _time_kernel(out: list) -> float:
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    out.append(dt)
    return dt


class Sampler:
    """Times the kernel from a timer signal, every PERIOD_S while started,
    so that the samples cover the operations themselves.  ``paused`` adds
    up the time the samples took, which an operation's timer subtracts."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        self.paused += _time_kernel(self.samples)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(samples: list) -> float:
    """The factor that turns a pass's measured times into scaled ones.
    (The median is written out, so that a probe that imports this module
    before the engine does not also import ``statistics``.)"""
    s = sorted(samples)
    n = len(s)
    return NOMINAL_S / ((s[(n - 1) // 2] + s[n // 2]) / 2)
