"""Machine-speed sampling, so that timings from a shared host compare.

On a host shared with other tenants the same body of work takes from 1x
to 2x its time, in phases of seconds to minutes, and the process's own CPU
time stretches with it (the slowdown is contention for the core and its
caches, not time stolen from the process).  No window of a run is sure to
be a fast one, so neither the median nor the minimum of raw body times is
steady from run to run.

What is steady is the ratio of a body's time to the time of a fixed piece
of reference work run at the same moments.  ``Sampler`` runs a calibration
chunk from a SIGALRM handler every ``interval`` seconds while a timed body
runs, so the chunks see the same contention as the body.  The chunks' own
time is subtracted from the body's, and the body's time is scaled by the
mean speed the chunks measured, relative to a reference machine on which
one chunk takes ``REFERENCE_CHUNK_S``.  The result is in seconds at that
reference speed; the raw times are kept beside it.

Contention slows interpreted code and memory traffic by different
amounts, so each workload samples with the chunk that resembles what it
spends its time on.  The chunks are fixed code that calls nothing of
hasd, so a change to hasd cannot change them.
"""

import signal
import statistics
import time

# one calibration chunk takes this long on the reference machine
REFERENCE_CHUNK_S = 1e-3
# chunks run just before and just after a timed block, so that a block
# shorter than the sampling interval still gets a speed
AROUND = 3

_state = {}


def _arrays() -> dict:
    if not _state:
        import numpy as np
        from scipy.special import logsumexp
        rng = np.random.default_rng(12345)
        _state.update(np=np, logsumexp=logsumexp,
                      M=rng.standard_normal((64, 64)),
                      v=rng.standard_normal(64),
                      row=rng.standard_normal(200),
                      big=rng.standard_normal(1 << 19))     # 4 MB
    return _state


def _mul_add(a, b):
    return a * b + 1.0


def python_chunk(n: int = 4000) -> float:
    """Pure interpreted Python (calls and a dict); imports nothing, so it
    can time a set-up that starts with the imports."""
    d = {}
    s = 0.0
    for i in range(n):
        s += _mul_add(i, 0.5)
        d[i & 63] = s
    return s + sorted(d.values())[0]


def interpreter_chunk() -> float:
    """Interpreted Python, and scipy's logsumexp on a short row, whose cost
    is nearly all Python-level dispatch."""
    a = _arrays()
    s = 0.0
    for _ in range(3):
        s += float(a["logsumexp"](a["row"]))
    return s + python_chunk(2000)


def memory_chunk() -> float:
    """Memory traffic: passes over a 4 MB array, beside small matvecs."""
    a = _arrays()
    np, M, v, big = a["np"], a["M"], a["v"], a["big"]
    s = float(big.sum()) + float(big[::8].sum())
    for _ in range(30):
        w = M @ v
        s += float(np.exp(w - w.max()).sum())
    return s


CHUNKS = {"python": python_chunk, "interpreter": interpreter_chunk,
          "memory": memory_chunk}


class Sampler:
    """Times a stretch of code and samples the machine's speed during it.

        sampler = Sampler("interpreter", 0.05)
        with sampler:
            body()
        sampler.raw_s, sampler.normalised_s

    ``raw_s`` is the wall time of the block less the chunks run inside it;
    ``normalised_s`` is ``raw_s`` times the mean speed of those chunks and
    of the ``AROUND`` chunks run just before and just after the block,
    relative to ``REFERENCE_CHUNK_S``.  The timer is real (wall-clock)
    time, so the samples are spread evenly over the block's wall time and
    their mean speed is the block's mean speed.
    """

    def __init__(self, kind: str, interval: float):
        self.chunk = CHUNKS[kind]
        self.interval = interval
        self.samples = []
        self.raw_s = self.normalised_s = None

    def _timed_chunk(self):
        t0 = time.perf_counter()
        self.chunk()
        self.samples.append(time.perf_counter() - t0)

    def _handler(self, signum, frame):
        self._timed_chunk()

    def __enter__(self):
        self.chunk()                             # warm-up, untimed
        self.samples = []
        for _ in range(AROUND):
            self._timed_chunk()
        self._inside = len(self.samples)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        inside = self.samples[self._inside:]
        for _ in range(AROUND):
            self._timed_chunk()
        self.raw_s = elapsed - sum(inside)
        self.speed = statistics.fmean(REFERENCE_CHUNK_S / s for s in self.samples)
        self.normalised_s = self.raw_s * self.speed
        return False
