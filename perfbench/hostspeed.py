"""Host-speed calibration: a fixed kernel timed next to the measurements.

On a shared host the processor's speed drifts, by up to 1.6x for minutes
at a time and by 30% within a minute, and CPU time drifts with it. A run
therefore times a fixed kernel, made of the same kind of work as
answering a question (interpreted loops over dicts of tokens, JSON
decoding), between the one-second slices of its timed window. Dividing a
measured CPU time by the median kernel CPU time around it, and
multiplying by ``REFERENCE_S``, gives the time at a reference speed: the
speed at which one kernel run takes ``REFERENCE_S``. On a 2-core Xeon VM,
over two sets of 10 runs, in-process CPU time per answer rescaled this
way spread 0.026 and 0.042 ((Q3 - Q1) / median), against 0.28 and 0.11
unscaled.

The kernel is benchmark code and never changes with the package, so a
faster or slower package moves the rescaled times as it moves the raw
ones.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

REFERENCE_S = 0.030  # kernel time at the reference speed
RUNS = 3  # kernel runs per calibration point

_rng = random.Random(0)
_WORDS = [f"w{_rng.randrange(5000)}" for _ in range(40_000)]
_DOC = json.dumps([
    {"id": i, "tokens": _WORDS[i * 40 : (i + 1) * 40], "w": [_rng.random() for _ in range(10)]}
    for i in range(1000)
])


def _kernel() -> float:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    total = 0.0
    for doc in json.loads(_DOC):
        for token in doc["tokens"]:
            total += counts[token] * 0.5
    return total


def kernel_times(cpu: int, runs: int = RUNS) -> list[float]:
    """CPU seconds of ``runs`` kernel runs, the calling thread held on ``cpu``.

    The two processors of a shared VM can run at different speeds, so the
    kernel runs on the processor the measured work runs on.
    """
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(runs):
            start = time.thread_time()
            _kernel()
            times.append(time.thread_time() - start)
    finally:
        os.sched_setaffinity(0, saved)
    return times


def scale(kernel_s: list[float]) -> float:
    """Factor taking a time measured among these kernel runs to the reference speed."""
    return REFERENCE_S / statistics.median(kernel_s)
