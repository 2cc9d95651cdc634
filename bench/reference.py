"""Fixed reference computations timed next to every workload call.

The host this benchmark runs on is shared: its speed swings by up to a
factor of two over tens of seconds, and the swing moves every iteration of a
run together. A call's wall time divided by the wall time of a reference
computation of the same kind, timed right before and right after it, cancels
most of that swing. On a 2-vCPU VM, over the same five ``table1`` runs, the
spread (interquartile range over median) was 0.17 in raw seconds and 0.018
in reference units.

The engine reference does per-stream key setup, word generation, decoding
and recursion in about the shares the run-length engine spends on them
(0.31, 0.18, 0.27, 0.24); a reference made mostly of key setup corrected
``table1`` less well (spread 0.053). The references use numpy and scipy
only, never ``aibmon``: a change to the program moves the ratio, a change of
host speed mostly does not. Their work is fixed and must stay fixed, or
ratios stop being comparable across commits.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.random import Philox, SeedSequence
from scipy.special import ndtr, ndtri

_STREAMS = 200
_WORDS = 512
_STATES = 401


def engine_unit() -> float:
    """Monte Carlo engine work in miniature: per-stream Philox keys, raw
    words, inverse-normal decode and an EWMA recursion over the columns."""
    gens = [Philox(SeedSequence(20211001, spawn_key=(i,))) for i in range(_STREAMS)]
    words = np.stack([g.random_raw(_WORDS) for g in gens])
    z = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    w = np.zeros(_STREAMS)
    done = np.zeros(_STREAMS, dtype=bool)
    for j in range(_WORDS):
        w = 0.1 * z[:, j] + 0.9 * w
        done |= np.abs(w) > 2.0
    return float(done.mean())


def oracle_unit() -> float:
    """Markov-chain oracle work in miniature: a normal-CDF transition matrix
    over 401 states and one dense solve of (I - Q) a = 1."""
    lam, h = 0.1, 0.56
    width = 2.0 * h / _STATES
    centers = -h + (np.arange(_STATES) + 0.5) * width
    carried = (1.0 - lam) * centers[:, None]
    q = ndtr((centers[None, :] + 0.5 * width - carried) / lam) - ndtr(
        (centers[None, :] - 0.5 * width - carried) / lam
    )
    a = np.linalg.solve(np.eye(_STATES) - q, np.ones(_STATES))
    return float(a[_STATES // 2])


UNITS = {"engine": engine_unit, "oracle": oracle_unit}


def time_reference(kind: str, repeats: int) -> float:
    """Wall seconds of ``repeats`` calls of the ``kind`` reference unit."""
    unit = UNITS[kind]
    start = time.perf_counter()
    for _ in range(repeats):
        unit()
    return time.perf_counter() - start
