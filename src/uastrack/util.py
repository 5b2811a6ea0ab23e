"""Small numeric helpers shared across modules, and the lazily started thread pool."""

from __future__ import annotations

import math
import os
import threading

import numpy as np


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero (sign-symmetric)."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def clamp(x, lo, hi):
    return max(lo, min(hi, x))


def to_gray(values: np.ndarray, lo: float = 0.0, hi: float = 255.0) -> np.ndarray:
    """``values`` rounded half up and clipped to [lo, hi], as uint8.

    Works in place on the float array ``values``: it adds 0.5, clips, and
    truncates in the cast. With ``lo >= 0`` nothing is negative after the
    clip, so the truncation equals the floor of x + 0.5.
    """
    values += 0.5
    np.clip(values, lo, hi, out=values)
    return values.astype(np.uint8)


class LazyPool:
    """A thread pool started on first use, not at import, and dropped in a forked child.

    A child of ``os.fork`` inherits the started pool object but none of its
    threads, so work submitted there would wait forever. The child forgets
    the pool (and a lock another thread may have held at the fork) and
    starts its own on first use.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._forget()
        if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._pool = None
        self._lock = threading.Lock()

    def get(self, workers: int):
        """The pool, started with ``workers`` threads if this is its first use."""
        with self._lock:
            if self._pool is None:
                # imported here: importing it and starting threads cost a few ms
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(workers, thread_name_prefix=self._name)
            return self._pool
