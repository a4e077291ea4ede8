"""Shape/dtype-keyed buffer reuse for the solver hot loops.

ROADMAP item 2: the ALLOC6xx static pass
(:mod:`repro.analysis.alloc`) and its DYN207 runtime twin name the
ADMM z-update as the hottest allocation site in the package — eight
fresh ``p``-vectors per iteration, thousands of iterations per
(bootstrap, λ) subproblem.  This module provides the fix, in the
style of fv3gfs-util's ``Buffer.get_from_cache``:

* a module-level **cache** keyed by ``(shape, dtype)`` hands out
  retained ndarrays (:func:`take`) and accepts them back
  (:func:`give`), so buffers survive across solves of the same
  geometry — the dominant case along a regularization path, where
  every λ shares one ``p``;
* a :class:`Workspace` bundles *named* slots for one solver instance:
  ``ws.array("z", p)`` returns the same buffer on every call with the
  same name/shape/dtype, taking from the cache on first use and
  giving everything back on :meth:`release` (or context exit).

Pooled buffers carry **no value guarantee** — callers must fully
overwrite them (every consumer in :mod:`repro.linalg` does, via
``out=`` forms).  Reuse changes *which memory* holds intermediates,
never the float operations performed on them, which is why the pooled
ADMM path is bitwise identical to the allocating one (asserted in
``tests/test_linalg_pool.py``).
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

import numpy as np

__all__ = ["Workspace", "take", "give", "clear_cache"]

#: (shape, dtype-str) -> retained free buffers (LIFO for locality).
_CACHE: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
_CACHE_LOCK = threading.Lock()
#: Per-key retention bound: a runaway geometry mix cannot pin
#: unbounded memory (beyond it, give() drops the buffer to the GC).
MAX_RETAINED_PER_KEY = 8


def _key(
    shape: int | tuple[int, ...], dtype: Any
) -> tuple[tuple[int, ...], str]:
    if isinstance(shape, int):
        shape = (shape,)
    return tuple(int(s) for s in shape), np.dtype(dtype).str


def take(shape: int | tuple[int, ...], dtype: Any = float) -> np.ndarray:
    """A buffer of the requested geometry: cached if one is free,
    freshly allocated otherwise.  Contents are arbitrary."""
    key = _key(shape, dtype)
    with _CACHE_LOCK:
        free = _CACHE.get(key)
        if free:
            return free.pop()
    return np.empty(key[0], dtype=np.dtype(key[1]))


def give(array: np.ndarray) -> None:
    """Return a buffer to the cache for reuse.

    Only well-behaved buffers are retained (owning, C-contiguous —
    anything else would hand future takers a view aliasing live
    data); others are silently dropped.
    """
    if array.base is not None or not array.flags["C_CONTIGUOUS"]:
        return
    key = _key(array.shape, array.dtype)
    with _CACHE_LOCK:
        free = _CACHE.setdefault(key, [])
        if len(free) < MAX_RETAINED_PER_KEY:
            free.append(array)


def clear_cache() -> None:
    """Drop every retained buffer (tests start from an empty cache)."""
    with _CACHE_LOCK:
        _CACHE.clear()


class Workspace:
    """Named reusable slots for one solver instance.

    >>> ws = Workspace()
    >>> z = ws.array("z", 100)        # fresh (or cached) buffer
    >>> z is ws.array("z", 100)       # same buffer every call
    True
    >>> ws.release()                  # all slots back to the cache

    A name whose requested geometry changes is transparently swapped
    (old buffer given back, new one taken), so warm-started solvers
    that re-fit with a different support size keep working.
    """

    def __init__(self) -> None:
        self._slots: dict[str, np.ndarray] = {}

    def array(
        self, name: str, shape: int | tuple[int, ...], dtype: Any = float
    ) -> np.ndarray:
        """The buffer bound to ``name`` (contents arbitrary — callers
        must overwrite)."""
        want = _key(shape, dtype)
        have = self._slots.get(name)
        if have is not None:
            if _key(have.shape, have.dtype) == want:
                return have
            give(have)
        fresh = take(want[0], want[1])
        self._slots[name] = fresh
        return fresh

    def swap(self, a: str, b: str) -> None:
        """Exchange two slots' buffers (the classic ``z, z_old``
        rotation without a copy)."""
        self._slots[a], self._slots[b] = (
            self._slots[b],
            self._slots[a],
        )

    def release(self) -> None:
        """Give every slot back to the module cache."""
        for array in self._slots.values():
            give(array)
        self._slots.clear()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)
