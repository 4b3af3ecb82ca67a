"""The one bounded memo every cached intermediate in the package uses.

The service engine's per-profile and per-``(profile, delta)`` entries,
the interval DP's full-result memos and the crack-session table are all
the same structure: a small least-recently-used mapping, shared between
worker threads, that forgets its oldest entry once it is full.
:class:`BoundedLRU` is that structure, once.

A memoized value may itself be ``None`` (a skipped attack summary is a
result worth remembering), so :meth:`BoundedLRU.get` returns the
:data:`MISSING` sentinel on a miss rather than ``None``.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from typing import Final, Generic, Literal, TypeVar

__all__ = ["MISSING", "BoundedLRU", "Missing"]


class _Missing(enum.Enum):
    MISSING = "MISSING"


#: The type of :data:`MISSING`, for annotations.
Missing = Literal[_Missing.MISSING]

#: What :meth:`BoundedLRU.get` and :meth:`BoundedLRU.pop` return for an
#: absent key; test it with ``is``.
MISSING: Final = _Missing.MISSING

_K = TypeVar("_K")
_V = TypeVar("_V")


class BoundedLRU(Generic[_K, _V]):
    """A thread-safe mapping of at most *capacity* entries, evicting the
    least recently used.

    ``hits`` and ``misses`` count :meth:`get` look-ups since creation or
    the last :meth:`clear`.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[_K, _V] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: _K) -> _V | Missing:
        """The value under *key*, now the most recent, or :data:`MISSING`."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return MISSING
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: _K, value: _V) -> None:
        """Store *value* as the most recent entry, evicting the oldest if full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def pop(self, key: _K) -> _V | Missing:
        """Remove and return the value under *key*, or :data:`MISSING`."""
        with self._lock:
            return self._data.pop(key, MISSING)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
