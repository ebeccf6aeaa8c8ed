"""A list that counts its mutations, for version-keyed caches.

Aggregates over a growing list (a job's iteration outcomes, a sweep's
records) are recomputed constantly by report tables. Caching them needs an
invalidation key, and ``len()`` alone is not one: replacing an element at an
unchanged length would serve stale totals. :class:`CountingList` bumps a
``version`` counter on *every* mutating operation, so ``(version, len)`` is
a sound cache key — the pattern :class:`~repro.simulation.job.JobResult` and
:class:`~repro.api.sweep.SweepResult` both build on.
"""

from __future__ import annotations

__all__ = ["MUTATING_METHODS", "CountingList"]

#: Every ``list`` method that changes the list in place.
MUTATING_METHODS = (
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
)


class CountingList(list):
    """A list whose ``version`` attribute counts its mutations."""

    # Class-level default: unpickling rebuilds the list through append()
    # before __init__ runs, so the counter must resolve without an instance
    # attribute.
    version = 0

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.version = 0


def _make_counting(name: str):
    method = getattr(list, name)

    def counting(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        self.version += 1
        return result

    counting.__name__ = name
    return counting


for _name in MUTATING_METHODS:
    setattr(CountingList, _name, _make_counting(_name))
del _name
