"""Hit/miss counters for the fast-path caches.

Every cache added by the scan fast path (name interning, per-epoch
answer tables, zone routing, origin memoisation, assignment memoisation)
exposes one of these so the perf harness — and the telemetry exporter —
can observe cache effectiveness without poking at cache internals.

:class:`CacheStats` is a thin adapter over
:class:`repro.telemetry.registry.Counter` instruments: the public
attribute API (``stats.hits += 1``) is unchanged from the original
dataclass, but the underlying counters can be *adopted* by a
:class:`~repro.telemetry.registry.MetricsRegistry` so a telemetry
snapshot sees the live values with zero extra accounting on the hot
path.  Hot loops (e.g. :class:`~repro.dns.answer_cache.ScopeAnswerCache`)
may also grab :meth:`counter` once and bump ``.value`` directly, which
costs exactly what the old dataclass attribute increment cost.

The counter *objects* are part of the contract: :meth:`reset` and the
attribute setters mutate counter values in place and never replace the
counter objects, so references hoisted by hot loops or adopted by a
registry stay live for the lifetime of the stats object.

:func:`gc_paused` is the one cyclic-GC pause every hot phase shares
(world build, the scan kernel, sharded scans, delta rounds); see
DESIGN.md §5 "GC policy".
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.registry import Counter


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend cyclic GC for a block of acyclic allocations.

    The block's objects are freed by refcounting alone, so the young
    collections their allocations would set off find nothing.  Nests
    safely: only the outermost pause re-enables, and a caller that had
    GC off finds it off afterwards.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class CacheStats:
    """Counts cache hits and misses (and explicit invalidations)."""

    __slots__ = ("_hits", "_misses", "_invalidations")

    #: Field names, in declaration order (drives merge/reset/snapshot).
    _FIELDS = ("hits", "misses", "invalidations")

    def __init__(
        self, hits: int = 0, misses: int = 0, invalidations: int = 0
    ) -> None:
        self._hits = Counter(hits)
        self._misses = Counter(misses)
        self._invalidations = Counter(invalidations)

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.value = value

    @property
    def misses(self) -> int:
        """Lookups that had to compute the result."""
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.value = value

    @property
    def invalidations(self) -> int:
        """Explicit cache flushes (epoch changes, zone edits)."""
        return self._invalidations.value

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self._invalidations.value = value

    def counter(self, field: str) -> Counter:
        """The live Counter behind ``field`` (for registry adoption).

        The returned object stays valid across :meth:`reset` — resets
        zero it in place.
        """
        if field not in self._FIELDS:
            raise KeyError(f"no such CacheStats field: {field!r}")
        return getattr(self, "_" + field)

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self._hits.value + self._misses.value

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.lookups
        return self._hits.value / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters (in place — hoisted references stay live)."""
        self._hits.value = 0
        self._misses.value = 0
        self._invalidations.value = 0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another counter set (shard-result aggregation)."""
        self._hits.value += other.hits
        self._misses.value += other.misses
        self._invalidations.value += other.invalidations

    def snapshot(self) -> dict[str, int | float]:
        """A JSON-friendly view (for the perf harness / observability)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (
            self.hits == other.hits
            and self.misses == other.misses
            and self.invalidations == other.invalidations
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )
