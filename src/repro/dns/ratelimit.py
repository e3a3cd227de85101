"""Token-bucket rate limiting against the simulated clock.

The paper applies "a strict query rate limit" to all scans — strict
enough that one full ECS scan takes up to 40 hours.  The scanner drains
a :class:`TokenBucket` before each query; the bucket advances the shared
:class:`~repro.simtime.SimClock` to the moment a real scanner would have
been allowed to send, so scan durations (and the fleet churn that happens
during them) come out right without real sleeping.

The bucket is kept in closed (virtual-scheduling, GCRA) form, so one
formula answers a single take, a batch of takes, and how many takes fit
before a deadline — no per-take replay, no accumulated rounding.
"""

from __future__ import annotations

import math
import sys

from repro.errors import RateLimitExceeded
from repro.simtime import SimClock


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, capacity ``burst``.

    The bucket was last full at ``_anchor`` and ``_taken`` tokens have
    gone since, so the k-th of them is due at
    ``anchor + (k - burst) / rate`` and is served at ``max(now, due)``.
    """

    def __init__(self, rate: float, burst: float, clock: SimClock) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self._anchor = clock.now
        self._taken = 0.0
        self.total_waited = 0.0

    @property
    def tokens(self) -> float:
        """Tokens currently available (capped at ``burst``)."""
        held = self.burst - self._taken + (self.clock.now - self._anchor) * self.rate
        return held if held < self.burst else self.burst

    def take(self, count: float = 1.0) -> float:
        """Take tokens, advancing the simulated clock to when they are due.

        Returns the simulated seconds waited (0.0 when tokens were ready).
        """
        if count > self.burst:
            raise RateLimitExceeded(
                f"requested {count} tokens exceeds burst capacity {self.burst}"
            )
        # take_many()'s body, inlined: this runs once per fault-gated query.
        clock = self.clock
        now = clock.now
        anchor = self._anchor
        taken = self._taken
        if (now - anchor) * self.rate >= taken:  # full: re-anchor at now
            self._anchor = anchor = now
            taken = 0.0
        taken += count
        self._taken = taken
        due = anchor + (taken - self.burst) / self.rate
        if due <= now:
            return 0.0
        clock.advance_to(due)
        wait = due - now
        self.total_waited += wait
        return wait

    def take_many(self, count: int) -> float:
        """Take ``count`` unit tokens at once; returns the seconds waited.

        Leaves the clock and the bucket exactly where ``count`` calls of
        :meth:`take` would: the last take is served at ``max(now, due)``
        of the same formula, in O(1).
        """
        clock = self.clock
        now = clock.now
        anchor = self._anchor
        taken = self._taken
        if (now - anchor) * self.rate >= taken:
            self._anchor = anchor = now
            taken = 0.0
        taken += count
        self._taken = taken
        due = anchor + (taken - self.burst) / self.rate
        if due <= now:
            return 0.0
        clock.advance_to(due)
        wait = due - now
        self.total_waited += wait
        return wait

    def takes_before(self, deadline: float) -> int:
        """How many unit takes from now are served strictly before ``deadline``.

        Evaluates the same float formula as :meth:`take`, so the next
        take after that many is the first whose served time (and hence
        the clock after it) reaches ``deadline``.  Changes nothing.
        """
        now = self.clock.now
        if now >= deadline:
            return 0
        if deadline == math.inf:
            return sys.maxsize
        rate = self.rate
        burst = self.burst
        anchor = self._anchor
        taken = self._taken
        if (now - anchor) * rate >= taken:
            anchor = now
            taken = 0.0
        # Exact-arithmetic estimate, then settle on the float formula:
        # due times are monotone in the take count.
        k = max(0, int((deadline - anchor) * rate + burst - taken))
        while k and anchor + (taken + k - burst) / rate >= deadline:
            k -= 1
        while anchor + (taken + k + 1 - burst) / rate < deadline:
            k += 1
        return k
