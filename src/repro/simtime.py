"""Simulated wall clock.

Measurements in the paper span months (monthly ECS scans), days (relay
scan days), and hours (a single ECS scan takes up to 40 hours under rate
limiting).  Every component that needs time — scanners, relay fleets with
address churn, BGP history — shares a :class:`SimClock` instead of reading
the real clock, so experiments are deterministic and fast.

Timestamps are seconds since the simulation epoch (float).  Helpers convert
between calendar-style ``(year, month)`` pairs and epoch seconds using a
fixed 30-day month, which is sufficient for monthly-granularity analyses
such as BGP visibility history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_MONTH = 30 * SECONDS_PER_DAY

#: Calendar anchor for the simulation epoch: t=0 is 2016-01-01, matching the
#: start of the paper's BGP visibility examination window (2016 to 2022).
EPOCH_YEAR = 2016
EPOCH_MONTH = 1


def month_index(year: int, month: int) -> int:
    """Number of whole months between (year, month) and the epoch."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return (year - EPOCH_YEAR) * 12 + (month - EPOCH_MONTH)


def month_to_seconds(year: int, month: int) -> float:
    """Epoch seconds at the start of the given calendar month."""
    return month_index(year, month) * SECONDS_PER_MONTH


def seconds_to_month(timestamp: float) -> tuple[int, int]:
    """Calendar (year, month) containing the given epoch timestamp."""
    if timestamp < 0:
        raise ValueError(f"timestamp must be >= 0, got {timestamp}")
    idx = int(timestamp // SECONDS_PER_MONTH)
    year, month0 = divmod(idx + (EPOCH_MONTH - 1), 12)
    return EPOCH_YEAR + year, month0 + 1


def format_month(year: int, month: int) -> str:
    """Render a calendar month as ``YYYY-MM``."""
    return f"{year:04d}-{month:02d}"


@dataclass
class SimClock:
    """A monotonic simulated clock shared by simulation components.

    The clock only moves forward.  Components advance it explicitly —
    e.g. the ECS scanner advances it by the inter-query delay imposed by
    its rate limiter, so a full scan "takes" the right amount of simulated
    time and fleet churn during the scan becomes observable.
    """

    now: float = 0.0
    _observers: list = field(default_factory=list, repr=False)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot move clock backwards by {seconds}s")
        self.now += seconds
        for observer in self._observers:
            observer(self.now)
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute timestamp.

        Advancing to a timestamp in the past is an error; advancing to the
        current time is a no-op.  The clock lands on ``timestamp`` exactly
        (``now + (timestamp - now)`` may round away from it), which the
        rate limiter's closed-form schedule relies on.
        """
        if timestamp < self.now:
            raise ValueError(
                f"cannot move clock backwards: now={self.now}, target={timestamp}"
            )
        self.now = timestamp
        for observer in self._observers:
            observer(timestamp)
        return timestamp

    def reset_to(self, timestamp: float) -> float:
        """Set the clock to ``timestamp``, even backwards.

        Only for *replica* clocks: a shard worker process owns a forked
        copy of the world and rewinds its private clock to a scan's start
        slot before each task (its previous task may have left the copy
        ahead of the slot).  The authoritative campaign clock must never
        be rewound — use :meth:`advance_to` there.
        """
        if timestamp < 0:
            raise ValueError(f"cannot reset clock to negative time {timestamp}")
        self.now = timestamp
        for observer in self._observers:
            observer(self.now)
        return self.now

    def advance_to_month(self, year: int, month: int) -> float:
        """Move the clock to the start of a calendar month."""
        return self.advance_to(month_to_seconds(year, month))

    def subscribe(self, observer) -> None:
        """Register ``observer(now)`` to be called after every advance."""
        self._observers.append(observer)

    @property
    def calendar_month(self) -> tuple[int, int]:
        """The calendar (year, month) of the current simulated time."""
        return seconds_to_month(self.now)
