"""Measurement specifications and results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dns.message import Rcode
from repro.dns.rr import RRType
from repro.netmodel.addr import IPAddress


class MeasurementTarget(enum.Enum):
    """Where a probe sends its DNS query."""

    #: The probe's locally configured recursive resolver (the default,
    #: and what exposes resolver-level blocking).
    LOCAL_RESOLVER = "local"
    #: Straight at the authoritative name server, bypassing resolvers.
    AUTHORITATIVE = "authoritative"


@dataclass(frozen=True, slots=True)
class DnsMeasurementSpec:
    """One one-off DNS measurement across many probes."""

    domain: str
    rtype: RRType
    target: MeasurementTarget = MeasurementTarget.LOCAL_RESOLVER
    #: None = all connected probes; otherwise an explicit probe set.
    probe_ids: tuple[int, ...] | None = None
    description: str = ""


@dataclass(frozen=True, slots=True)
class ProbeDnsResult:
    """One probe's outcome for a DNS measurement."""

    probe_id: int
    asn: int
    country: str
    #: None when the query timed out (no DNS response at all).
    rcode: Rcode | None
    addresses: tuple[IPAddress, ...] = ()
    timed_out: bool = False

    @property
    def succeeded(self) -> bool:
        """NOERROR with at least one answer address."""
        return self.rcode == Rcode.NOERROR and bool(self.addresses)

    @property
    def failed_with_response(self) -> bool:
        """The resolver answered, but resolution did not produce data."""
        return not self.timed_out and not self.succeeded


@dataclass
class DnsMeasurementResult:
    """All probe results of one measurement."""

    spec: DnsMeasurementSpec
    started_at: float
    results: list[ProbeDnsResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def distinct_addresses(self) -> set[IPAddress]:
        """All distinct answer addresses across probes.

        Replies share each relay rotation's address tuple, so thousands
        of results hold a few hundred tuples: dedupe those by identity
        before hashing any address.
        """
        windows = {id(r.addresses): r.addresses for r in self.results}
        return set().union(*windows.values())

    def timeouts(self) -> list[ProbeDnsResult]:
        """Probes whose query received no response."""
        return [r for r in self.results if r.timed_out]

    def failures_with_response(self) -> list[ProbeDnsResult]:
        """Probes that got a response but no usable resolution."""
        return [r for r in self.results if r.failed_with_response]

    def successes(self) -> list[ProbeDnsResult]:
        """Probes that resolved the domain."""
        return [r for r in self.results if r.succeeded]

    def rcode_breakdown(self) -> dict[str, int]:
        """Counts per response code among failures-with-response."""
        counts: dict[str, int] = {}
        for result in self.failures_with_response():
            assert result.rcode is not None
            # NOERROR failures are NOERROR-with-no-data responses.
            counts[result.rcode.name] = counts.get(result.rcode.name, 0) + 1
        return counts
