"""Ingress relay fleets.

The ingress layer is what the ECS scans enumerate.  Properties the model
must carry, straight from the paper's findings:

* Addresses live in exactly two ASes: Apple's AS714 and the
  relay-specific Akamai AS36183, across ~123 routed BGP prefixes.
* There are two fleets per address family: the **default** (QUIC)
  relays behind ``mask.icloud.com`` and the **fallback** (HTTP/2 over
  TCP) relays behind ``mask-h2.icloud.com``.  The fallback fleet started
  Apple-only and caught up at Akamai later.
* Fleets evolve: +34 % QUIC relays and +293 % fallback relays over the
  January–April observation window, with small churn on the Apple side.
* Answers are location-dependent: each relay belongs to a regional
  **pod**, and a client subnet is served by one pod (per operator).

Relays carry activation windows so a fleet query at simulated time ``t``
sees exactly the addresses deployed then — the mechanism behind both the
monthly Table 1 growth and the single address the RIPE Atlas scan saw
that the (40-hour-earlier) ECS scan did not.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from repro.errors import RelayError
from repro.netmodel.addr import IPAddress


class RelayProtocol(enum.Enum):
    """Which relay domain a fleet serves."""

    QUIC = "quic"  # mask.icloud.com (HTTP/3)
    TCP_FALLBACK = "tcp"  # mask-h2.icloud.com (HTTP/2 over TLS/TCP)


@dataclass(frozen=True, slots=True)
class IngressRelay:
    """One ingress relay address with its deployment window."""

    address: IPAddress
    asn: int
    protocol: RelayProtocol
    pod: str  # e.g. "EU-3": the regional serving pod
    active_from: float = 0.0
    active_until: float | None = None  # None = still active

    def is_active(self, at_time: float) -> bool:
        """Whether the relay is deployed at the given simulated time."""
        if at_time < self.active_from:
            return False
        return self.active_until is None or at_time < self.active_until


@dataclass
class IngressFleet:
    """All ingress relays of one address family."""

    version: int
    relays: list[IngressRelay] = field(default_factory=list)
    _by_pod: dict[tuple[str, RelayProtocol], list[IngressRelay]] = field(
        default_factory=dict, repr=False
    )
    _boundaries: list[float] | None = field(default=None, repr=False)
    _epoch_window: tuple[float, float, int] | None = field(default=None, repr=False)
    _active_cache: dict[tuple[int, RelayProtocol, int | None], list[IngressRelay]] = field(
        default_factory=dict, repr=False
    )
    _pod_cache: dict[tuple[int, str, RelayProtocol], list[IngressRelay]] = field(
        default_factory=dict, repr=False
    )
    _address_cache: dict[
        tuple[int, RelayProtocol | None, int | None], frozenset[IPAddress]
    ] = field(default_factory=dict, repr=False)
    _pods_sorted: list[str] | None = field(default=None, repr=False)
    #: Bumped on every composition change; epoch-derived caches held by
    #: *other* objects (the relay service's epoch-token window) key on it.
    epoch_generation: int = 0

    def add(self, relay: IngressRelay) -> IngressRelay:
        """Register a relay (address family must match the fleet)."""
        if relay.address.version != self.version:
            raise RelayError(
                f"IPv{relay.address.version} relay in IPv{self.version} fleet"
            )
        self.relays.append(relay)
        self._by_pod.setdefault((relay.pod, relay.protocol), []).append(relay)
        self._boundaries = None
        self._epoch_window = None
        self._active_cache.clear()
        self._pod_cache.clear()
        self._address_cache.clear()
        self._pods_sorted = None
        self.epoch_generation += 1
        return relay

    def deployment_epoch_window(self, at_time: float) -> tuple[float, float, int]:
        """``(lo, hi, epoch)``: the epoch containing ``at_time`` and its
        validity bounds — callers may reuse ``epoch`` for any time in
        ``[lo, hi)`` at the current :attr:`epoch_generation`."""
        epoch = self.deployment_epoch(at_time)
        window = self._epoch_window
        assert window is not None and window[2] == epoch
        return window

    def deployment_epoch(self, at_time: float) -> int:
        """Index of the deployment state containing ``at_time``.

        The fleet's composition only changes at relay activation and
        retirement timestamps; between two consecutive boundaries the set
        of active relays is constant, which callers exploit for caching.

        Queries cluster heavily in time (the clock advances in sub-second
        rate-limit steps), so the last boundary window is memoised and
        repeat calls inside it skip the bisect.
        """
        window = self._epoch_window
        if window is not None and window[0] <= at_time < window[1]:
            return window[2]
        boundaries = self._boundaries
        if boundaries is None:
            points = {r.active_from for r in self.relays}
            points.update(
                r.active_until for r in self.relays if r.active_until is not None
            )
            boundaries = self._boundaries = sorted(points)
        epoch = bisect.bisect_right(boundaries, at_time)
        lo = boundaries[epoch - 1] if epoch > 0 else float("-inf")
        hi = boundaries[epoch] if epoch < len(boundaries) else float("inf")
        self._epoch_window = (lo, hi, epoch)
        return epoch

    def active_cached(
        self,
        at_time: float,
        protocol: RelayProtocol,
        asn: int | None = None,
    ) -> list[IngressRelay]:
        """Like :meth:`active`, memoised per deployment epoch.

        The hot path: the relay DNS zone consults this on every query
        whose pod lacks relays of the assigned operator.
        """
        key = (self.deployment_epoch(at_time), protocol, asn)
        cached = self._active_cache.get(key)
        if cached is None:
            cached = self.active(at_time, protocol, asn)
            self._active_cache[key] = cached
        return cached

    def active(
        self,
        at_time: float,
        protocol: RelayProtocol | None = None,
        asn: int | None = None,
    ) -> list[IngressRelay]:
        """Relays deployed at ``at_time``, optionally filtered."""
        return [
            r
            for r in self.relays
            if r.is_active(at_time)
            and (protocol is None or r.protocol == protocol)
            and (asn is None or r.asn == asn)
        ]

    def active_addresses(
        self,
        at_time: float,
        protocol: RelayProtocol | None = None,
        asn: int | None = None,
    ) -> frozenset[IPAddress]:
        """Addresses of :meth:`active` relays, memoised per deployment epoch.

        Every relayed connection and QUIC probe tests its ingress address
        against this set, so it is built once per epoch, not per call.
        """
        key = (self.deployment_epoch(at_time), protocol, asn)
        cached = self._address_cache.get(key)
        if cached is None:
            cached = frozenset(
                r.address for r in self.active(at_time, protocol, asn)
            )
            self._address_cache[key] = cached
        return cached

    def pods(self) -> set[str]:
        """All pod labels present in the fleet."""
        return {pod for pod, _protocol in self._by_pod}

    def pods_sorted(self) -> list[str]:
        """All pod labels, sorted (cached; invalidated on :meth:`add`)."""
        if self._pods_sorted is None:
            self._pods_sorted = sorted(self.pods())
        return self._pods_sorted

    def pod_relays(
        self, pod: str, protocol: RelayProtocol, at_time: float
    ) -> list[IngressRelay]:
        """Active relays of one pod and protocol, insertion order."""
        return [
            r
            for r in self._by_pod.get((pod, protocol), [])
            if r.is_active(at_time)
        ]

    def pod_relays_cached(
        self, pod: str, protocol: RelayProtocol, at_time: float
    ) -> list[IngressRelay]:
        """Like :meth:`pod_relays`, memoised per deployment epoch."""
        key = (self.deployment_epoch(at_time), pod, protocol)
        cached = self._pod_cache.get(key)
        if cached is None:
            cached = self.pod_relays(pod, protocol, at_time)
            self._pod_cache[key] = cached
        return cached

    def asns(self, at_time: float) -> set[int]:
        """ASes with at least one active relay."""
        return {r.asn for r in self.relays if r.is_active(at_time)}

    def counts_by_asn(
        self, at_time: float, protocol: RelayProtocol
    ) -> dict[int, int]:
        """Active relay count per AS — the Table 1 cell values."""
        counts: dict[int, int] = {}
        for relay in self.active(at_time, protocol):
            counts[relay.asn] = counts.get(relay.asn, 0) + 1
        return counts
