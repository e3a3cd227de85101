"""The client device (a macOS laptop with Private Relay enabled).

Reproduces the measurement client of Section 3: a device that resolves
``mask.icloud.com`` (falling back to ``mask-h2.icloud.com``) through its
configured DNS, connects through the chosen ingress, and issues
requests with Safari or curl to observation servers.

Two DNS configurations mirror the paper's two scan variants:

* **open** — queries go to a recursive resolver, so ingress addresses
  come live from the authoritative name servers;
* **fixed** — a local unbound-style resolver serves a custom local zone
  pinning the relay domains to chosen addresses, forcing a specific
  ingress relay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConnectionFailed, RelayUnavailable, ResolutionTimeout
from repro.dns.name import DnsName
from repro.faults.plan import fault_key
from repro.dns.resolver import Resolver
from repro.dns.rr import RRType
from repro.netmodel.addr import IPAddress
from repro.netmodel.geo import GeoPoint
from repro.relay.ingress import RelayProtocol
from repro.relay.service import (
    RELAY_DOMAIN_FALLBACK,
    RELAY_DOMAIN_QUIC,
    PrivateRelayService,
    RelaySession,
)


class RequestTool(enum.Enum):
    """The user agent issuing a request (each opens its own connection)."""

    SAFARI = "safari"
    CURL = "curl"


@dataclass
class DnsConfig:
    """The client's DNS setup: open resolution or a fixed local zone."""

    resolver: Resolver | None = None
    fixed_records: dict[tuple[str, RRType], list[IPAddress]] = field(
        default_factory=dict
    )

    @classmethod
    def open(cls, resolver: Resolver) -> "DnsConfig":
        """Resolve live through a recursive resolver."""
        return cls(resolver=resolver)

    @classmethod
    def fixed(cls, records: dict[tuple[str, RRType], list[IPAddress]]) -> "DnsConfig":
        """Serve the relay domains from a pinned local zone.

        Keys are (domain, record type); domains are normalised to their
        dotted-FQDN form.
        """
        normalised = {
            (str(DnsName.parse(name)), rtype): list(addresses)
            for (name, rtype), addresses in records.items()
        }
        return cls(fixed_records=normalised)

    @property
    def is_fixed(self) -> bool:
        """Whether a local zone overrides live resolution."""
        return bool(self.fixed_records)

    def lookup(self, name: str, rtype: RRType) -> list[IPAddress]:
        """Resolve ``name`` under this configuration.

        Raises :class:`ResolutionTimeout` when the resolver never
        answers; returns an empty list for blocked/NXDOMAIN outcomes.
        """
        key = (str(DnsName.parse(name)), rtype)
        if self.is_fixed:
            return list(self.fixed_records.get(key, []))
        if self.resolver is None:
            raise RelayUnavailable("client has no DNS configuration")
        return self.resolver.resolve_addresses(name, rtype)


@dataclass(frozen=True, slots=True)
class RequestObservation:
    """What one relayed request looked like from both ends."""

    timestamp: float
    tool: RequestTool
    protocol: RelayProtocol
    ingress_address: IPAddress
    ingress_asn: int
    egress_operator_asn: int
    egress_address: IPAddress
    egress_asn: int
    body: str


@dataclass
class RelayClient:
    """One Private Relay client device."""

    service: PrivateRelayService
    address: IPAddress
    asn: int
    country: str
    location: GeoPoint | None
    dns: DnsConfig
    preserve_location: bool = True
    #: Connection attempts per protocol before a transient
    #: (fault-injected) failure is given up on.  Real device behaviour:
    #: a handshake timeout is retried a couple of times with backoff
    #: before Safari surfaces an error.
    max_connect_attempts: int = 3
    #: (address, its text, its fault key), recomputed only when
    #: ``address`` is reassigned — every connection needs both keys.
    _keys: tuple[IPAddress, str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _client_keys(self) -> tuple[str, int]:
        """The connection key (the address's text) and its fault key."""
        keys = self._keys
        if keys is None or keys[0] is not self.address:
            text = str(self.address)
            keys = self._keys = (self.address, text, fault_key(text))
        return keys[1], keys[2]

    def resolve_ingress(
        self, protocol: RelayProtocol = RelayProtocol.QUIC, version: int = 4
    ) -> list[IPAddress]:
        """Resolve the relay domain for a protocol and address family."""
        domain = (
            RELAY_DOMAIN_QUIC
            if protocol is RelayProtocol.QUIC
            else RELAY_DOMAIN_FALLBACK
        )
        rtype = RRType.for_ip_version(version)
        return self.dns.lookup(domain, rtype)

    def _establish(
        self, target_authority: str, target_port: int, version: int
    ) -> RelaySession:
        """Resolve, pick an ingress, connect — with TCP fallback."""
        last_error: Exception | None = None
        for protocol in (RelayProtocol.QUIC, RelayProtocol.TCP_FALLBACK):
            try:
                addresses = self.resolve_ingress(protocol, version)
            except ResolutionTimeout as exc:
                last_error = exc
                continue
            if not addresses:
                last_error = RelayUnavailable(
                    f"DNS returned no {protocol.value} ingress addresses "
                    "(service blocked?)"
                )
                continue
            # Clients use the first returned record; the dynamic zone
            # rotates record order, spreading clients across the pod.
            ingress = addresses[0]
            return self._connect_with_retry(
                ingress, target_authority, target_port, protocol
            )
        raise last_error if last_error is not None else RelayUnavailable(
            "relay connection failed"
        )

    def _connect_with_retry(
        self,
        ingress: IPAddress,
        target_authority: str,
        target_port: int,
        protocol: RelayProtocol,
    ) -> RelaySession:
        """Connect, retrying transient failures with deterministic backoff.

        Only :class:`ConnectionFailed` (the fault plane's transient
        handshake failure) is retried; hard refusals — country blocks,
        inactive relays — propagate immediately.  Exhausting the attempt
        budget re-raises the last transient failure.
        """
        attempts = max(1, self.max_connect_attempts)
        registry = self.service.telemetry.registry
        plan = self.service.fault_plan
        client_key, key = self._client_keys()
        for attempt in range(1, attempts + 1):
            try:
                return self.service.connect(
                    client_address=self.address,
                    client_asn=self.asn,
                    client_country=self.country,
                    client_location=self.location,
                    ingress_address=ingress,
                    target_authority=target_authority,
                    target_port=target_port,
                    preserve_location=self.preserve_location,
                    client_key=client_key,
                    protocol=protocol,
                )
            except ConnectionFailed:
                if attempt >= attempts:
                    raise
                if registry.enabled:
                    registry.counter(
                        "relay.connect_retries", protocol=protocol.value
                    ).inc()
                if plan is not None:
                    self.service.clock.advance(
                        plan.backoff_wait(1.0, 2.0, 0.5, key, 0, attempt)
                    )
        raise RelayUnavailable("relay connection failed")  # pragma: no cover

    def request(
        self,
        target,
        tool: RequestTool = RequestTool.CURL,
        path: str = "/",
        version: int = 4,
    ) -> RequestObservation:
        """Issue one relayed request to an observation target.

        Every request opens a fresh relay connection (which is what makes
        the egress rotation observable per request).
        """
        session = self._establish(target.hostname, 80, version)
        body = session.fetch(target, path=path, tool=tool.value)
        return RequestObservation(
            timestamp=session.established_at,
            tool=tool,
            protocol=session.protocol,
            ingress_address=session.ingress_address,
            ingress_asn=session.ingress_asn,
            egress_operator_asn=session.egress_operator_asn,
            egress_address=session.egress_address,
            egress_asn=session.egress_asn,
            body=body,
        )

    def request_parallel(
        self, target_web, target_echo, version: int = 4
    ) -> tuple[RequestObservation, RequestObservation]:
        """The paper's scan round: Safari to the web server, curl to the
        echo service, issued back-to-back as parallel connections."""
        safari = self.request(target_web, RequestTool.SAFARI, version=version)
        curl = self.request(target_echo, RequestTool.CURL, path="/plain", version=version)
        return safari, curl
