"""Oblivious DNS over HTTPS through the relay (Appendix B).

The paper's Appendix B observations:

* With an active relay connection, the system **ignores the local DNS
  resolver** and resolves through an oblivious DoH server — identified
  as Cloudflare's public resolver — reached through the first relay.
* Queries travel encrypted through the ingress (which therefore cannot
  read them) and go *directly* to the DoH server, not through the
  egress.
* The client can learn its **egress IP address** and attach it as the
  ECS client subnet, so responses are optimised for where its traffic
  will exit — not for where the client actually sits.

:class:`ObliviousDnsPath` models this: it wraps the DoH resolver and a
relay session, enforces the visibility rules (the resolver sees the
ingress address as transport source, never the client), and implements
the egress-based ECS optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RelayError
from repro.dns.message import DnsMessage
from repro.dns.name import DnsName
from repro.dns.resolver import Resolver
from repro.dns.rr import RRType
from repro.netmodel.addr import IPAddress, Prefix


@dataclass(frozen=True, slots=True)
class ObliviousQueryRecord:
    """What each party observed for one oblivious query."""

    #: Transport source the DoH resolver saw (the ingress relay).
    resolver_saw: IPAddress
    #: ECS subnet attached to the query (egress-derived), if any.
    ecs_source: Prefix | None
    #: Whether the ingress could read the question (never).
    ingress_read_question: bool


@dataclass
class ObliviousDnsPath:
    """DNS resolution for a client with an active relay session."""

    doh_resolver: Resolver
    ingress_address: IPAddress
    egress_address: IPAddress
    #: Provider label of the DoH service (the paper identified
    #: Cloudflare's public resolver).
    provider: str = "Cloudflare"
    log: list[ObliviousQueryRecord] = field(default_factory=list)

    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        optimise_for_egress: bool = True,
    ) -> DnsMessage:
        """Resolve obliviously through the relay.

        With ``optimise_for_egress`` the client includes its egress
        address as the ECS subnet, so the answer is optimised for the
        egress location (Appendix B's optimisation).
        """
        client_hint = self.egress_address if optimise_for_egress else None
        response = self.doh_resolver.resolve(
            name, rtype, client_address=client_hint
        )
        ecs_source = None
        if response.client_subnet is not None:
            ecs_source = response.client_subnet.source
        self.log.append(
            ObliviousQueryRecord(
                resolver_saw=self.ingress_address,
                ecs_source=ecs_source,
                ingress_read_question=False,
            )
        )
        return response

    def resolve_addresses(
        self, name: DnsName | str, rtype: RRType, optimise_for_egress: bool = True
    ) -> tuple[IPAddress, ...]:
        """Resolve and return the answer addresses."""
        return self.resolve(name, rtype, optimise_for_egress).answer_addresses()


def oblivious_path_for_session(session, doh_resolver: Resolver) -> ObliviousDnsPath:
    """Build the oblivious path for an established relay session."""
    if session is None:
        raise RelayError("oblivious DoH requires an active relay session")
    return ObliviousDnsPath(
        doh_resolver=doh_resolver,
        ingress_address=session.ingress_address,
        egress_address=session.egress_address,
    )
