"""The assembled world: one object wiring every subsystem together.

``build_world(config)`` produces a :class:`World` from which examples,
tests and benchmarks run the paper's measurement pipeline:

* ``world.route53`` — the ECS-aware authoritative server for the relay
  domains (the ECS scanner's target);
* ``world.atlas`` — the probe platform (validation / IPv6 / blocking);
* ``world.make_vantage_client(...)`` — a relay client at the vantage
  for scans through the relay;
* ``world.topology`` / ``world.history`` — for the Section 6 analyses;
* ``world.egress_list_may`` / ``world.egress_list_jan`` — the published
  egress snapshots for the Table 3/4 and figure analyses.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field

from repro.atlas.platform import AtlasPlatform
from repro.dns.name import DnsName
from repro.dns.rr import a_record
from repro.dns.server import AuthoritativeServer, EcsPolicy, NameServerRegistry
from repro.dns.whoami import WhoamiServer
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.bgp import BgpHistory
from repro.netmodel.geo import GeoPoint
from repro.netmodel.geodb import GeoDatabase
from repro.netmodel.topology import Topology
from repro.perfstats import gc_paused
from repro.relay.client import DnsConfig, RelayClient
from repro.relay.egress import EgressFleet
from repro.relay.egress_list import EgressList
from repro.relay.ingress import IngressFleet
from repro.relay.observer import EchoService, ObservationServer
from repro.relay.service import AssignmentMap, PrivateRelayService
from repro.simtime import SimClock, month_to_seconds
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.worldgen.config import WorldConfig
from repro.worldgen.deployment import (
    DeploymentGround,
    build_assignment,
    build_egress,
    build_geodb,
    build_history,
    build_ingress,
    build_pools,
    build_topology,
    scan_time,
)
from repro.netmodel.aspath import ASGraph
from repro.worldgen.asgraph import build_as_graph
from repro.worldgen.internet import (
    DNS_SERVICE_ASN,
    DNS_SERVICE_BLOCK,
    VANTAGE_ASN,
    InternetGround,
    build_internet,
)
from repro.worldgen.probes import build_probes

#: Control domain used to verify that blocking resolvers otherwise work.
CONTROL_DOMAIN = "example.org."
CONTROL_ADDRESS = "93.184.216.34"

#: The vantage's approximate location (Munich).
VANTAGE_LOCATION = GeoPoint(48.15, 11.57)


@dataclass
class World:
    """A fully wired simulated world."""

    config: WorldConfig
    clock: SimClock
    ground: InternetGround
    deployment: DeploymentGround
    service: PrivateRelayService
    ns_registry: NameServerRegistry
    route53: AuthoritativeServer
    control_server: AuthoritativeServer
    whoami: WhoamiServer
    atlas: AtlasPlatform
    web_server: ObservationServer
    echo_server: EchoService
    as_graph: ASGraph = field(default_factory=ASGraph)
    _vantage_host_counter: int = 16

    # -- convenient views ------------------------------------------------

    @property
    def routing(self):
        """The global routing table."""
        return self.ground.routing

    @property
    def registry(self):
        """The AS registry."""
        return self.ground.registry

    @property
    def population(self):
        """The APNIC-style AS population dataset."""
        return self.ground.population

    @property
    def gazetteer(self):
        """Countries and cities."""
        return self.ground.gazetteer

    @property
    def ingress_v4(self) -> IngressFleet:
        return self.deployment.ingress_v4

    @property
    def ingress_v6(self) -> IngressFleet:
        return self.deployment.ingress_v6

    @property
    def assignment(self) -> AssignmentMap:
        return self.deployment.assignment

    @property
    def egress_list_may(self) -> EgressList:
        return self.deployment.egress_list_may

    @property
    def egress_list_jan(self) -> EgressList:
        return self.deployment.egress_list_jan

    @property
    def egress_fleet(self) -> EgressFleet:
        return self.deployment.egress_fleet

    @property
    def geodb(self) -> GeoDatabase:
        return self.deployment.geodb

    @property
    def history(self) -> BgpHistory:
        return self.deployment.history

    @property
    def topology(self) -> Topology:
        return self.deployment.topology

    @property
    def vantage_router_id(self) -> str:
        return self.deployment.vantage_router_id

    def scan_months(self) -> list[tuple[int, int]]:
        """The paper's monthly scan calendar (Jan–Apr 2022)."""
        return [(m.year, m.month) for m in self.config.ingress_months]

    def scan_start(self, year: int, month: int) -> float:
        """Simulated start time of a monthly scan."""
        return scan_time(year, month)

    def make_vantage_client(self, dns: DnsConfig | None = None) -> RelayClient:
        """A relay client at the measurement vantage.

        With no ``dns`` argument the client uses a local recursive
        resolver at the vantage (the paper's *open* scan configuration).
        """
        from repro.dns.resolver import RecursiveResolver

        vantage = self.ground.vantage_prefix
        self._vantage_host_counter += 1
        address = vantage.address_at(self._vantage_host_counter)
        if dns is None:
            resolver = RecursiveResolver(
                self.ns_registry,
                vantage.address_at(3),
                clock=self.clock,
                send_ecs=False,
                name="vantage-local",
            )
            dns = DnsConfig.open(resolver)
        return RelayClient(
            service=self.service,
            address=address,
            asn=VANTAGE_ASN,
            country=self.config.vantage_country,
            location=VANTAGE_LOCATION,
            dns=dns,
        )


def build_world(
    config: WorldConfig | None = None, telemetry: Telemetry | None = None
) -> World:
    """Generate a complete world from a configuration.

    With a non-null ``telemetry``, worldgen phases record spans, the
    relay service reports connection-plane counters, and the world's
    existing stats counters are adopted into the metrics registry
    (:func:`~repro.worldgen.instrument.instrument_world`).

    The world is built with cyclic GC paused and then frozen
    (:func:`gc.freeze`): its object graph is acyclic and lives as long
    as the caller holds it, so later collections walk only objects
    created after the build, and refcounting still frees a dropped
    world (DESIGN.md §5 "GC policy").
    """
    # The freeze pins everything alive at that moment, the caller's
    # objects included; reclaim the caller's cyclic garbage first, or it
    # could never be collected.  This walks only objects not yet frozen,
    # never an earlier world.
    gc.collect()
    with gc_paused():
        world = _assemble_world(config, telemetry)
        gc.freeze()
    return world


def _assemble_world(config: WorldConfig | None, telemetry: Telemetry | None) -> World:
    config = config or WorldConfig()
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    tracer = telemetry.tracer
    clock = SimClock()
    tracer.bind_clock(clock)
    clock.advance_to(month_to_seconds(2021, 7))

    with tracer.span("worldgen.internet"):
        ground = build_internet(config)
    rng = random.Random(config.seed ^ 0xD3B)

    codes = ground.gazetteer.country_codes
    covered = min(config.atlas_country_count, len(codes))
    probe_countries = codes[:covered]
    tail_countries = [c for c in codes[covered:]]

    with tracer.span("worldgen.egress"):
        egress_may, egress_jan, egress_prefixes = build_egress(config, ground, rng)
    with tracer.span("worldgen.ingress"):
        ingress_v4, ingress_v6, ingress_prefixes, unused = build_ingress(
            config, ground, rng, tail_countries
        )
    with tracer.span("worldgen.assignment"):
        assignment = build_assignment(config, ground, set(tail_countries))
    with tracer.span("worldgen.pools"):
        egress_fleet = build_pools(config, egress_may, rng, ground.gazetteer)
    with tracer.span("worldgen.geodb"):
        geodb = build_geodb(config, egress_may, ground.gazetteer, rng)
    with tracer.span("worldgen.history"):
        history = build_history(config, ground.routing)
    with tracer.span("worldgen.topology"):
        topology, vantage_router_id = build_topology(
            config, ground, ingress_v4, egress_fleet
        )

    service = PrivateRelayService(
        clock=clock,
        ingress_v4=ingress_v4,
        ingress_v6=ingress_v6,
        egress_fleet=egress_fleet,
        assignment=assignment,
        routing=ground.routing,
        rng=random.Random(config.seed ^ 0x5E55),
        telemetry=telemetry,
    )

    # DNS infrastructure.
    with tracer.span("worldgen.dns"):
        dns_block = Prefix.parse(DNS_SERVICE_BLOCK)
        route53 = AuthoritativeServer(
            dns_block.address_at(1), EcsPolicy(max_source_v4=24), name="route53"
        )
        route53.add_zone(service.build_zone())
        control_server = AuthoritativeServer(
            dns_block.address_at(2), EcsPolicy(enabled=False), name="generic-auth"
        )
        control_zone = Zone(CONTROL_DOMAIN)
        control_zone.add_record(
            a_record(DnsName.parse(CONTROL_DOMAIN), IPAddress.parse(CONTROL_ADDRESS))
        )
        control_server.add_zone(control_zone)
        whoami = WhoamiServer(dns_block.address_at(3))
        ns_registry = NameServerRegistry()
        ns_registry.register(route53)
        ns_registry.register(control_server)
        ns_registry.register(whoami)

    with tracer.span("worldgen.probes"):
        atlas = build_probes(config, ground, ns_registry, clock, probe_countries)

    vantage = ground.vantage_prefix
    web_server = ObservationServer(
        "observer.vantage.example", vantage.address_at(10), VANTAGE_ASN
    )
    echo_server = EchoService(
        "ipecho.net", dns_block.address_at(9), DNS_SERVICE_ASN
    )
    topology.attach_host(web_server.address, vantage_router_id)
    # The echo service lives in an external cloud AS, reachable through
    # transit — giving QoE comparisons a non-trivial direct path.
    from repro.netmodel.topology import Router

    cloud_router = topology.add_router(
        Router("service-cloud", DNS_SERVICE_ASN, dns_block.address_at(254))
    )
    topology.add_link("transit-1", cloud_router.router_id, 12.0)
    topology.attach_host(echo_server.address, cloud_router.router_id)

    deployment = DeploymentGround(
        ingress_v4=ingress_v4,
        ingress_v6=ingress_v6,
        assignment=assignment,
        egress_list_jan=egress_jan,
        egress_list_may=egress_may,
        egress_fleet=egress_fleet,
        geodb=geodb,
        history=history,
        topology=topology,
        vantage_router_id=vantage_router_id,
        ingress_prefixes=ingress_prefixes,
        egress_prefixes=egress_prefixes,
        unused_prefixes={
            4: [p for p in unused if p.version == 4],
            6: [p for p in unused if p.version == 6],
        },
        tail_countries=tail_countries,
        probe_countries=probe_countries,
        april_scan_start=scan_time(2022, 4),
    )
    world = World(
        config=config,
        clock=clock,
        ground=ground,
        deployment=deployment,
        service=service,
        ns_registry=ns_registry,
        route53=route53,
        control_server=control_server,
        whoami=whoami,
        atlas=atlas,
        web_server=web_server,
        echo_server=echo_server,
        as_graph=build_as_graph(config, ground),
    )
    # Local import: instrument depends on worldgen types only at runtime.
    from repro.worldgen.instrument import instrument_world

    instrument_world(telemetry, world)
    return world
