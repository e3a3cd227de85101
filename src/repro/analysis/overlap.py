"""Section 6: the correlation-surface analysis.

Three findings are computed here from measured (not ground-truth) data:

* **operator overlap** — the same AS (Akamai's AS36183) hosts both
  ingress and egress relays;
* **shared last hop** — traceroutes from the vantage towards an AS36183
  ingress address and an AS36183 egress address end at the same router;
* **prefix usage** — of the prefixes AS36183 announces, how many carry
  ingress relays, how many carry egress subnets, whether any carries
  both, and the used fraction (92.2 % in the paper); plus the monthly
  BGP history showing the AS first appeared with the service launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netmodel.addr import IPAddress
from repro.netmodel.asn import WellKnownAS
from repro.netmodel.bgp import BgpHistory, RoutingTable
from repro.netmodel.prefix_trie import DualStackTrie
from repro.netmodel.topology import Topology
from repro.netmodel.traceroute import TracerouteResult, traceroute
from repro.relay.egress_list import EgressList

AKAMAI_PR = int(WellKnownAS.AKAMAI_PR)


@dataclass
class OverlapReport:
    """The Section 6 findings."""

    overlap_asns: set[int]
    announced_v4: int
    announced_v6: int
    ingress_prefixes: int
    egress_prefixes: int
    shared_prefixes: int
    first_seen: tuple[int, int] | None
    months_examined: int
    shared_last_hop: bool
    ingress_trace: TracerouteResult | None = None
    egress_trace: TracerouteResult | None = None
    correlating_tunnel_asns: set[int] = field(default_factory=set)

    @property
    def announced_total(self) -> int:
        """All announced AS36183 prefixes, both versions."""
        return self.announced_v4 + self.announced_v6

    @property
    def used_prefixes(self) -> int:
        """Prefixes carrying at least one relay function."""
        return self.ingress_prefixes + self.egress_prefixes - self.shared_prefixes

    @property
    def used_fraction(self) -> float:
        """Share of announced prefixes used by the relay service."""
        if not self.announced_total:
            return 0.0
        return self.used_prefixes / self.announced_total

    def render(self) -> str:
        """The Section 6 findings as prose lines."""
        lines = [
            f"ASes hosting ingress AND egress: {sorted(self.overlap_asns)}",
            f"AS{AKAMAI_PR} announces {self.announced_v4} IPv4 + "
            f"{self.announced_v6} IPv6 prefixes",
            f"ingress in {self.ingress_prefixes}, egress in "
            f"{self.egress_prefixes}, shared {self.shared_prefixes}",
            f"used fraction: {self.used_fraction:.1%}",
            f"first BGP occurrence: {self.first_seen} "
            f"({self.months_examined} months examined)",
            f"ingress/egress share a last hop: {self.shared_last_hop}",
        ]
        if self.correlating_tunnel_asns:
            lines.append(
                "ASes able to correlate a tunnel end-to-end: "
                f"{sorted(self.correlating_tunnel_asns)}"
            )
        return "\n".join(lines)


def build_overlap_report(
    routing: RoutingTable,
    history: BgpHistory,
    ingress_addresses_v4: set[IPAddress],
    ingress_addresses_v6: set[IPAddress],
    egress_list: EgressList,
    topology: Topology | None = None,
    vantage_router_id: str | None = None,
    probe_ingress: IPAddress | None = None,
    probe_egress: IPAddress | None = None,
) -> OverlapReport:
    """Compute the overlap report from measured inputs.

    ``ingress_addresses_*`` come from the ECS/Atlas scans; the egress
    side comes from the published list.  ``probe_ingress``/``probe_egress``
    select the pair of addresses to traceroute (both should be AS36183
    addresses observed during relay scans).
    """
    # --- operator overlap ------------------------------------------------
    ingress_asns = {
        asn
        for address in (ingress_addresses_v4 | ingress_addresses_v6)
        if (asn := routing.origin_of(address)) is not None
    }
    egress_asns = {ann.origin_asn for _entry, ann in egress_list.attributed(routing)}
    overlap = ingress_asns & egress_asns

    # --- prefix usage ----------------------------------------------------
    announced_v4 = routing.prefixes_by_origin(AKAMAI_PR, version=4)
    announced_v6 = routing.prefixes_by_origin(AKAMAI_PR, version=6)
    trie: DualStackTrie[str] = DualStackTrie()
    for prefix in announced_v4 + announced_v6:
        trie.insert(prefix, "announced")
    # Announced prefixes are held as (version, network << 8 | length):
    # the egress side probes them once per listed subnet and builds no
    # Prefix objects.
    ingress_hit: set[tuple[int, int]] = set()
    for address in ingress_addresses_v4 | ingress_addresses_v6:
        hit = trie.lookup(address)
        if hit is not None:
            ingress_hit.add((address.version, hit[0].value << 8 | hit[0].length))
    egress_hit: set[tuple[int, int]] = set()
    covering_key = trie.covering_key
    for entry in egress_list:
        key = covering_key(entry.prefix)
        if key is not None:
            egress_hit.add((entry.prefix.version, key))
    shared = ingress_hit & egress_hit

    # --- BGP history -------------------------------------------------------
    first_seen = history.first_occurrence(AKAMAI_PR)
    months = len(history.months())

    # --- traceroute validation ---------------------------------------------
    shared_last_hop = False
    ingress_trace = egress_trace = None
    if (
        topology is not None
        and vantage_router_id is not None
        and probe_ingress is not None
        and probe_egress is not None
    ):
        ingress_trace = traceroute(topology, vantage_router_id, probe_ingress)
        egress_trace = traceroute(topology, vantage_router_id, probe_egress)
        shared_last_hop = ingress_trace.shares_last_hop_with(egress_trace)

    return OverlapReport(
        overlap_asns=overlap,
        announced_v4=len(announced_v4),
        announced_v6=len(announced_v6),
        ingress_prefixes=len(ingress_hit),
        egress_prefixes=len(egress_hit),
        shared_prefixes=len(shared),
        first_seen=first_seen,
        months_examined=months,
        shared_last_hop=shared_last_hop,
        ingress_trace=ingress_trace,
        egress_trace=egress_trace,
    )
