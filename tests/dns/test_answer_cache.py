"""Tests for the per-epoch answer cache (the server's per-query path)."""

from array import array

from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.rr import RRType, a_record
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import LookupResult, Zone
from repro.netmodel.addr import IPAddress, Prefix


APEX = "example.com."
NAME = "relay.example.com."

#: Hand-built v4 partition: [0, 10.0.0.0) fallback, 10.0.0.0/16 answer
#: 1, 10.1.0.0/16 answer 2, then fallback to the end of the space.
ROW_STARTS = (0, 10 << 24, (10 << 24) | (1 << 16), (10 << 24) | (2 << 16))
ROW_ANSWER = (0, 1, 2, 0)
SCOPES = (16, 16, 20)


def make_server(zone: Zone) -> AuthoritativeServer:
    server = AuthoritativeServer(IPAddress.parse("192.0.2.53"))
    server.add_zone(zone)
    return server


def query(server: AuthoritativeServer, name: str, subnet: str | None = None,
          rtype: RRType = RRType.A) -> DnsMessage:
    ecs = Prefix.parse(subnet) if subnet is not None else None
    return server.handle(DnsMessage.query(name, rtype, ecs=ecs))


class _RotatingAnswer:
    """A table answer that rotates through its addresses per produce()."""

    def __init__(self, name, addresses, scope):
        self.windows = [
            (tuple(a_record(name, a) for a in rotated), rotated)
            for rotated in (
                tuple(addresses[i:] + addresses[:i]) for i in range(len(addresses))
            )
        ]
        self.scope = scope
        self.produced = 0

    def produce(self) -> LookupResult:
        records, addresses = self.windows[self.produced % len(self.windows)]
        self.produced += 1
        return LookupResult(True, records, self.scope, addresses)


class _Partition:
    def __init__(self):
        self.starts = array("I", ROW_STARTS)
        self.roster_index = array("I", ROW_ANSWER)


def make_table_zone(declined: bool = False):
    """A zone whose dynamic name answers from a hand-built answer table.

    Returns ``(zone, answers, handler_calls)``.  The handler is the
    oracle: it derives the same answer object per query, so both paths
    share rotation state exactly as the relay zone's handler and table
    do.  With ``declined`` the table source returns None.
    """
    zone = Zone(APEX)
    name = DnsName.parse(NAME)
    answers = [
        _RotatingAnswer(
            name,
            [IPAddress.parse(f"198.51.100.{10 * k + i}") for i in range(1, 4)],
            scope,
        )
        for k, scope in enumerate(SCOPES)
    ]
    partition = _Partition()
    handler_calls = []

    def derive(subnet):
        if subnet is None or subnet.version != 4:
            return answers[0]
        row = max(i for i, start in enumerate(ROW_STARTS) if start <= subnet.value)
        return answers[ROW_ANSWER[row]]

    def handler(qname, subnet):
        handler_calls.append(subnet)
        result = derive(subnet).produce()
        return result.records, result.scope_override

    def table():
        return None if declined else (partition, answers)

    zone.add_dynamic(name, RRType.A, handler, table)
    return zone, answers, handler_calls


#: Row start, row end, mid-row, fallback space, and a subnet wider than
#: its row (matched by its first address).
SUBNETS = (
    "10.0.0.0/24",
    "10.0.255.0/24",
    "10.1.77.0/24",
    "172.16.0.0/24",
    "10.0.0.0/8",
    "9.255.255.0/24",
    "10.2.0.0/24",
)


class TestBlockCaching:
    def test_table_fetched_once_per_epoch(self):
        server = make_server(make_table_zone()[0])
        stats = server.answer_cache.stats
        query(server, NAME, "10.1.0.0/24")
        assert (stats.hits, stats.misses) == (0, 1)
        query(server, NAME, "10.1.200.0/24")  # same row
        assert (stats.hits, stats.misses) == (1, 1)
        query(server, NAME, "10.2.0.0/24")  # another row, same table
        assert (stats.hits, stats.misses) == (2, 1)

    def test_produce_runs_on_every_query(self):
        zone, answers, calls = make_table_zone()
        server = make_server(zone)
        for _ in range(3):
            query(server, NAME, "10.1.0.0/24")
        # The row's answer produced once per query (side effects replay);
        # the handler never ran.
        assert [answer.produced for answer in answers] == [0, 0, 3]
        assert calls == []

    def test_answers_identical_with_cache_off(self):
        on_zone, _, _ = make_table_zone()
        off_zone, _, _ = make_table_zone()
        on = make_server(on_zone)
        off = make_server(off_zone)
        off.answer_cache.enabled = False
        for _ in range(4):  # repeats walk each row's rotation
            for subnet in SUBNETS:
                a = query(on, NAME, subnet)
                b = query(off, NAME, subnet)
                assert a.answers == b.answers
                assert a.answer_addresses() == b.answer_addresses()
                assert a.client_subnet == b.client_subnet
        assert on.stats == off.stats
        stats = on.answer_cache.stats
        assert stats.hits + stats.misses == on.stats.queries
        assert off.answer_cache.stats.hits == 0
        assert off.answer_cache.stats.misses == 0

    def test_row_boundaries_pick_their_row(self):
        zone, answers, _ = make_table_zone()
        server = make_server(zone)
        expected = {
            "9.255.255.0/24": 0,
            "10.0.0.0/24": 1,
            "10.0.255.0/24": 1,
            "10.1.0.0/24": 2,
            "10.1.255.0/24": 2,
            "10.2.0.0/24": 0,
            "255.255.255.0/24": 0,
        }
        for subnet, index in expected.items():
            response = query(server, NAME, subnet)
            assert response.answers[0].rdata in answers[index].windows[0][1]

    def test_reply_shares_the_answer_address_tuple(self):
        zone, answers, _ = make_table_zone()
        server = make_server(zone)
        response = query(server, NAME, "10.1.0.0/24")
        assert response.answer_addresses() is answers[2].windows[0][1]

    def test_declined_table_derives_per_query(self):
        zone, answers, calls = make_table_zone(declined=True)
        server = make_server(zone)
        query(server, NAME, "10.1.0.0/24")
        query(server, NAME, "10.1.0.0/24")
        stats = server.answer_cache.stats
        assert len(calls) == 2
        assert (stats.hits, stats.misses) == (0, 2)
        assert answers[2].produced == 2

    def test_queries_without_v4_subnet_derive_per_query(self):
        zone, _, calls = make_table_zone()
        server = make_server(zone)
        query(server, NAME)
        query(server, NAME, "2001:db8::/56")
        query(server, NAME, "10.1.0.0/24")
        stats = server.answer_cache.stats
        assert len(calls) == 2
        assert stats.hits + stats.misses == 3

    def test_tableless_dynamic_name_falls_back_to_lookup(self):
        zone = Zone(APEX)
        calls = []

        def handler(qname, subnet):
            calls.append(subnet)
            return [a_record(qname, IPAddress.parse("198.51.100.8"))], 24

        zone.add_dynamic(DnsName.parse(NAME), RRType.A, handler)
        server = make_server(zone)
        query(server, NAME, "10.1.0.0/24")
        query(server, NAME, "10.1.0.0/24")
        assert len(calls) == 2  # uncached, handler per query
        assert server.answer_cache.stats.hits == 0


class TestStaticAndNegativeCaching:
    def test_static_record_cached_any_subnet(self):
        zone = Zone(APEX)
        name = DnsName.parse("static.example.com.")
        zone.add_record(a_record(name, IPAddress.parse("203.0.113.5")))
        server = make_server(zone)
        first = query(server, "static.example.com.", "10.0.0.0/24")
        second = query(server, "static.example.com.", "172.16.99.0/24")
        third = query(server, "static.example.com.")  # no ECS at all
        assert first.answers == second.answers == third.answers
        assert first.answer_addresses() is third.answer_addresses()
        stats = server.answer_cache.stats
        assert (stats.hits, stats.misses) == (2, 1)

    def test_nxdomain_cached(self):
        zone = Zone(APEX)
        zone.add_record(
            a_record(DnsName.parse(NAME), IPAddress.parse("203.0.113.5"))
        )
        server = make_server(zone)
        for _ in range(2):
            response = query(server, "missing.example.com.", "10.0.0.0/24")
            assert response.rcode == Rcode.NXDOMAIN
        assert server.answer_cache.stats.hits == 1
        assert server.stats.nxdomain == 2


class TestEpochInvalidation:
    def test_zone_edit_invalidates(self):
        zone = Zone(APEX)
        name = DnsName.parse(NAME)
        zone.add_record(a_record(name, IPAddress.parse("203.0.113.5")))
        server = make_server(zone)
        first = query(server, NAME, "10.0.0.0/24")
        zone.add_record(a_record(name, IPAddress.parse("203.0.113.6")))
        second = query(server, NAME, "10.0.0.0/24")
        assert len(second.answers) == len(first.answers) + 1
        assert server.answer_cache.stats.invalidations == 1
        assert server.answer_cache.stats.hits == 0

    def test_epoch_source_change_invalidates(self):
        epoch = [0]
        zone, _, _ = make_table_zone()
        zone.add_epoch_source(lambda: epoch[0])
        server = make_server(zone)
        query(server, NAME, "10.1.0.0/24")
        query(server, NAME, "10.1.1.0/24")
        assert server.answer_cache.stats.hits == 1
        epoch[0] = 1  # e.g. a relay activated mid-scan
        query(server, NAME, "10.1.2.0/24")
        stats = server.answer_cache.stats
        assert stats.invalidations == 1
        assert (stats.hits, stats.misses) == (1, 2)

    def test_clear_counts_invalidation(self):
        server = make_server(make_table_zone()[0])
        query(server, NAME, "10.1.0.0/24")
        server.answer_cache.clear()
        assert server.answer_cache.stats.invalidations == 1
        query(server, NAME, "10.1.0.0/24")
        assert server.answer_cache.stats.hits == 0
