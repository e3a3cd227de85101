"""Tests for repro.netmodel.asn and repro.netmodel.bgp."""

import pytest

from repro.errors import AddressError, RoutingError
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.asn import (
    ASRegistry,
    AutonomousSystem,
    WellKnownAS,
    operator_name,
)
from repro.netmodel.bgp import BgpHistory, RoutingTable


class TestWellKnownAS:
    def test_numbers_match_paper(self):
        assert WellKnownAS.APPLE == 714
        assert WellKnownAS.AKAMAI_PR == 36183
        assert WellKnownAS.AKAMAI_EG == 20940
        assert WellKnownAS.CLOUDFLARE == 13335
        assert WellKnownAS.FASTLY == 54113

    def test_operator_names(self):
        assert operator_name(714) == "Apple"
        assert operator_name(36183) == "Akamai_PR"
        assert operator_name(99999) == "AS99999"


class TestASRegistry:
    def test_register_and_get(self):
        registry = ASRegistry()
        asys = registry.register(AutonomousSystem(714, "Apple", "US"))
        assert registry.get(714) is asys
        assert 714 in registry
        assert len(registry) == 1

    def test_register_duplicate_fails(self):
        registry = ASRegistry()
        registry.register(AutonomousSystem(714, "Apple"))
        with pytest.raises(RoutingError):
            registry.register(AutonomousSystem(714, "Apple2"))

    def test_get_unknown_fails(self):
        with pytest.raises(RoutingError):
            ASRegistry().get(1)

    def test_ensure_is_idempotent(self):
        registry = ASRegistry()
        a = registry.ensure(100, "x")
        b = registry.ensure(100, "y")
        assert a is b
        assert a.name == "x"

    def test_bad_as_number(self):
        with pytest.raises(RoutingError):
            AutonomousSystem(0, "zero")
        with pytest.raises(RoutingError):
            AutonomousSystem(2**32, "big")

    def test_prefixes_by_version(self):
        asys = AutonomousSystem(100, "x")
        asys.add_prefix(Prefix.parse("10.0.0.0/8"))
        asys.add_prefix(Prefix.parse("2001:db8::/32"))
        assert len(asys.prefixes_v(4)) == 1
        assert len(asys.prefixes_v(6)) == 1

    def test_numbers_sorted(self):
        registry = ASRegistry()
        registry.ensure(5)
        registry.ensure(2)
        assert registry.numbers() == [2, 5]


class TestRoutingTable:
    def test_announce_and_lookup(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        assert table.origin_of(IPAddress.parse("10.1.2.3")) == 100
        assert table.origin_of(IPAddress.parse("11.0.0.1")) is None

    def test_longest_match_wins(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("10.1.0.0/16"), 200)
        assert table.origin_of(IPAddress.parse("10.1.0.1")) == 200
        assert table.routed_prefix_of(IPAddress.parse("10.1.0.1")) == Prefix.parse(
            "10.1.0.0/16"
        )

    def test_conflicting_origin_rejected(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        with pytest.raises(RoutingError):
            table.announce(Prefix.parse("10.0.0.0/8"), 200)

    def test_same_origin_reannounce_ok(self):
        table = RoutingTable()
        first = table.announce(Prefix.parse("10.0.0.0/8"), 100)
        second = table.announce(Prefix.parse("10.0.0.0/8"), 100)
        assert first is second
        assert len(table) == 1

    def test_withdraw(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        assert table.withdraw(Prefix.parse("10.0.0.0/8"))
        assert not table.withdraw(Prefix.parse("10.0.0.0/8"))
        assert table.origin_of(IPAddress.parse("10.0.0.1")) is None
        assert table.prefixes_by_origin(100) == []

    def test_lookup_value_shares_the_memo(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("2001:db8::/32"), 200)
        v4 = IPAddress.parse("10.1.2.3")
        v6 = IPAddress.parse("2001:db8::1")
        # The same integer in both families routes per family.
        assert table.lookup_value(4, v4.value).origin_asn == 100
        assert table.lookup_value(6, v4.value) is None
        assert table.lookup_value(6, v6.value).origin_asn == 200
        assert table.origin_stats.misses == 3
        # lookup/origin_of hit the entries lookup_value memoised.
        assert table.lookup(v4) is table.lookup_value(4, v4.value)
        assert table.origin_of(v6) == 200
        assert table.origin_of(IPAddress(6, v4.value)) is None
        assert table.origin_stats.misses == 3
        assert table.origin_stats.hits == 4
        # Announce/withdraw clear both families' memos.
        table.announce(Prefix.parse("10.1.0.0/16"), 300)
        assert table.lookup_value(4, v4.value).origin_asn == 300
        table.withdraw(Prefix.parse("2001:db8::/32"))
        assert table.lookup_value(6, v6.value) is None
        assert table.origin_stats.invalidations == 2
        with pytest.raises(AddressError):
            table.lookup_value(5, 1)

    def test_is_routed(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        assert table.is_routed(IPAddress.parse("10.0.0.1"))
        assert not table.is_routed(IPAddress.parse("192.0.2.1"))

    def test_covering_route(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        ann = table.covering_route(Prefix.parse("10.5.0.0/16"))
        assert ann is not None and ann.origin_asn == 100
        assert table.covering_route(Prefix.parse("11.0.0.0/16")) is None

    def test_prefixes_by_origin_version_filter(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("2001:db8::/32"), 100)
        assert table.prefixes_by_origin(100, version=4) == [Prefix.parse("10.0.0.0/8")]
        assert table.prefixes_by_origin(100, version=6) == [
            Prefix.parse("2001:db8::/32")
        ]

    def test_origins(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("11.0.0.0/8"), 200)
        assert table.origins() == {100, 200}

    def test_routed_v4_prefixes_excludes_v6(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("2001:db8::/32"), 100)
        assert table.routed_v4_prefixes() == [Prefix.parse("10.0.0.0/8")]


class TestBgpHistory:
    def test_first_occurrence(self):
        history = BgpHistory()
        history.record_origins(2021, 5, {100})
        history.record_origins(2021, 6, {100, 36183})
        history.record_origins(2021, 7, {100, 36183})
        assert history.first_occurrence(36183) == (2021, 6)
        assert history.first_occurrence(100) == (2021, 5)
        assert history.first_occurrence(999) is None

    def test_months_chronological(self):
        history = BgpHistory()
        history.record_origins(2022, 1, set())
        history.record_origins(2016, 1, set())
        assert history.months() == [(2016, 1), (2022, 1)]

    def test_visible_in(self):
        history = BgpHistory()
        history.record_origins(2020, 3, {1, 2})
        assert history.visible_in(2020, 3) == {1, 2}
        assert history.visible_in(2020, 4) == set()

    def test_record_from_table(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 42)
        history = BgpHistory()
        history.record(2020, 1, table, keep_table=True)
        assert history.visible_in(2020, 1) == {42}
        assert history.table_for(2020, 1) is table
        assert history.table_for(2020, 2) is None

    def test_visibility_series(self):
        history = BgpHistory()
        history.record_origins(2021, 5, {1})
        history.record_origins(2021, 6, {1, 2})
        series = history.visibility_series(2)
        assert series == [("2021-05", False), ("2021-06", True)]
