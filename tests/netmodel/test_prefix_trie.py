"""Tests for repro.netmodel.prefix_trie."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.prefix_trie import DualStackTrie, PrefixTrie


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestPrefixTrie:
    def test_insert_and_exact(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.exact(p("10.0.0.0/8")) == "a"
        assert trie.exact(p("10.0.0.0/16")) is None

    def test_longest_prefix_match(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "short")
        trie.insert(p("10.1.0.0/16"), "long")
        hit = trie.lookup(IPAddress.parse("10.1.2.3"))
        assert hit == (p("10.1.0.0/16"), "long")
        hit = trie.lookup(IPAddress.parse("10.2.2.3"))
        assert hit == (p("10.0.0.0/8"), "short")

    def test_lookup_miss(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.lookup(IPAddress.parse("11.0.0.1")) is None

    def test_default_route(self):
        trie = PrefixTrie(4)
        trie.insert(p("0.0.0.0/0"), "default")
        assert trie.lookup(IPAddress.parse("8.8.8.8")) == (p("0.0.0.0/0"), "default")

    def test_replace_value(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        trie.insert(p("10.0.0.0/8"), "b")
        assert trie.exact(p("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.remove(p("10.0.0.0/8"))
        assert not trie.remove(p("10.0.0.0/8"))
        assert trie.lookup(IPAddress.parse("10.0.0.1")) is None
        assert len(trie) == 0

    def test_remove_missing_deep(self):
        trie = PrefixTrie(4)
        assert not trie.remove(p("10.0.0.0/24"))

    def test_covering_requires_full_containment(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/16"), "a")
        assert trie.covering(p("10.0.1.0/24")) == (p("10.0.0.0/16"), "a")
        # The /8 is wider than the stored /16: no entry covers it fully.
        assert trie.covering(p("10.0.0.0/8")) is None

    def test_covering_exact(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/16"), "a")
        assert trie.covering(p("10.0.0.0/16")) == (p("10.0.0.0/16"), "a")

    def test_version_checks(self):
        trie = PrefixTrie(4)
        with pytest.raises(AddressError):
            trie.insert(p("2001:db8::/32"), "x")
        with pytest.raises(AddressError):
            trie.lookup(IPAddress.parse("::1"))

    def test_items_roundtrip(self):
        trie = PrefixTrie(4)
        inserted = {p("10.0.0.0/8"): 1, p("10.1.0.0/16"): 2, p("192.0.2.0/24"): 3}
        for prefix, value in inserted.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == inserted

    def test_v6_lookup(self):
        trie = PrefixTrie(6)
        trie.insert(p("2001:db8::/32"), "doc")
        hit = trie.lookup(IPAddress.parse("2001:db8::42"))
        assert hit == (p("2001:db8::/32"), "doc")

    def test_bad_version_construction(self):
        with pytest.raises(AddressError):
            PrefixTrie(7)


class TestDualStackTrie:
    def test_routes_by_version(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        trie.insert(p("2001:db8::/32"), "v6")
        assert trie.lookup(IPAddress.parse("10.1.1.1"))[1] == "v4"
        assert trie.lookup(IPAddress.parse("2001:db8::1"))[1] == "v6"
        assert len(trie) == 2

    def test_items_spans_versions(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        trie.insert(p("2001:db8::/32"), "v6")
        assert len(list(trie.items())) == 2

    def test_remove(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        assert trie.remove(p("10.0.0.0/8"))
        assert len(trie) == 0


# ----------------------------------------------------------------------
# Property: trie agrees with brute-force longest-prefix match
# ----------------------------------------------------------------------

prefix_strategy = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
).map(lambda t: Prefix.from_address(IPAddress(4, t[0]), t[1]))


@given(st.lists(prefix_strategy, min_size=1, max_size=40), st.integers(0, (1 << 32) - 1))
def test_trie_matches_bruteforce(prefixes, probe_value):
    trie = PrefixTrie(4)
    table = {}
    for i, prefix in enumerate(prefixes):
        trie.insert(prefix, i)
        table[prefix] = i  # later insert wins, as in the trie
    expected = None
    for prefix, value in table.items():
        if prefix.contains_value(probe_value):
            if expected is None or prefix.length > expected[0].length:
                expected = (prefix, value)
    result = trie.lookup_value(probe_value)
    if expected is None:
        assert result is None
    else:
        assert result == expected


# ----------------------------------------------------------------------
# Property: every query agrees with a brute-force reference after a
# random sequence of inserts, replacements and removes (IPv4 and IPv6)
# ----------------------------------------------------------------------

def bit_string(prefix: Prefix) -> str:
    """The prefix's network bits as text: sorting these strings is the
    preorder of a binary trie (a prefix sorts before its extensions)."""
    if not prefix.length:
        return ""
    return format(prefix.value >> (prefix.bits - prefix.length), f"0{prefix.length}b")


@st.composite
def trie_scenarios(draw):
    version = draw(st.sampled_from([4, 6]))
    bits = 32 if version == 4 else 128
    address = st.integers(0, (1 << bits) - 1)
    # A few base addresses: prefixes cut from the same base nest at every
    # length, which random prefixes alone would almost never do.
    bases = draw(st.lists(address, min_size=1, max_size=4))
    length = st.integers(0, bits)
    prefix = st.builds(
        lambda i, n: Prefix.from_address(IPAddress(version, bases[i % len(bases)]), n),
        st.integers(0, 3),
        length,
    )
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), prefix, st.integers(0, 5)),
            st.tuples(st.just("remove"), prefix, st.none()),
        ),
        max_size=40,
    ))
    # Probe the bases, one-bit neighbours of them, and random addresses.
    flips = st.builds(
        lambda i, bit: bases[i % len(bases)] ^ (1 << bit),
        st.integers(0, 3),
        st.integers(0, bits - 1),
    )
    probes = bases + draw(st.lists(st.one_of(address, flips), max_size=12))
    return version, ops, probes


def reference_lpm(table, value, max_length):
    best = None
    for prefix, stored in table.items():
        if prefix.length <= max_length and prefix.contains_value(value):
            if best is None or prefix.length > best[0].length:
                best = (prefix, stored)
    return best


@given(trie_scenarios())
def test_trie_matches_reference_model(scenario):
    version, ops, probes = scenario
    trie = PrefixTrie(version)
    table: dict[Prefix, int] = {}
    touched: set[Prefix] = set()
    for op, prefix, value in ops:
        touched.add(prefix)
        if op == "insert":
            trie.insert(prefix, value)
            table[prefix] = value
        else:
            assert trie.remove(prefix) == (prefix in table)
            table.pop(prefix, None)

    assert len(trie) == len(table)
    assert list(trie.items()) == sorted(table.items(), key=lambda kv: bit_string(kv[0]))
    for prefix in touched:
        assert trie.exact(prefix) == table.get(prefix)
        covering = reference_lpm(table, prefix.value, prefix.length)
        assert trie.covering(prefix) == covering
        # The value-only and packed-key forms agree with covering().
        if covering is None:
            assert trie.covering_value(prefix) is None
            assert trie.covering_key(prefix) is None
        else:
            matched, stored = covering
            assert trie.covering_value(prefix) == stored
            assert trie.covering_key(prefix) == matched.value << 8 | matched.length
    bits = 32 if version == 4 else 128
    for value in probes:
        expected = reference_lpm(table, value, bits)
        assert trie.lookup_value(value) == expected
        assert trie.lookup(IPAddress(version, value)) == expected
        assert trie.best_value(value) == (expected[1] if expected else None)

    dual = DualStackTrie()
    for prefix, stored in table.items():
        dual.insert(prefix, stored)
    assert list(dual.items()) == list(trie.items())
    for value in probes:
        assert dual.best_value(IPAddress(version, value)) == trie.best_value(value)
    for prefix in touched:
        assert dual.covering_value(prefix) == trie.covering_value(prefix)
        assert dual.covering_key(prefix) == trie.covering_key(prefix)
