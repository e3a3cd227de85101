"""TokenBucket refill boundaries, closed-form schedule and error paths."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.ratelimit import TokenBucket
from repro.errors import RateLimitExceeded
from repro.simtime import SimClock


def _bucket(rate=2.0, burst=4.0):
    clock = SimClock()
    return TokenBucket(rate, burst, clock), clock


class TestConstruction:
    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 4.0, SimClock())

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0, 4.0, SimClock())

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(2.0, 0.0, SimClock())

    def test_starts_full(self):
        bucket, _ = _bucket()
        assert bucket.tokens == 4.0


class TestRefillBoundaries:
    def test_exact_refill_instant(self):
        """Advancing by exactly count/rate seconds re-arms the bucket."""
        bucket, clock = _bucket(rate=2.0, burst=4.0)
        for _ in range(4):
            assert bucket.take() == 0.0
        assert bucket.tokens == 0.0
        clock.advance(0.5)  # exactly one token at 2 tokens/s
        assert bucket.tokens == 1.0
        assert bucket.take() == 0.0
        assert bucket.tokens == 0.0
        assert clock.now == 0.5

    def test_refill_caps_at_burst(self):
        bucket, clock = _bucket(rate=2.0, burst=4.0)
        clock.advance(1000.0)
        assert bucket.tokens == 4.0

    def test_take_waits_exactly_the_deficit(self):
        bucket, clock = _bucket(rate=2.0, burst=4.0)
        for _ in range(4):
            assert bucket.take() == 0.0
        before = clock.now
        waited = bucket.take()
        assert waited == 0.5  # (1 - 0) / rate
        assert clock.now == before + waited
        assert bucket.total_waited == 0.5

    def test_take_many_replays_individual_takes(self):
        """take_many(n) lands where n single takes do, in one step."""
        many, many_clock = _bucket(rate=2.2, burst=10.0)
        single, single_clock = _bucket(rate=2.2, burst=10.0)
        total = many.take_many(500)
        waited = sum(single.take() for _ in range(500))
        assert total == waited
        assert many_clock.now == single_clock.now
        assert many.total_waited == single.total_waited
        assert many.tokens == single.tokens


class TestErrors:
    def test_take_beyond_burst_raises(self):
        bucket, _ = _bucket(rate=2.0, burst=4.0)
        with pytest.raises(RateLimitExceeded):
            bucket.take(5.0)

    def test_oversized_request_leaves_state_untouched(self):
        bucket, _ = _bucket(rate=2.0, burst=4.0)
        with pytest.raises(RateLimitExceeded):
            bucket.take(100.0)
        assert bucket.tokens == 4.0
        assert bucket.total_waited == 0.0


# ----------------------------------------------------------------------
# The closed-form schedule under interleaved takes and clock advances
# ----------------------------------------------------------------------

#: The paper campaign's first and last monthly scan starts (~1.9e8 s).
CAMPAIGN = (186_710_400.0, 194_486_400.0)
#: Clock anchors: the simulation epoch and the campaign's timestamps.
_ANCHORS = st.sampled_from((0.0,) + CAMPAIGN)
_RATES = st.sampled_from([2.2, 0.5, 1.0, 3.7, 40.0])
_BURSTS = st.sampled_from([1.0, 2.5, 4.0, 10.0])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("take"), st.just(1)),
        st.tuples(st.just("many"), st.integers(min_value=0, max_value=80)),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        ),
    ),
    max_size=30,
)


@given(
    _RATES,
    _BURSTS,
    _ANCHORS,
    st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
    _OPS,
)
def test_take_many_equals_single_takes(rate, burst, anchor, offset, ops):
    """take_many(n) and n x take() leave the same clock and tokens.

    On the campaign's timestamps every wait is a difference of floats
    on one 2**-25 s grid, so the waits — and ``total_waited``, which
    perfbench reads as ``scan.ecs.ratelimit_wait_sim_s`` — also match
    bit for bit.
    """
    many, single = (
        TokenBucket(rate, burst, SimClock(anchor + offset)) for _ in range(2)
    )
    real = anchor in CAMPAIGN
    for kind, arg in ops:
        if kind == "advance":
            many.clock.advance(arg)
            single.clock.advance(arg)
            continue
        if kind == "take":
            got, want = many.take(), single.take()
        else:
            got = many.take_many(arg)
            want = 0.0
            for _ in range(arg):
                want += single.take()
        assert many.clock.now == single.clock.now
        assert many.tokens == single.tokens
        if real:
            assert got == want
            assert many.total_waited == single.total_waited


class _ExactBucket:
    """The ideal token bucket in exact rational arithmetic."""

    def __init__(self, rate, burst, now):
        self.rate = Fraction(rate)
        self.burst = Fraction(burst)
        self.level = self.burst
        self.last = Fraction(now)

    def take(self, asked):
        """Serve one token asked for at ``asked``; returns when."""
        now = max(Fraction(asked), self.last)
        self.level = min(self.burst, self.level + (now - self.last) * self.rate)
        self.last = now
        if self.level < 1:
            self.last = now + (1 - self.level) / self.rate
            self.level = Fraction(1)
        self.level -= 1
        return self.last


@given(
    _RATES,
    _BURSTS,
    _ANCHORS,
    st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
    _OPS,
)
def test_served_times_track_exact_schedule(rate, burst, anchor, offset, ops):
    """Every take is served within 1 ulp of the exact bucket's time.

    The float formula rounds to nearest, so a take may land up to one
    ulp of the clock either side of its exact time — never earlier
    than that, and never before the clock it was asked at.
    """
    bucket = TokenBucket(rate, burst, SimClock(anchor + offset))
    clock = bucket.clock
    exact = _ExactBucket(rate, burst, clock.now)
    for kind, arg in ops:
        if kind == "advance":
            clock.advance(arg)
            continue
        if not arg:
            continue
        asked = clock.now
        for _ in range(arg):
            want = exact.take(asked)
        if kind == "take":
            bucket.take()
        else:
            bucket.take_many(arg)
        got = clock.now
        assert got >= asked
        ulp = Fraction(math.ulp(got))
        assert Fraction(got) >= want - ulp, "served early"
        assert Fraction(got) <= want + ulp, "served late"


@given(
    _RATES,
    _BURSTS,
    _ANCHORS,
    _OPS,
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
)
def test_takes_before_splits_at_the_crossing_take(rate, burst, anchor, ops, ahead):
    """takes_before(d) takes are served before d; the next one is not."""
    bucket = TokenBucket(rate, burst, SimClock(anchor))
    clock = bucket.clock
    for kind, arg in ops:
        if kind == "advance":
            clock.advance(arg)
        else:
            bucket.take_many(arg)
    deadline = clock.now + ahead
    count = bucket.takes_before(deadline)
    assert bucket.takes_before(math.inf) > count
    for _ in range(count):
        bucket.take()
        assert clock.now < deadline
    bucket.take()
    assert clock.now >= deadline
