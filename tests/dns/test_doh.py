"""Tests for the RFC 8484 DoH framing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.doh import (
    DNS_MESSAGE_TYPE,
    DohClient,
    DohError,
    DohServer,
    HttpRequest,
    HttpResponse,
    decode_doh_request,
    decode_doh_response,
    encode_doh_get,
    encode_doh_post,
)
from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.resolver import RecursiveResolver
from repro.dns.rr import RRType, a_record
from repro.dns.server import AuthoritativeServer, NameServerRegistry
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress, Prefix

NAME = DnsName.parse("mask.icloud.com")


@pytest.fixture()
def doh_server():
    registry = NameServerRegistry()
    auth = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
    zone = Zone("icloud.com.")
    zone.add_record(a_record(NAME, IPAddress.parse("17.0.0.1")))
    auth.add_zone(zone)
    registry.register(auth)
    resolver = RecursiveResolver(registry, IPAddress.parse("1.1.1.1"))
    return DohServer(resolver)


class TestFraming:
    def test_post_roundtrip(self):
        query = DnsMessage.query(NAME, RRType.A, message_id=1234)
        request = encode_doh_post(query)
        assert request.headers["content-type"] == DNS_MESSAGE_TYPE
        decoded = decode_doh_request(request)
        assert decoded.question == query.question
        # RFC 8484 §4.1: id zeroed for caching.
        assert decoded.message_id == 0

    def test_get_roundtrip(self):
        query = DnsMessage.query(NAME, RRType.AAAA)
        request = encode_doh_get(query)
        assert "dns=" in request.path
        assert "=" not in request.path.split("dns=")[1]  # unpadded base64url
        decoded = decode_doh_request(request)
        assert decoded.question == query.question

    def test_ecs_survives_framing(self):
        subnet = Prefix.parse("203.0.113.0/24")
        query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
        decoded = decode_doh_request(encode_doh_post(query))
        assert decoded.client_subnet.source == subnet

    def test_bad_content_type(self):
        request = HttpRequest("POST", "/dns-query", {"content-type": "text/plain"})
        with pytest.raises(DohError):
            decode_doh_request(request)

    def test_bad_method(self):
        with pytest.raises(DohError):
            decode_doh_request(HttpRequest("PUT", "/dns-query"))

    def test_get_requires_dns_parameter(self):
        with pytest.raises(DohError):
            decode_doh_request(HttpRequest("GET", "/dns-query?other=1"))

    def test_get_wrong_path(self):
        with pytest.raises(DohError):
            decode_doh_request(HttpRequest("GET", "/resolve?dns=AAAA"))

    def test_response_decode_requires_ok(self):
        with pytest.raises(DohError):
            decode_doh_response(HttpResponse(status=500))

    def test_response_decode_requires_type(self):
        with pytest.raises(DohError):
            decode_doh_response(
                HttpResponse(status=200, headers={"content-type": "text/html"})
            )


class TestDohServer:
    def test_end_to_end_post(self, doh_server):
        client = DohClient(doh_server)
        answer = client.resolve(DnsMessage.query(NAME, RRType.A))
        assert answer.answer_addresses() == (IPAddress.parse("17.0.0.1"),)
        assert doh_server.requests_served == 1

    def test_end_to_end_get(self, doh_server):
        client = DohClient(doh_server, use_get=True)
        answer = client.resolve(DnsMessage.query(NAME, RRType.A))
        assert answer.answer_addresses() == (IPAddress.parse("17.0.0.1"),)

    def test_cache_control_from_ttl(self, doh_server):
        response = doh_server.handle(
            encode_doh_post(DnsMessage.query(NAME, RRType.A))
        )
        assert response.headers["cache-control"] == "max-age=60"

    def test_nxdomain_passes_through(self, doh_server):
        client = DohClient(doh_server)
        answer = client.resolve(DnsMessage.query("nothing.icloud.com", RRType.A))
        assert answer.rcode == Rcode.NXDOMAIN

    def test_garbage_body_is_400(self, doh_server):
        response = doh_server.handle(
            HttpRequest(
                "POST", "/dns-query",
                {"content-type": DNS_MESSAGE_TYPE},
                b"\xff\xff\xff",
            )
        )
        assert response.status == 400
        assert doh_server.bad_requests == 1

    def test_ecs_hint_reaches_resolver(self, doh_server):
        subnet = Prefix.parse("198.51.100.0/24")
        query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
        response = doh_server.handle(encode_doh_post(query))
        assert response.ok


v4_values = st.integers(min_value=0, max_value=(1 << 32) - 1)


@given(v4_values, st.booleans())
def test_framing_roundtrip_property(value, use_get):
    subnet = Prefix.from_address(IPAddress(4, value), 24)
    query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
    request = encode_doh_get(query) if use_get else encode_doh_post(query)
    decoded = decode_doh_request(request)
    assert decoded.question == query.question
    assert decoded.client_subnet.source == subnet
