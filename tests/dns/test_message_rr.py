"""Tests for repro.dns.rr and repro.dns.message."""

import pytest

from repro.errors import DnsWireError
from repro.dns.edns import ClientSubnetOption
from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.rr import (
    RRClass,
    RRType,
    ResourceRecord,
    a_record,
    aaaa_record,
    txt_record,
)
from repro.netmodel.addr import IPAddress, Prefix

NAME = DnsName.parse("mask.icloud.com")


class TestResourceRecord:
    def test_a_record(self):
        rr = a_record(NAME, IPAddress.parse("17.0.0.1"))
        assert rr.rtype == RRType.A
        assert rr.address == IPAddress.parse("17.0.0.1")

    def test_aaaa_record(self):
        rr = aaaa_record(NAME, IPAddress.parse("2620:149::1"))
        assert rr.rtype == RRType.AAAA
        assert rr.address.version == 6

    def test_a_with_v6_rejected(self):
        with pytest.raises(DnsWireError):
            a_record(NAME, IPAddress.parse("::1"))

    def test_aaaa_with_v4_rejected(self):
        with pytest.raises(DnsWireError):
            aaaa_record(NAME, IPAddress.parse("1.2.3.4"))

    def test_bad_rdata_type(self):
        with pytest.raises(DnsWireError):
            ResourceRecord(NAME, RRType.A, RRClass.IN, 60, "not-an-address")

    def test_negative_ttl(self):
        with pytest.raises(DnsWireError):
            a_record(NAME, IPAddress.parse("1.2.3.4"), ttl=-1)

    def test_txt_record(self):
        rr = txt_record(NAME, "hello", "world")
        assert rr.rdata == ("hello", "world")

    def test_address_accessor_wrong_type(self):
        rr = txt_record(NAME, "x")
        with pytest.raises(DnsWireError):
            _ = rr.address

    def test_rrtype_for_ip_version(self):
        assert RRType.for_ip_version(4) == RRType.A
        assert RRType.for_ip_version(6) == RRType.AAAA
        with pytest.raises(DnsWireError):
            RRType.for_ip_version(5)


class TestDnsMessage:
    def test_query_construction(self):
        query = DnsMessage.query("mask.icloud.com", RRType.A, message_id=5)
        assert query.question is not None
        assert query.question.name == NAME
        assert not query.is_response
        assert query.recursion_desired

    def test_query_with_ecs(self):
        subnet = Prefix.parse("203.0.113.0/24")
        query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
        assert query.client_subnet == ClientSubnetOption(subnet, 0)

    def test_query_without_ecs(self):
        query = DnsMessage.query(NAME, RRType.A)
        assert query.client_subnet is None

    def test_reply_basics(self):
        query = DnsMessage.query(NAME, RRType.A, message_id=77)
        answer = a_record(NAME, IPAddress.parse("17.0.0.1"))
        response = query.reply(answers=(answer,), authoritative=True)
        assert response.is_response
        assert response.message_id == 77
        assert response.question == query.question
        assert response.answer_addresses() == (IPAddress.parse("17.0.0.1"),)

    def test_reply_echoes_ecs_with_scope(self):
        subnet = Prefix.parse("203.0.113.0/24")
        query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
        response = query.reply(ecs_scope=16)
        assert response.client_subnet == ClientSubnetOption(subnet, 16)

    def test_reply_without_scope_keeps_option(self):
        subnet = Prefix.parse("203.0.113.0/24")
        query = DnsMessage.query(NAME, RRType.A, ecs=subnet)
        response = query.reply()
        assert response.client_subnet == ClientSubnetOption(subnet, 0)

    def test_nodata_detection(self):
        query = DnsMessage.query(NAME, RRType.A)
        assert query.reply(rcode=Rcode.NOERROR).is_nodata
        answer = a_record(NAME, IPAddress.parse("17.0.0.1"))
        assert not query.reply(answers=(answer,)).is_nodata
        assert not query.reply(rcode=Rcode.NXDOMAIN).is_nodata

    def test_message_id_range(self):
        with pytest.raises(DnsWireError):
            DnsMessage(message_id=70000)

    def test_with_id(self):
        query = DnsMessage.query(NAME, RRType.A, message_id=1)
        assert query.with_id(2).message_id == 2

    def test_answer_addresses_filters_non_address_records(self):
        query = DnsMessage.query(NAME, RRType.A)
        response = query.reply(
            answers=(txt_record(NAME, "x"), a_record(NAME, IPAddress.parse("1.1.1.1")))
        )
        assert response.answer_addresses() == (IPAddress.parse("1.1.1.1"),)
