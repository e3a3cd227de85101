"""Tests for the RFC 1035 wire codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DnsWireError
from repro.dns.message import DnsMessage, Opcode, Question, Rcode
from repro.dns.name import DnsName
from repro.dns.rr import (
    RRClass,
    RRType,
    ResourceRecord,
    SoaData,
    a_record,
    aaaa_record,
    txt_record,
)
from repro.dns.wire import decode_message, encode_message
from repro.netmodel.addr import IPAddress, Prefix

NAME = DnsName.parse("mask.icloud.com")


def roundtrip(message: DnsMessage) -> DnsMessage:
    return decode_message(encode_message(message))


class TestWireRoundtrip:
    def test_plain_query(self):
        message = DnsMessage.query(NAME, RRType.A, message_id=1234)
        assert roundtrip(message) == message

    def test_ecs_query(self):
        message = DnsMessage.query(
            NAME, RRType.A, message_id=9, ecs=Prefix.parse("203.0.113.0/24")
        )
        decoded = roundtrip(message)
        assert decoded.client_subnet == message.client_subnet
        assert decoded.question == message.question

    def test_response_with_answers(self):
        query = DnsMessage.query(NAME, RRType.A, message_id=3)
        response = query.reply(
            answers=(
                a_record(NAME, IPAddress.parse("17.0.0.1")),
                a_record(NAME, IPAddress.parse("172.224.0.1")),
            ),
            authoritative=True,
            ecs_scope=None,
        )
        decoded = roundtrip(response)
        assert decoded.answer_addresses() == response.answer_addresses()
        assert decoded.authoritative
        assert decoded.is_response

    def test_aaaa_response(self):
        query = DnsMessage.query(NAME, RRType.AAAA, message_id=3)
        response = query.reply(
            answers=(aaaa_record(NAME, IPAddress.parse("2a02:26f7::1")),)
        )
        assert roundtrip(response).answer_addresses() == (
            IPAddress.parse("2a02:26f7::1"),
        )

    def test_nxdomain(self):
        query = DnsMessage.query(NAME, RRType.A)
        decoded = roundtrip(query.reply(rcode=Rcode.NXDOMAIN))
        assert decoded.rcode == Rcode.NXDOMAIN
        assert not decoded.answers

    def test_all_rcodes(self):
        for rcode in (Rcode.NOERROR, Rcode.FORMERR, Rcode.SERVFAIL,
                      Rcode.NXDOMAIN, Rcode.REFUSED):
            decoded = roundtrip(DnsMessage.query(NAME, RRType.A).reply(rcode=rcode))
            assert decoded.rcode == rcode

    def test_txt_record(self):
        rr = txt_record(NAME, "v=spf1", "-all")
        decoded = roundtrip(
            DnsMessage.query(NAME, RRType.TXT).reply(answers=(rr,))
        )
        assert decoded.answers[0].rdata == ("v=spf1", "-all")

    def test_cname_record(self):
        target = DnsName.parse("mask-alias.icloud.com")
        rr = ResourceRecord(NAME, RRType.CNAME, RRClass.IN, 300, target)
        decoded = roundtrip(DnsMessage.query(NAME, RRType.A).reply(answers=(rr,)))
        assert decoded.answers[0].rdata == target

    def test_soa_record(self):
        soa = SoaData(
            mname=DnsName.parse("ns1.icloud.com"),
            rname=DnsName.parse("hostmaster.icloud.com"),
            serial=2022050100,
        )
        rr = ResourceRecord(
            DnsName.parse("icloud.com"), RRType.SOA, RRClass.IN, 900, soa
        )
        message = DnsMessage(
            message_id=1,
            is_response=True,
            question=Question(NAME, RRType.A),
            authorities=(rr,),
        )
        decoded = roundtrip(message)
        assert decoded.authorities[0].rdata == soa

    def test_name_compression_shrinks_output(self):
        answers = tuple(
            a_record(NAME, IPAddress(4, (17 << 24) + i)) for i in range(8)
        )
        response = DnsMessage.query(NAME, RRType.A).reply(answers=answers)
        wire = encode_message(response)
        # With compression each extra record costs ~16 bytes, far less
        # than the 17-byte owner name repeated uncompressed.
        assert len(wire) < 12 + 21 + 8 * 17 + 40

    def test_flags_roundtrip(self):
        message = DnsMessage(
            message_id=11,
            is_response=True,
            opcode=Opcode.QUERY,
            authoritative=True,
            truncated=True,
            recursion_desired=False,
            recursion_available=True,
            rcode=Rcode.REFUSED,
            question=Question(NAME, RRType.A),
        )
        decoded = roundtrip(message)
        assert decoded.truncated
        assert not decoded.recursion_desired
        assert decoded.recursion_available


class TestWireErrors:
    def test_decode_empty(self):
        with pytest.raises(DnsWireError):
            decode_message(b"")

    def test_decode_truncated_header(self):
        with pytest.raises(DnsWireError):
            decode_message(b"\x00" * 11)

    def test_decode_truncated_question(self):
        message = DnsMessage.query(NAME, RRType.A)
        wire = encode_message(message)
        with pytest.raises(DnsWireError):
            decode_message(wire[:-3])

    def test_pointer_loop_rejected(self):
        # Header + a name that points at itself.
        header = (0).to_bytes(2, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + b"\x00" * 6
        loop_name = b"\xc0\x0c"  # pointer to offset 12 (itself)
        question = loop_name + (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
        with pytest.raises(DnsWireError):
            decode_message(header + question)

    def test_decode_garbage(self):
        with pytest.raises(DnsWireError):
            decode_message(b"\xff" * 40)


# ----------------------------------------------------------------------
# Property: arbitrary response messages survive the wire
# ----------------------------------------------------------------------

names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10),
    min_size=1,
    max_size=4,
).map(lambda labels: DnsName(tuple(labels)))

v4_addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(
    lambda v: IPAddress(4, v)
)


@given(
    names,
    st.lists(v4_addresses, min_size=0, max_size=8),
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from(list(Rcode)),
)
def test_response_roundtrip_property(name, addresses, message_id, rcode):
    query = DnsMessage.query(name, RRType.A, message_id=message_id)
    response = query.reply(
        rcode=rcode, answers=tuple(a_record(name, a) for a in addresses)
    )
    decoded = roundtrip(response)
    assert decoded.rcode == rcode
    assert decoded.message_id == message_id
    assert decoded.answer_addresses() == tuple(addresses)


@given(names, st.integers(min_value=0, max_value=32), st.integers(0, (1 << 32) - 1))
def test_ecs_query_roundtrip_property(name, source_len, value):
    subnet = Prefix.from_address(IPAddress(4, value), source_len)
    query = DnsMessage.query(name, RRType.A, ecs=subnet)
    decoded = roundtrip(query)
    assert decoded.client_subnet is not None
    assert decoded.client_subnet.source == subnet
