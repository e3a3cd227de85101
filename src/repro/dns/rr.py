"""Resource records.

Covers the record types the measurement pipeline touches: A and AAAA for
the relay domains, CNAME for zone plumbing, TXT for the
``whoami.akamai.net``-style resolver-identity service, NS/SOA for zone
structure, and OPT as the EDNS0 pseudo-record carrier.

Rdata is stored in decoded form (an :class:`IPAddress` for A/AAAA, a
:class:`DnsName` for CNAME/NS, a string tuple for TXT) with conversion to
and from wire bytes handled by :mod:`repro.dns.wire`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.errors import DnsWireError
from repro.dns.name import DnsName
from repro.netmodel.addr import IPAddress


class RRType(enum.IntEnum):
    """DNS record type codes (subset)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    TXT = 16
    AAAA = 28
    OPT = 41

    @classmethod
    def for_ip_version(cls, version: int) -> "RRType":
        """The address record type for an IP version (A or AAAA)."""
        if version == 4:
            return cls.A
        if version == 6:
            return cls.AAAA
        raise DnsWireError(f"no address RR type for IP version {version}")


class RRClass(enum.IntEnum):
    """DNS class codes."""

    IN = 1
    ANY = 255


@dataclass(frozen=True, slots=True)
class SoaData:
    """SOA rdata (zone authority metadata)."""

    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 86400


Rdata = Union[IPAddress, DnsName, tuple[str, ...], SoaData, bytes]


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One RR: owner name, type, class, TTL, and decoded rdata."""

    name: DnsName
    rtype: RRType
    rclass: RRClass
    ttl: int
    rdata: Rdata

    def __post_init__(self) -> None:
        if self.ttl < 0 or self.ttl > 2**31 - 1:
            raise DnsWireError(f"TTL {self.ttl} out of range")
        expected = _RDATA_TYPES.get(self.rtype)
        if expected is not None and not isinstance(self.rdata, expected):
            raise DnsWireError(
                f"{self.rtype.name} rdata must be {expected}, got {type(self.rdata)}"
            )
        if self.rtype in (RRType.A, RRType.AAAA):
            want = 4 if self.rtype == RRType.A else 6
            if self.rdata.version != want:  # type: ignore[union-attr]
                raise DnsWireError(
                    f"{self.rtype.name} record carries IPv{self.rdata.version} address"  # type: ignore[union-attr]
                )

    @property
    def address(self) -> IPAddress:
        """The address of an A/AAAA record (type-checked accessor)."""
        if self.rtype not in (RRType.A, RRType.AAAA):
            raise DnsWireError(f"{self.rtype.name} record has no address")
        assert isinstance(self.rdata, IPAddress)
        return self.rdata

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} {self.rclass.name} {self.rtype.name} {self.rdata}"


_RDATA_TYPES: dict[RRType, type | tuple[type, ...]] = {
    RRType.A: IPAddress,
    RRType.AAAA: IPAddress,
    RRType.CNAME: DnsName,
    RRType.NS: DnsName,
    RRType.TXT: tuple,
    RRType.SOA: SoaData,
    RRType.OPT: bytes,
}


def record_addresses(records) -> tuple[IPAddress, ...]:
    """The addresses of the A/AAAA records among ``records``, in order."""
    return tuple(
        rr.address for rr in records if rr.rtype in (RRType.A, RRType.AAAA)
    )


def a_record(name: DnsName, address: IPAddress, ttl: int = 60) -> ResourceRecord:
    """Convenience constructor for an A record."""
    return ResourceRecord(name, RRType.A, RRClass.IN, ttl, address)


def aaaa_record(name: DnsName, address: IPAddress, ttl: int = 60) -> ResourceRecord:
    """Convenience constructor for an AAAA record."""
    return ResourceRecord(name, RRType.AAAA, RRClass.IN, ttl, address)


def txt_record(name: DnsName, *strings: str, ttl: int = 60) -> ResourceRecord:
    """Convenience constructor for a TXT record."""
    return ResourceRecord(name, RRType.TXT, RRClass.IN, ttl, tuple(strings))
