"""DNS messages.

A :class:`DnsMessage` carries the header flags, question, and the three
record sections.  Factory helpers build the exact query shapes the
scanners send (plain A/AAAA queries, ECS-bearing queries) and the
response shapes the resolver models return (NOERROR with data, NOERROR
without data, NXDOMAIN, REFUSED, SERVFAIL, FORMERR).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import DnsWireError
from repro.dns.edns import ClientSubnetOption, EdnsOptions
from repro.dns.name import DnsName
from repro.dns.rr import RRClass, RRType, ResourceRecord, record_addresses
from repro.netmodel.addr import IPAddress, Prefix


class Opcode(enum.IntEnum):
    """DNS opcodes (only QUERY is used by the pipeline)."""

    QUERY = 0
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """DNS response codes, covering the blocking-study categories."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True, slots=True)
class Question:
    """The question section entry: name, type, class."""

    name: DnsName
    rtype: RRType
    rclass: RRClass = RRClass.IN

    def __str__(self) -> str:
        return f"{self.name} {self.rclass.name} {self.rtype.name}"


@dataclass(frozen=True, slots=True)
class DnsMessage:
    """A DNS query or response."""

    message_id: int = 0
    is_response: bool = False
    opcode: Opcode = Opcode.QUERY
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: Rcode = Rcode.NOERROR
    question: Question | None = None
    answers: tuple[ResourceRecord, ...] = field(default_factory=tuple)
    authorities: tuple[ResourceRecord, ...] = field(default_factory=tuple)
    additionals: tuple[ResourceRecord, ...] = field(default_factory=tuple)
    edns: EdnsOptions | None = None
    #: The A/AAAA addresses of ``answers``, when the message was made
    #: from an already-decoded tuple (see :meth:`reply`); derived data,
    #: so it takes no part in equality or the repr.
    addresses: tuple[IPAddress, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.message_id <= 0xFFFF:
            raise DnsWireError(f"message id {self.message_id} out of range")

    # ------------------------------------------------------------------
    # Query construction
    # ------------------------------------------------------------------

    @classmethod
    def query(
        cls,
        name: DnsName | str,
        rtype: RRType,
        message_id: int = 0,
        ecs: Prefix | None = None,
        recursion_desired: bool = True,
    ) -> "DnsMessage":
        """Build a QUERY, optionally carrying an ECS client subnet."""
        if isinstance(name, str):
            name = DnsName.parse(name)
        edns = None
        if ecs is not None:
            edns = EdnsOptions(client_subnet=ClientSubnetOption(ecs))
        return cls(
            message_id=message_id,
            question=Question(name, rtype),
            recursion_desired=recursion_desired,
            edns=edns,
        )

    # ------------------------------------------------------------------
    # Response construction
    # ------------------------------------------------------------------

    def reply(
        self,
        rcode: Rcode = Rcode.NOERROR,
        answers: tuple[ResourceRecord, ...] = (),
        authoritative: bool = False,
        recursion_available: bool = True,
        ecs_scope: int | None = None,
        addresses: tuple[IPAddress, ...] | None = None,
    ) -> "DnsMessage":
        """Build a response to this query.

        ``ecs_scope`` echoes the query's ECS option with the given scope
        prefix length, per RFC 7871 server behaviour; it is ignored when
        the query carried no ECS option.  ``addresses``, when given, must
        be the A/AAAA addresses of ``answers`` in order:
        :meth:`answer_addresses` then returns it without decoding.
        """
        edns = None
        if self.edns is not None:
            subnet = self.edns.client_subnet
            if subnet is not None and ecs_scope is not None:
                edns = EdnsOptions(client_subnet=subnet.with_scope(ecs_scope))
            elif subnet is not None:
                edns = EdnsOptions(client_subnet=subnet)
            else:
                edns = EdnsOptions()
        return DnsMessage(
            message_id=self.message_id,
            is_response=True,
            opcode=self.opcode,
            authoritative=authoritative,
            recursion_desired=self.recursion_desired,
            recursion_available=recursion_available,
            rcode=rcode,
            question=self.question,
            answers=tuple(answers),
            edns=edns,
            addresses=addresses,
        )

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------

    @property
    def client_subnet(self) -> ClientSubnetOption | None:
        """The ECS option, if the message carries one."""
        return self.edns.client_subnet if self.edns is not None else None

    def answer_addresses(self) -> tuple[IPAddress, ...]:
        """Addresses from all A/AAAA answer records, in order.

        The shared tuple :meth:`reply` was handed, if any
        (the authoritative server passes each relay rotation's), else
        decoded from the records.
        """
        addresses = self.addresses
        if addresses is None:
            addresses = record_addresses(self.answers)
        return addresses

    @property
    def is_nodata(self) -> bool:
        """NOERROR response without answer records ("NOERROR no data")."""
        return self.is_response and self.rcode == Rcode.NOERROR and not self.answers

    def with_id(self, message_id: int) -> "DnsMessage":
        """Copy of the message with a new transaction id."""
        return replace(self, message_id=message_id)
