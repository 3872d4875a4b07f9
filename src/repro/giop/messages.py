"""GIOP message encoding and decoding.

Every message is a 12-byte GIOP header (magic, version, flags, type, body
size) followed by a CDR body.  We implement the message types Eternal's
interceptor must understand: Request, Reply, CloseConnection, and
MessageError.  Request and reply bodies carry arguments/results as
TypeCode-lite ``any`` values, which keeps the stack self-describing without
compiled IDL stubs.

:func:`peek_request_id` parses only as far as the ``request_id`` field of a
raw byte string — this is the paper's §4.2.1 technique: "by parsing every
outgoing IIOP request message sent by a client-side ORB, Eternal can
discover, and store, the ORB's current setting for the request_id."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ProtocolError, UnmarshalError
from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.giop.service_context import (
    ServiceContext,
    read_service_contexts,
    write_service_contexts,
)
from repro.giop.types import Any, read_any, to_any, write_any

GIOP_MAGIC = b"GIOP"
GIOP_VERSION = (1, 2)
_HEADER_LEN = 12


class MsgType(enum.IntEnum):
    """GIOP message types (OMG CORBA spec, GIOP header octet 7)."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6
    FRAGMENT = 7


class ReplyStatus(enum.IntEnum):
    """GIOP reply status: normal result, user/system exception, forward."""

    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


@dataclass(frozen=True)
class GiopHeader:
    msg_type: MsgType
    size: int
    little_endian: bool = False
    version: tuple = GIOP_VERSION


@dataclass(frozen=True)
class RequestMessage:
    """A GIOP Request: the client's invocation of ``operation`` on the
    object identified by ``object_key`` over one connection."""

    request_id: int
    object_key: bytes
    operation: str
    args: tuple = ()
    response_expected: bool = True
    service_contexts: tuple = ()

    @property
    def oneway(self) -> bool:
        return not self.response_expected


@dataclass(frozen=True)
class ReplyMessage:
    """A GIOP Reply matching the Request with the same ``request_id``."""

    request_id: int
    reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION
    result: object = None
    exception_id: str = ""
    service_contexts: tuple = ()


@dataclass(frozen=True)
class CloseConnectionMessage:
    """Server-initiated orderly connection shutdown."""


@dataclass(frozen=True)
class MessageErrorMessage:
    """Sent when a peer receives an uninterpretable message."""


GiopMessage = Union[RequestMessage, ReplyMessage,
                    CloseConnectionMessage, MessageErrorMessage]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_header(out_body: bytes, msg_type: MsgType,
                   little_endian: bool) -> bytes:
    header = CdrOutputStream(little_endian)
    header.write_raw(GIOP_MAGIC)
    header.write_octet(GIOP_VERSION[0])
    header.write_octet(GIOP_VERSION[1])
    header.write_octet(1 if little_endian else 0)  # flags: bit 0 = endianness
    header.write_octet(int(msg_type))
    header.write_ulong(len(out_body))
    return header.getvalue() + out_body


def encode_message(message: GiopMessage, little_endian: bool = False) -> bytes:
    """Serialize a GIOP message to its full wire form (header + body)."""
    body = CdrOutputStream(little_endian)
    if isinstance(message, RequestMessage):
        write_service_contexts(body, list(message.service_contexts))
        body.write_ulong(message.request_id)
        body.write_boolean(message.response_expected)
        body.write_octets(message.object_key)
        body.write_string(message.operation)
        body.write_ulong(len(message.args))
        for arg in message.args:
            write_any(body, to_any(arg))
        return _encode_header(body.getvalue(), MsgType.REQUEST, little_endian)
    if isinstance(message, ReplyMessage):
        write_service_contexts(body, list(message.service_contexts))
        body.write_ulong(message.request_id)
        body.write_ulong(int(message.reply_status))
        if message.reply_status is ReplyStatus.NO_EXCEPTION:
            write_any(body, to_any(message.result))
        else:
            body.write_string(message.exception_id)
            write_any(body, to_any(message.result))
        return _encode_header(body.getvalue(), MsgType.REPLY, little_endian)
    if isinstance(message, CloseConnectionMessage):
        return _encode_header(b"", MsgType.CLOSE_CONNECTION, little_endian)
    if isinstance(message, MessageErrorMessage):
        return _encode_header(b"", MsgType.MESSAGE_ERROR, little_endian)
    raise ProtocolError(f"cannot encode {type(message).__name__}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_header(data: bytes) -> GiopHeader:
    """Parse the 12-byte GIOP header (magic, version, flags, type, size)."""
    if len(data) < _HEADER_LEN:
        raise ProtocolError(f"short GIOP header: {len(data)} bytes")
    if data[:4] != GIOP_MAGIC:
        raise ProtocolError(f"bad GIOP magic {data[:4]!r}")
    version = (data[4], data[5])
    little = bool(data[6] & 1)
    try:
        msg_type = MsgType(data[7])
    except ValueError as exc:
        raise ProtocolError(f"unknown GIOP message type {data[7]}") from exc
    size_stream = CdrInputStream(data[8:12], little_endian=little)
    size = size_stream.read_ulong()
    return GiopHeader(msg_type, size, little, version)


def decode_message(data: bytes) -> GiopMessage:
    """Parse a full GIOP message from its wire form."""
    header = decode_header(data)
    body_bytes = data[_HEADER_LEN:]
    if len(body_bytes) != header.size:
        raise ProtocolError(
            f"GIOP body size mismatch: header says {header.size}, "
            f"got {len(body_bytes)}"
        )
    body = CdrInputStream(body_bytes, little_endian=header.little_endian)
    if header.msg_type is MsgType.REQUEST:
        contexts = tuple(read_service_contexts(body))
        request_id = body.read_ulong()
        response_expected = body.read_boolean()
        object_key = body.read_octets()
        operation = body.read_string()
        arg_count = body.read_ulong()
        if arg_count > 1_000_000:
            raise UnmarshalError(f"implausible argument count {arg_count}")
        args = tuple(read_any(body) for _ in range(arg_count))
        from repro.giop.types import from_any
        return RequestMessage(
            request_id=request_id,
            object_key=object_key,
            operation=operation,
            args=tuple(from_any(a) for a in args),
            response_expected=response_expected,
            service_contexts=contexts,
        )
    if header.msg_type is MsgType.REPLY:
        contexts = tuple(read_service_contexts(body))
        request_id = body.read_ulong()
        raw_status = body.read_ulong()
        try:
            status = ReplyStatus(raw_status)
        except ValueError as exc:
            raise ProtocolError(f"unknown reply status {raw_status}") from exc
        from repro.giop.types import from_any
        if status is ReplyStatus.NO_EXCEPTION:
            result = from_any(read_any(body))
            exception_id = ""
        else:
            exception_id = body.read_string()
            result = from_any(read_any(body))
        return ReplyMessage(
            request_id=request_id,
            reply_status=status,
            result=result,
            exception_id=exception_id,
            service_contexts=contexts,
        )
    if header.msg_type is MsgType.CLOSE_CONNECTION:
        return CloseConnectionMessage()
    if header.msg_type is MsgType.MESSAGE_ERROR:
        return MessageErrorMessage()
    raise ProtocolError(f"unsupported GIOP message type {header.msg_type!r}")


def peek_request_id(data: bytes,
                    expect: Optional[MsgType] = None) -> Optional[int]:
    """Extract the request_id from raw GIOP bytes without a full decode.

    Returns None for message types that carry no request_id.  This is the
    interceptor's fast path for tracking each connection's ``request_id``
    counter from outside the ORB (paper §4.2.1).  With ``expect`` set, a
    message of any other type raises :class:`ProtocolError`.
    """
    header = decode_header(data)
    if expect is not None and header.msg_type is not expect:
        raise ProtocolError(f"expected a GIOP {expect.name}, "
                            f"got {header.msg_type.name}")
    if header.msg_type not in (MsgType.REQUEST, MsgType.REPLY,
                               MsgType.CANCEL_REQUEST,
                               MsgType.LOCATE_REQUEST, MsgType.LOCATE_REPLY):
        return None
    body = CdrInputStream(data[_HEADER_LEN:],
                          little_endian=header.little_endian)
    if header.msg_type in (MsgType.REQUEST, MsgType.REPLY):
        count = body.read_ulong()
        for _ in range(count):
            body.read_ulong()    # context_id
            body.read_octets()   # context_data
    return body.read_ulong()
