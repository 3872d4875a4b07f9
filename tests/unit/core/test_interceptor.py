"""Unit tests for the Eternal Interceptor (request_id rewriting, §4.2.1)."""

import pytest

from repro.core.identifiers import ConnectionKey, OpKind
from repro.core.infra_state import InfraState
from repro.core.interceptor import Interceptor
from repro.core.orb_state import OrbStateTracker
from repro.errors import ProtocolError
from repro.giop.messages import (
    ReplyMessage,
    RequestMessage,
    decode_message,
    encode_message,
)
from repro.orb.objectkey import make_key

KEY = make_key("RootPOA", b"obj")
CONN = ConnectionKey("client-grp", "server-grp")


def build():
    sent = []
    infra = InfraState()
    orb_state = OrbStateTracker()
    interceptor = Interceptor("n1", "client-grp", sent.append, infra,
                              orb_state)
    return interceptor, sent, infra, orb_state


def request_bytes(request_id, operation="op"):
    return encode_message(RequestMessage(request_id=request_id,
                                         object_key=KEY,
                                         operation=operation))


def test_capture_wraps_and_multicasts():
    interceptor, sent, infra, orb_state = build()
    interceptor.capture_client_request("server-grp", 2809, request_bytes(0))
    assert len(sent) == 1
    envelope = sent[0]
    assert envelope.connection == CONN
    assert envelope.kind is OpKind.REQUEST
    assert envelope.request_id == 0
    assert decode_message(envelope.iiop_bytes).request_id == 0


def test_offset_rewrites_outgoing_request_id():
    interceptor, sent, infra, orb_state = build()
    interceptor.set_request_id_offset(CONN, 351)
    interceptor.capture_client_request("server-grp", 2809, request_bytes(0))
    envelope = sent[0]
    assert envelope.request_id == 351
    assert decode_message(envelope.iiop_bytes).request_id == 351


def test_orb_state_observes_wire_ids():
    interceptor, sent, infra, orb_state = build()
    interceptor.set_request_id_offset(CONN, 100)
    interceptor.capture_client_request("server-grp", 2809, request_bytes(2))
    assert orb_state.client_request_ids[CONN] == 102


def test_reissue_suppressed_on_wire_but_awaited():
    interceptor, sent, infra, orb_state = build()
    infra.record_issued(CONN, 5, "op", True)   # already issued pre-crash
    interceptor.set_request_id_offset(CONN, 5)
    interceptor.capture_client_request("server-grp", 2809, request_bytes(0))
    assert sent == []                          # duplicate never multicast
    assert interceptor.suppressed_reissues == 1
    assert infra.awaiting_reply(CONN, 5) == "op"


def test_fresh_ids_after_reissue_are_sent():
    interceptor, sent, infra, orb_state = build()
    infra.record_issued(CONN, 5, "op", True)
    interceptor.set_request_id_offset(CONN, 5)
    interceptor.capture_client_request("server-grp", 2809, request_bytes(0))
    interceptor.capture_client_request("server-grp", 2809, request_bytes(1))
    assert [e.request_id for e in sent] == [6]


def test_incoming_reply_rewritten_back():
    interceptor, sent, infra, orb_state = build()
    interceptor.set_request_id_offset(CONN, 351)
    wire_reply = encode_message(ReplyMessage(request_id=351, result=7))
    local = interceptor.rewrite_incoming_reply(CONN, wire_reply)
    assert decode_message(local).request_id == 0


def test_no_offset_means_no_rewrite():
    interceptor, sent, infra, orb_state = build()
    wire_reply = encode_message(ReplyMessage(request_id=3, result=None))
    assert interceptor.rewrite_incoming_reply(CONN, wire_reply) is wire_reply


def test_server_reply_captured_with_request_id():
    interceptor, sent, infra, orb_state = build()
    reply = encode_message(ReplyMessage(request_id=42, result=None))
    interceptor.capture_server_reply(CONN, reply)
    envelope = sent[0]
    assert envelope.kind is OpKind.REPLY
    assert envelope.request_id == 42
    assert envelope.iiop_bytes is reply


def test_capture_server_reply_rejects_non_reply_message():
    interceptor, sent, infra, orb_state = build()
    with pytest.raises(ProtocolError, match="expected a GIOP REPLY"):
        interceptor.capture_server_reply(CONN, request_bytes(7))
    assert sent == []
