"""Unit tests for multicast envelope encoding."""

import pytest

from repro.core.envelope import (
    GroupUpdate,
    IiopEnvelope,
    ReplicaJoin,
    StateGet,
    StateSet,
    TransferPurpose,
    decode_envelope,
    encode_envelope,
    peek_iiop_target,
)
from repro.core.identifiers import ConnectionKey, OpKind
from repro.errors import ProtocolError

CONN = ConnectionKey("c", "s")


def roundtrip(envelope):
    return decode_envelope(encode_envelope(envelope))


def test_iiop_envelope_roundtrip():
    original = IiopEnvelope(CONN, OpKind.REQUEST, 42, "n1", b"\x01\x02")
    decoded = roundtrip(original)
    assert decoded == original


def test_iiop_target_group_by_kind():
    request = IiopEnvelope(CONN, OpKind.REQUEST, 0, "n", b"")
    reply = IiopEnvelope(CONN, OpKind.REPLY, 0, "n", b"")
    assert request.target_group == "s"
    assert reply.target_group == "c"


def test_iiop_operation_id():
    envelope = IiopEnvelope(CONN, OpKind.REPLY, 9, "n", b"")
    assert envelope.operation_id.request_id == 9
    assert envelope.operation_id.kind is OpKind.REPLY


def test_group_update_roundtrip():
    original = GroupUpdate(
        group_id="g", type_id="IDL:T:1.0", style="warm_passive",
        checkpoint_interval=0.25, app_version=3,
        members=(("n1", "primary", True), ("n2", "backup", False)),
        action="add", subject_node="n2",
    )
    assert roundtrip(original) == original


def test_replica_join_roundtrip():
    assert roundtrip(ReplicaJoin("g", "n3", "rec:g:n3:1")) == \
        ReplicaJoin("g", "n3", "rec:g:n3:1")


def test_state_get_roundtrip():
    original = StateGet("g", "t1", TransferPurpose.RECOVERY, "n1", "n3")
    assert roundtrip(original) == original


def test_state_get_checkpoint_purpose():
    original = StateGet("g", "t1", TransferPurpose.CHECKPOINT, "n1")
    decoded = roundtrip(original)
    assert decoded.purpose is TransferPurpose.CHECKPOINT
    assert decoded.target_node == ""


def test_state_set_roundtrip():
    original = StateSet("g", "t1", TransferPurpose.RECOVERY, "n1", "n3",
                        b"app" * 100, b"orb", b"infra")
    assert roundtrip(original) == original


def test_state_set_size_dominated_by_app_state():
    small = encode_envelope(StateSet("g", "t", TransferPurpose.RECOVERY,
                                     "a", "b", b"", b"", b""))
    big = encode_envelope(StateSet("g", "t", TransferPurpose.RECOVERY,
                                   "a", "b", b"x" * 10_000, b"", b""))
    assert len(big) - len(small) >= 10_000


def test_unknown_tag_rejected():
    with pytest.raises(ProtocolError):
        decode_envelope(b"\x99rest")


def test_encode_rejects_unknown_type():
    with pytest.raises(ProtocolError):
        encode_envelope(object())


# ---------------------------------------------------------------------------
# peek_iiop_target: the routing fast path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(OpKind))
@pytest.mark.parametrize("client,server", [
    ("c", "s"),
    ("driver", "store"),
    ("abc", "abcd"),            # exercise every alignment pad
    ("gr\u00fcppe", "\u5e97-\u00e9"),
    ("", "x"),
])
def test_peek_agrees_with_decode(kind, client, server):
    envelope = IiopEnvelope(ConnectionKey(client, server), kind, 7, "n1",
                            b"\x00" * 13)
    data = encode_envelope(envelope)
    assert peek_iiop_target(data) == decode_envelope(data).target_group
    assert peek_iiop_target(memoryview(data)) == envelope.target_group


@pytest.mark.parametrize("envelope", [
    GroupUpdate("g", "IDL:x:1.0", "active", 0.1, 1, (("n1", "member", True),)),
    ReplicaJoin("g", "n1", "t1"),
    StateGet("g", "t1", TransferPurpose.RECOVERY, "n1"),
    StateSet("g", "t1", TransferPurpose.RECOVERY, "n1", "n2", b"a", b"", b""),
])
def test_peek_returns_none_for_non_iiop_tags(envelope):
    assert peek_iiop_target(encode_envelope(envelope)) is None


def test_peek_rejects_truncated_bytes():
    data = encode_envelope(IiopEnvelope(CONN, OpKind.REQUEST, 1, "n1", b""))
    kind_at = data.index(b"s\x00") + 2
    for cut in range(1, kind_at + 1):
        with pytest.raises(ProtocolError):
            peek_iiop_target(data[:cut])
    with pytest.raises(ProtocolError):
        peek_iiop_target(b"")


def test_peek_rejects_corrupt_bytes():
    data = bytearray(encode_envelope(
        IiopEnvelope(CONN, OpKind.REPLY, 1, "n1", b"")))
    bad_kind = bytearray(data)
    bad_kind[data.index(b"s\x00") + 2] = 9
    with pytest.raises(ProtocolError):
        peek_iiop_target(bytes(bad_kind))
    no_nul = bytearray(data)
    no_nul[9] = ord("x")           # client group's NUL terminator
    with pytest.raises(ProtocolError):
        peek_iiop_target(bytes(no_nul))
    huge = bytearray(data)
    huge[4:8] = (10_000).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        peek_iiop_target(bytes(huge))
    bad_utf8 = bytearray(data)
    bad_utf8[8] = 0xFF              # the reply's target is the client group
    with pytest.raises(ProtocolError):
        peek_iiop_target(bytes(bad_utf8))
