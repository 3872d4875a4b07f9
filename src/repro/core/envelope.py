"""Multicast envelopes: everything Eternal sends over Totem.

Application IIOP traffic travels in :class:`IiopEnvelope` (the captured GIOP
bytes plus the operation identifier Eternal derived for them).  Group
administration and the state-transfer protocol travel in control envelopes.
All envelopes serialize to real bytes (CDR) so the network model charges
honest transmission time — in particular a :class:`StateSet` carrying a
large application state produces a proportionally large multicast message,
which Totem fragments at the Ethernet MTU: the mechanism behind Figure 6.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import ProtocolError
from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.core.identifiers import (
    ConnectionKey,
    OperationId,
    OpKind,
    invocation_trace_id,
)


class TransferPurpose(enum.Enum):
    """Why a state transfer is happening (§5.1 recovery vs §3.3 checkpoint)."""

    RECOVERY = 0      # synchronizing a new/recovered replica (§5.1)
    CHECKPOINT = 1    # periodic state retrieval for passive styles (§3.3)


@dataclass(frozen=True)
class IiopEnvelope:
    """A captured IIOP message plus Eternal's routing/dedup metadata."""

    connection: ConnectionKey
    kind: OpKind
    request_id: int
    sender_node: str
    iiop_bytes: bytes

    @property
    def operation_id(self) -> OperationId:
        return OperationId(self.connection, self.request_id, self.kind)

    @property
    def trace_id(self) -> str:
        """End-to-end invocation trace id — derived, never serialized.

        Computed from fields already on the wire, so tracing adds no
        bytes to the charged envelope: at wire-bound load even ~20 bytes
        per small envelope measurably shifts the saturation knee.
        """
        return invocation_trace_id(self.connection, self.request_id)

    @property
    def target_group(self) -> str:
        """Requests go to the server group; replies to the client group."""
        if self.kind is OpKind.REQUEST:
            return self.connection.server_group
        return self.connection.client_group


@dataclass(frozen=True)
class GroupUpdate:
    """Replication Manager: authoritative group-membership update.

    Carries the *full* membership (node, role, operational) so that a node
    that just rejoined the ring can rebuild its group view from any single
    update.  ``action`` selects the side effect at the affected node:

    * ``create`` — initial deployment; every listed member instantiates its
      replica, already consistent (identical initial state), and starts it;
    * ``add`` — ``subject_node`` instantiates a new replica and announces a
      :class:`ReplicaJoin` to start recovery;
    * ``remove`` — ``subject_node`` destroys its replica;
    * ``sync`` — membership bookkeeping only.
    """

    group_id: str
    type_id: str
    style: str                 # ReplicationStyle.value
    checkpoint_interval: float
    app_version: int
    members: Tuple[Tuple[str, str, bool], ...]  # (node, role, operational)
    action: str = "sync"
    subject_node: str = ""
    fault_monitoring_interval: float = 0.05
    max_log_messages: int = 0


@dataclass(frozen=True)
class ReplicaJoin:
    """Announced by the node hosting a newly launched replica; its delivery
    position starts the recovery protocol for that replica.

    ``base_digest`` is the app-state digest of the announcer's last
    committed checkpoint (empty if it has none): responders whose own
    checkpoint matches may answer with a page-level delta instead of the
    full snapshot (see :mod:`repro.core.statedelta`).

    ``bulk_ok`` advertises that the announcer can fetch large snapshots
    over the out-of-band bulk lane (:mod:`repro.core.bulk`); responders
    then multicast only a page manifest and serve the bytes
    point-to-point.  Cleared on the in-order fallback re-announce.

    ``store_position`` advertises how far the announcer's *durable* store
    covers the group's message stream: ``-1`` means no store is
    configured, ``0`` a configured but empty journal, and a positive
    value the highest journaled local log position.  When no live member
    can answer the join (whole-cluster restart), these values elect the
    cold-boot seed (see
    :meth:`repro.core.recovery.RecoveryMechanisms.handle_cold_seed`)."""

    group_id: str
    node_id: str
    transfer_id: str
    base_digest: str = ""
    bulk_ok: bool = False
    store_position: int = -1


@dataclass(frozen=True)
class StateGet:
    """The fabricated ``get_state()`` marker in the total order (§5.1 i).

    ``base_digest`` names the shared base snapshot a delta-encoded reply
    may be computed against (empty requests a full snapshot); ``bulk_ok``
    carries the target's bulk-lane capability through to the responders."""

    group_id: str
    transfer_id: str
    purpose: TransferPurpose
    initiator: str
    target_node: str = ""      # RECOVERY: the node being synchronized
    base_digest: str = ""
    bulk_ok: bool = False


@dataclass(frozen=True)
class ReplicaFault:
    """A fault detector's report: a replica on a (live) node is faulty.

    Travels in the total order so every node — and the Replication Manager
    — learns of the fault at the same logical point (FT-CORBA pull
    monitoring at the fault monitoring interval, paper §2)."""

    group_id: str
    node_id: str
    reason: str = "unresponsive"


@dataclass(frozen=True)
class ColdSeed:
    """A cold-boot candidate claims the seed role for a whole-dead group.

    When every replica of a group is gone — full-cluster power loss — no
    member can answer a :class:`ReplicaJoin`, and §5.1 recovery has
    nothing to ladder from.  A restarting node with a durable store waits
    out a short bid window collecting the ``store_position`` values from
    its peers' join announcements; the best-covered candidate (ties to
    the lowest node id) multicasts ``ColdSeed``.  Its delivery in the
    total order is the group's rebirth point: every node marks the seed
    operational, the seed restores from its journal and replays its local
    log, and everyone else recovers from the seed over the ordinary
    ladder — now with a live responder."""

    group_id: str
    node_id: str
    transfer_id: str
    store_position: int = 0


@dataclass(frozen=True)
class NodeRestarted:
    """A node's stack re-launched with a fresh incarnation.

    A process that restarts faster than the token timeout never leaves the
    ring view, so membership alone cannot reveal that its replicas'
    volatile state is gone.  The rebuilt stack announces itself in the
    total order; every node drops the announcer's (dead) members at the
    same logical point, and the Replication Manager re-places them."""

    node_id: str
    incarnation: int


#: Versioned ``StateSet`` body layouts: a full encoded snapshot, a
#: page-level delta (:func:`repro.core.statedelta.encode_delta`) against
#: the receiver's last committed checkpoint, or a page manifest
#: (:func:`repro.core.bulk.encode_manifest`) whose pages travel over the
#: out-of-band bulk lane.
STATE_BODY_FULL = 0
STATE_BODY_DELTA = 1
STATE_BODY_MANIFEST = 2


@dataclass(frozen=True)
class StateSet:
    """The fabricated ``set_state()`` with the piggybacked ORB/POA-level
    and infrastructure-level state (§5.1 iv-v).

    ``app_state`` is a versioned body: the full encoded snapshot when
    ``app_delta`` and ``app_manifest`` are False, an encoded
    :class:`~repro.core.statedelta.StateDelta` the receiver must apply to
    its own base checkpoint when ``app_delta``, or an encoded
    :class:`~repro.core.bulk.PageManifest` when ``app_manifest`` — the
    snapshot's integrity summary, with the pages themselves fetched
    point-to-point over the out-of-band bulk lane."""

    group_id: str
    transfer_id: str
    purpose: TransferPurpose
    source_node: str
    target_node: str
    app_state: bytes
    orb_state: bytes
    infra_state: bytes
    app_delta: bool = False
    app_manifest: bool = False


Envelope = Union[IiopEnvelope, GroupUpdate, ReplicaJoin, StateGet, StateSet,
                 ReplicaFault, NodeRestarted, ColdSeed]

_TAG_IIOP = 1
_TAG_GROUP_UPDATE = 2
_TAG_REPLICA_JOIN = 5
_TAG_STATE_GET = 6
_TAG_STATE_SET = 7
_TAG_REPLICA_FAULT = 8
_TAG_NODE_RESTARTED = 9
_TAG_COLD_SEED = 10


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope for multicast."""
    out = CdrOutputStream()
    if isinstance(envelope, IiopEnvelope):
        out.write_octet(_TAG_IIOP)
        out.write_string(envelope.connection.client_group)
        out.write_string(envelope.connection.server_group)
        out.write_octet(envelope.kind.value)
        out.write_ulong(envelope.request_id)
        out.write_string(envelope.sender_node)
        out.write_octets(envelope.iiop_bytes)
    elif isinstance(envelope, GroupUpdate):
        out.write_octet(_TAG_GROUP_UPDATE)
        out.write_string(envelope.group_id)
        out.write_string(envelope.type_id)
        out.write_string(envelope.style)
        out.write_double(envelope.checkpoint_interval)
        out.write_ulong(envelope.app_version)
        out.write_ulong(len(envelope.members))
        for node_id, role, operational in envelope.members:
            out.write_string(node_id)
            out.write_string(role)
            out.write_boolean(operational)
        out.write_string(envelope.action)
        out.write_string(envelope.subject_node)
        out.write_double(envelope.fault_monitoring_interval)
        out.write_ulong(envelope.max_log_messages)
    elif isinstance(envelope, ReplicaJoin):
        out.write_octet(_TAG_REPLICA_JOIN)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.transfer_id)
        out.write_octets(envelope.base_digest.encode("ascii"))
        out.write_boolean(envelope.bulk_ok)
        out.write_longlong(envelope.store_position)
    elif isinstance(envelope, StateGet):
        out.write_octet(_TAG_STATE_GET)
        out.write_string(envelope.group_id)
        out.write_string(envelope.transfer_id)
        out.write_octet(envelope.purpose.value)
        out.write_string(envelope.initiator)
        out.write_string(envelope.target_node)
        out.write_octets(envelope.base_digest.encode("ascii"))
        out.write_boolean(envelope.bulk_ok)
    elif isinstance(envelope, StateSet):
        out.write_octet(_TAG_STATE_SET)
        out.write_string(envelope.group_id)
        out.write_string(envelope.transfer_id)
        out.write_octet(envelope.purpose.value)
        out.write_string(envelope.source_node)
        out.write_string(envelope.target_node)
        if envelope.app_manifest:
            body_kind = STATE_BODY_MANIFEST
        elif envelope.app_delta:
            body_kind = STATE_BODY_DELTA
        else:
            body_kind = STATE_BODY_FULL
        out.write_octet(body_kind)
        out.write_octets(envelope.app_state)
        out.write_octets(envelope.orb_state)
        out.write_octets(envelope.infra_state)
    elif isinstance(envelope, ReplicaFault):
        out.write_octet(_TAG_REPLICA_FAULT)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.reason)
    elif isinstance(envelope, NodeRestarted):
        out.write_octet(_TAG_NODE_RESTARTED)
        out.write_string(envelope.node_id)
        out.write_ulong(envelope.incarnation)
    elif isinstance(envelope, ColdSeed):
        out.write_octet(_TAG_COLD_SEED)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.transfer_id)
        out.write_longlong(envelope.store_position)
    else:
        raise ProtocolError(f"cannot encode envelope {type(envelope).__name__}")
    return out.getvalue()


_ULONG = struct.Struct(">I")


def peek_iiop_target(data: bytes) -> Optional[str]:
    """The target group of an encoded :class:`IiopEnvelope`, read off the
    bytes without decoding the envelope; ``None`` for any other tag.

    Lets a node that hosts no replica of the target group drop the
    envelope before paying for :func:`decode_envelope`.  The offsets
    follow :func:`encode_envelope`: the tag octet, the client and server
    group strings (each a 4-aligned CDR ulong length counting the NUL,
    then the bytes), then the kind octet.  Raises :class:`ProtocolError`
    on truncated or corrupt bytes.
    """
    try:
        if data[0] != _TAG_IIOP:
            return None
        client_len = _ULONG.unpack_from(data, 4)[0]
        server_at = (8 + client_len + 3) & ~3
        server_len = _ULONG.unpack_from(data, server_at)[0]
        kind = data[server_at + 4 + server_len]
    except (IndexError, struct.error) as exc:
        raise ProtocolError(f"malformed envelope: truncated ({exc})") from exc
    if kind == OpKind.REQUEST.value:
        start, length = server_at + 4, server_len
    elif kind == OpKind.REPLY.value:
        start, length = 8, client_len
    else:
        raise ProtocolError(f"malformed envelope: unknown OpKind {kind}")
    if length == 0 or data[start + length - 1] != 0:
        raise ProtocolError("malformed envelope: group name missing NUL")
    try:
        return str(data[start:start + length - 1], "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed envelope: {exc}") from exc


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope`."""
    try:
        return _decode_envelope(data)
    except ValueError as exc:
        # invalid enum discriminants in hostile/corrupted bytes
        raise ProtocolError(f"malformed envelope: {exc}") from exc


def _decode_envelope(data: bytes) -> Envelope:
    inp = CdrInputStream(data)
    tag = inp.read_octet()
    if tag == _TAG_IIOP:
        connection = ConnectionKey(inp.read_string(), inp.read_string())
        kind = OpKind(inp.read_octet())
        request_id = inp.read_ulong()
        sender_node = inp.read_string()
        iiop_bytes = inp.read_octets()
        return IiopEnvelope(connection, kind, request_id, sender_node,
                            iiop_bytes)
    if tag == _TAG_GROUP_UPDATE:
        group_id = inp.read_string()
        type_id = inp.read_string()
        style = inp.read_string()
        checkpoint_interval = inp.read_double()
        app_version = inp.read_ulong()
        count = inp.read_ulong()
        members = tuple(
            (inp.read_string(), inp.read_string(), inp.read_boolean())
            for _ in range(count)
        )
        action = inp.read_string()
        subject_node = inp.read_string()
        fault_monitoring_interval = inp.read_double()
        max_log_messages = inp.read_ulong()
        return GroupUpdate(group_id, type_id, style, checkpoint_interval,
                           app_version, members, action, subject_node,
                           fault_monitoring_interval, max_log_messages)
    if tag == _TAG_REPLICA_JOIN:
        return ReplicaJoin(inp.read_string(), inp.read_string(),
                           inp.read_string(),
                           str(inp.read_octets(), "ascii"),
                           inp.read_boolean(),
                           inp.read_longlong())
    if tag == _TAG_STATE_GET:
        return StateGet(inp.read_string(), inp.read_string(),
                        TransferPurpose(inp.read_octet()),
                        inp.read_string(), inp.read_string(),
                        str(inp.read_octets(), "ascii"),
                        inp.read_boolean())
    if tag == _TAG_STATE_SET:
        group_id = inp.read_string()
        transfer_id = inp.read_string()
        purpose = TransferPurpose(inp.read_octet())
        source_node = inp.read_string()
        target_node = inp.read_string()
        body_kind = inp.read_octet()
        if body_kind not in (STATE_BODY_FULL, STATE_BODY_DELTA,
                             STATE_BODY_MANIFEST):
            raise ProtocolError(f"unknown StateSet body kind {body_kind}")
        return StateSet(group_id, transfer_id, purpose, source_node,
                        target_node, inp.read_octets(), inp.read_octets(),
                        inp.read_octets(),
                        app_delta=body_kind == STATE_BODY_DELTA,
                        app_manifest=body_kind == STATE_BODY_MANIFEST)
    if tag == _TAG_REPLICA_FAULT:
        return ReplicaFault(inp.read_string(), inp.read_string(),
                            inp.read_string())
    if tag == _TAG_NODE_RESTARTED:
        return NodeRestarted(inp.read_string(), inp.read_ulong())
    if tag == _TAG_COLD_SEED:
        return ColdSeed(inp.read_string(), inp.read_string(),
                        inp.read_string(), inp.read_longlong())
    raise ProtocolError(f"unknown envelope tag {tag}")
