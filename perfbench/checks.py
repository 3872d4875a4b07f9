"""Correctness checks run at the end of every workload and ladder step.

A failed check raises :class:`CheckFailure`; the command then exits
non-zero without printing a result.  Operations that fail or go
unanswered are a metric (``failed``), not a check failure.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Iterable, Sequence

from repro.obs.audit import state_digest


class CheckFailure(Exception):
    """The program produced a wrong output."""


def _canonical(value):
    """``value`` with every dict replaced by its sorted items, so that two
    equal states pickle to equal bytes whatever their insertion order."""
    if isinstance(value, dict):
        return sorted((k, _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def replica_digest(servant) -> str:
    """Digest of a replica's whole application state."""
    return state_digest(pickle.dumps(_canonical(servant.get_state()),
                                     protocol=4))


def check_audit(label: str, auditors: Sequence) -> None:
    """Every strict auditor finished with zero findings."""
    for auditor in auditors:
        auditor.finish()
        if not auditor.ok:
            raise CheckFailure(f"{label}: {auditor.summary()}")


def check_identical(label: str, servants: Sequence) -> None:
    if any(s is None for s in servants):
        raise CheckFailure(f"{label}: a server replica is missing")
    digests = {replica_digest(s) for s in servants}
    if len(digests) != 1:
        raise CheckFailure(f"{label}: replica state digests differ: "
                           f"{sorted(digests)}")


def check_ledger_replicas(label: str, servants: Sequence, *,
                          acked_writes: Iterable[int],
                          all_acked: bool) -> None:
    """Exactly once on a :class:`~perfbench.servants.LedgerKvStore` group.

    Every replica executed each write at most once, every acked write at
    least once, and — when no operation failed — nothing else.  All
    replicas end in one state.
    """
    check_identical(label, servants)
    acked = set(acked_writes)
    for s in servants:
        counts = Counter(s.write_ids)
        twice = [w for w, n in counts.items() if n > 1]
        if twice:
            raise CheckFailure(f"{label}: writes executed twice: "
                               f"{twice[:5]}")
        missing = acked - counts.keys()
        if missing:
            raise CheckFailure(f"{label}: acked writes never executed: "
                               f"{sorted(missing)[:5]}")
        if all_acked and len(counts) != len(acked):
            raise CheckFailure(f"{label}: {len(counts)} writes executed, "
                               f"{len(acked)} acked")


def check_packet_driver(label: str, driver, servants: Sequence) -> None:
    """Exactly once for the simulator's packet driver: once the driver is
    quiescent, every replica executed each acked echo and scribble once."""
    check_identical(label, servants)
    if driver.sent != driver.acked:
        raise CheckFailure(f"{label}: driver not quiescent "
                           f"({driver.sent} sent, {driver.acked} acked)")
    for s in servants:
        if (s.echo_count, s.scribble_count) != (driver.acked,
                                                driver.scribbles_acked):
            raise CheckFailure(
                f"{label}: replica executed {s.echo_count} echoes and "
                f"{s.scribble_count} scribbles; driver acked "
                f"{driver.acked} and {driver.scribbles_acked}")
