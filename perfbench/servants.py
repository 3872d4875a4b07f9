"""Application objects the benchmark deploys through the public APIs.

:class:`LedgerKvStore` is the kvstore the paper's experiments use, plus a
ledger of the writes it executed, so the benchmark can check exactly-once
execution on every replica.  :class:`OpenLoopDriver` is the unreplicated
client of the ``live-rw`` workload: it sends whatever the benchmark's
generator hands it, on one connection, and never decides anything itself.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.apps.kvstore import KvStoreServant
from repro.ftcorba.checkpointable import Checkpointable
from repro.giop.ior import IOR
from repro.giop.messages import ReplyMessage
from repro.orb.servant import operation

DRIVER_TYPE = "IDL:perfbench/OpenLoopDriver:1.0"


class LedgerKvStore(KvStoreServant):
    """A kvstore that records the id of every ``put`` it executes."""

    type_id = KvStoreServant.type_id

    def __init__(self, payload_size: int = 0) -> None:
        super().__init__(payload_size)
        self.write_ids: List[int] = []

    @operation
    def put(self, key: str, value: Any) -> bool:
        self.write_ids.append(value)
        return super().put(key, value)

    def get_state(self) -> Any:
        state = super().get_state()
        state["write_ids"] = list(self.write_ids)
        return state

    def set_state(self, state: Any) -> None:
        super().set_state(state)
        self.write_ids = list(state.get("write_ids", ()))


class OpenLoopDriver(Checkpointable):
    """Issues the invocations it is told to; holds no schedule of its own.

    It runs unreplicated, so its state is empty: nothing to recover.
    """

    type_id = DRIVER_TYPE

    def __init__(self, target_ior: str) -> None:
        self._target_ior = target_ior
        self._proxy = None

    def send(self, operation_name: str, args: tuple,
             on_reply: Callable[[ReplyMessage], None]) -> None:
        if self._proxy is None:
            self._proxy = self._eternal_container.connect(
                IOR.from_string(self._target_ior))
        self._proxy.invoke(operation_name, *args, on_reply=on_reply)

    def get_state(self) -> Any:
        return {}

    def set_state(self, state: Any) -> None:
        pass
