"""Inter-process message model.

Messages are small typed envelopes: a ``kind`` string selects the protocol
handler at the destination, ``payload`` carries kind-specific fields. The
simulator never pickles messages — they are passed by reference — but their
*wire size* is computed faithfully by :mod:`repro.net.wire` so that network
overhead numbers (Fig. 5) come out of a real cost model.

Messages are **immutable once sent** (by convention: nothing may mutate a
message after handing it to a transport). :mod:`repro.net.wire` relies on
this to cache the computed wire size directly on the instance, so
a message forwarded over several hops — the Gap chain, the Gapless ring —
is sized exactly once. The class is slot-based rather than a frozen
dataclass: a home simulation creates one instance per keep-alive and
protocol hop, making construction cost a kernel hot path.
"""

from __future__ import annotations

from typing import Any


class Message:
    """One point-to-point message on the home (WiFi/IP) network."""

    __slots__ = ("kind", "src", "dst", "payload", "msg_id", "_wire_bytes")

    def __init__(
        self,
        kind: str,
        src: str,
        dst: str,
        payload: dict[str, Any] | None = None,
        msg_id: int | None = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        # msg_id is an optional caller-supplied tag (debugging, test
        # fixtures). Nothing in the platform consumes it, so no global
        # counter is drawn for it — construction is a kernel hot path.
        self.msg_id = msg_id
        self._wire_bytes: int | None = None

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ",".join(self.payload)
        return f"<Message {self.kind} {self.src}->{self.dst} [{keys}]>"
