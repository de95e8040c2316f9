"""An eventually-consistent replicated key-value store (Bayou-style).

Design, scoped to what a home needs (and what the paper's fault model
allows — no majorities, any number of processes):

- **last-writer-wins** registers: every write is stamped with a Lamport
  timestamp and the writer's name; ``(lamport, writer)`` orders versions
  totally, so replicas converge regardless of delivery order;
- **eager gossip**: a write is immediately sent to every process in the
  local view (best effort — partitions and crashes lose these);
- **anti-entropy**: every ``sync_interval`` seconds, and on every view
  change, a replica exchanges version summaries with its ring successor
  and ships whatever the peer lacks — this is what heals partitions and
  catches up recovered processes;
- **durability**: the backing map lives in a :class:`StoreBackend` owned by
  the host (like the event journal), so a crash loses nothing that was
  locally applied.

The store never blocks: reads are local, writes are local-then-gossip.
Eventual convergence is the contract — exactly the weakly-connected
replication model of Bayou, which the paper cites for its own successor
synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.env import RuntimeEnv
from repro.membership.heartbeat import HeartbeatService
from repro.membership.views import LocalView
from repro.net.message import Message

STORE_WRITE = "store_write"
STORE_SYNC_QUERY = "store_sync_query"
STORE_SYNC_REPLY = "store_sync_reply"

TOMBSTONE = "__tombstone__"


@dataclass(frozen=True, order=True)
class VersionedValue:
    """One version of one key; ordering is the LWW total order."""

    lamport: int
    writer: str
    value: Any = field(compare=False)

    @property
    def is_tombstone(self) -> bool:
        return self.value == TOMBSTONE


class StoreBackend:
    """Durable backing map for one process (survives crashes)."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.entries: dict[str, VersionedValue] = {}
        self.clock = 0

    def summary(self) -> dict[str, tuple[int, str]]:
        return {k: (v.lamport, v.writer) for k, v in self.entries.items()}


class ReplicatedStore:
    """One process's replica of the home-wide application state."""

    def __init__(
        self,
        env: RuntimeEnv,
        heartbeat: HeartbeatService,
        backend: StoreBackend,
        *,
        sync_interval: float = 5.0,
    ) -> None:
        self._env = env
        self._heartbeat = heartbeat
        self._backend = backend
        self.sync_interval = sync_interval
        self._listeners: list[Callable[[str, Any], None]] = []
        self._tick_handle = None

    def start(self) -> None:
        self._env.register_handler(STORE_WRITE, self._on_write)
        self._env.register_handler(STORE_SYNC_QUERY, self._on_sync_query)
        self._env.register_handler(STORE_SYNC_REPLY, self._on_sync_reply)
        self._heartbeat.add_view_listener(self._on_view_change)
        self._schedule_sync()

    # -- client API ---------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Write locally and gossip to the current view."""
        if value == TOMBSTONE:
            raise ValueError("the tombstone marker is reserved")
        self._write_local(key, value)

    def delete(self, key: str) -> None:
        """Delete via tombstone (so the deletion itself replicates)."""
        self._write_local(key, TOMBSTONE)

    def get(self, key: str, default: Any = None) -> Any:
        entry = self._backend.entries.get(key)
        if entry is None or entry.is_tombstone:
            return default
        return entry.value

    def __contains__(self, key: str) -> bool:
        entry = self._backend.entries.get(key)
        return entry is not None and not entry.is_tombstone

    def keys(self) -> list[str]:
        return sorted(
            k for k, v in self._backend.entries.items() if not v.is_tombstone
        )

    def items(self) -> dict[str, Any]:
        return {k: self._backend.entries[k].value for k in self.keys()}

    def add_listener(self, listener: Callable[[str, Any], None]) -> None:
        """``listener(key, value)`` on every locally applied remote update."""
        self._listeners.append(listener)

    # -- write path --------------------------------------------------------------------

    def _write_local(self, key: str, value: Any) -> None:
        self._backend.clock += 1
        version = VersionedValue(
            lamport=self._backend.clock, writer=self._env.name, value=value
        )
        self._backend.entries[key] = version
        self._env.trace("store_put", key=key, lamport=version.lamport)
        me = self._env.name
        for member in self._heartbeat.view.ring:
            if member != me:
                self._send_version(member, key, version)

    def _send_version(self, dst: str, key: str, version: VersionedValue) -> None:
        self._env.send(
            dst, STORE_WRITE, key=key, lamport=version.lamport,
            writer=version.writer, value=version.value,
        )

    def _apply(self, key: str, version: VersionedValue) -> bool:
        """LWW merge; returns True if the version won."""
        self._backend.clock = max(self._backend.clock, version.lamport)
        current = self._backend.entries.get(key)
        if current is not None and current >= version:
            return False
        self._backend.entries[key] = version
        for listener in self._listeners:
            listener(key, None if version.is_tombstone else version.value)
        return True

    def _on_write(self, message: Message) -> None:
        version = VersionedValue(
            lamport=message["lamport"], writer=message["writer"],
            value=message["value"],
        )
        self._apply(message["key"], version)

    # -- anti-entropy -------------------------------------------------------------------------

    def _schedule_sync(self) -> None:
        self._tick_handle = self._env.schedule(self.sync_interval, self._sync_tick)

    def _sync_tick(self) -> None:
        self._sync_with_successor(self._heartbeat.view)
        self._schedule_sync()

    def _on_view_change(self, view: LocalView, added: frozenset, removed: frozenset) -> None:
        if added:
            # A peer recovered or a partition healed: reconcile promptly.
            self._sync_with_successor(view)

    def _sync_with_successor(self, view: LocalView) -> None:
        successor = view.ring_successor()
        if successor is None:
            return
        self._env.send(
            successor, STORE_SYNC_QUERY, summary=self._backend.summary()
        )

    def _on_sync_query(self, message: Message) -> None:
        """Send back every version the querier lacks, and pull what we lack."""
        peer_summary: dict[str, Any] = message["summary"]
        for key, version in self._backend.entries.items():
            peer_version = peer_summary.get(key)
            if peer_version is None or tuple(peer_version) < (version.lamport,
                                                              version.writer):
                self._send_version(message.src, key, version)
        # Keys the peer has that we lack (or has newer): ask for them by
        # replying with our summary, closing the loop in one round trip.
        missing = [
            key for key, stamp in peer_summary.items()
            if key not in self._backend.entries
            or (self._backend.entries[key].lamport,
                self._backend.entries[key].writer) < tuple(stamp)
        ]
        if missing:
            self._env.send(message.src, STORE_SYNC_REPLY, keys=missing)

    def _on_sync_reply(self, message: Message) -> None:
        for key in message["keys"]:
            version = self._backend.entries.get(key)
            if version is not None:
                self._send_version(message.src, key, version)
