"""Keep-alive failure detection.

"The process local view is generated by exchanging keep-alive messages every
t seconds with other processes" (Section 4.1). The service:

- sends a small keep-alive to every peer each ``interval`` seconds;
- suspects a peer after ``timeout`` seconds of silence (the paper's
  "failure-detection time threshold" is 2 s — Section 8.4);
- starts *optimistic*: all configured peers are assumed alive, matching a
  deployment where processes boot knowing the static device set;
- lets other services piggyback small payloads on keep-alives (the
  execution service ships its processed-event watermarks this way) — one
  message instead of three keeps the failure-free overhead low.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.env import RuntimeEnv
from repro.membership.views import LocalView
from repro.net.message import Message

ViewListener = Callable[[LocalView, frozenset, frozenset], None]
PayloadProvider = Callable[[], dict[str, Any]]
PayloadConsumer = Callable[[str, Any], None]

KEEPALIVE = "keepalive"

#: Slack subtracted from the suspicion watermark so float rounding in
#: ``last_heard + timeout`` can never postpone a scan past the tick on
#: which the full scan would have fired (rounding error is ~1e-9 s at
#: simulated-time magnitudes; an extra scan is harmless, a skipped
#: suspicion would change the trace).
_WATERMARK_MARGIN = 1e-6


class HeartbeatService:
    """Per-process keep-alive exchange and local-view maintenance."""

    # The current view, built on first read after a membership change
    # (derived state: class-level so a restored graph without it rebuilds).
    _view: LocalView | None = None
    view_builds = 0

    def __init__(
        self,
        env: RuntimeEnv,
        *,
        interval: float = 0.5,
        timeout: float = 2.0,
    ) -> None:
        if timeout <= interval:
            raise ValueError(
                f"timeout ({timeout}) must exceed the keep-alive interval ({interval})"
            )
        self._env = env
        self.interval = interval
        self.timeout = timeout
        self._last_heard: dict[str, float] = {}
        self._alive: set[str] = set()
        self._peers: list[str] = []
        # Earliest virtual time any currently-alive peer could possibly be
        # suspected (min last_heard + timeout, less a float-safety margin).
        # Ticks before that skip the _check_suspicions scan entirely; the
        # watermark is a conservative lower bound, so a scan that does run
        # evaluates exactly the same per-peer condition as before — the
        # suspect/unsuspect trace stream is unchanged.
        self._suspect_after = 0.0
        # When the env is simulator-backed, read the virtual clock straight
        # off its scheduler: the keepalive handler asks for the time once
        # per delivery, the hottest query in a quiescent home. Real-time
        # envs (no _scheduler attribute) fall back to env.now(). The same
        # duck-typing gives the tick direct access to the transport's
        # quiescent fan-out lane, skipping the env.multicast frame.
        self._sched = getattr(env, "_scheduler", None)
        net = getattr(env, "_network", None)
        self._net = net if hasattr(net, "send_multicast") else None
        self._listeners: list[ViewListener] = []
        self._providers: dict[str, PayloadProvider] = {}
        # What each provider handed back last tick, and the keep-alive
        # payload assembled from it: reused, same object, until a provider
        # hands back a different one (messages treat payloads as read-only).
        self._provided: dict[str, Any] = {}
        self._payload: dict[str, Any] = {}
        self.payload_builds = 0
        self._consumers: dict[str, PayloadConsumer] = {}
        self._tick_handle = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin exchanging keep-alives; peers start presumed alive."""
        self._env.register_handler(KEEPALIVE, self._on_keepalive)
        now = self._env.now()
        # The deployment's peer set is static; grab the env's cached list
        # once. Reusing the same list object every tick is also what lets
        # the transport's multicast plan validate by identity.
        self._peers = self._env.peers()
        for peer in self._peers:
            self._last_heard[peer] = now
        self._set_alive(add=self._peers)
        self._suspect_after = now + self.timeout - _WATERMARK_MARGIN
        self._running = True
        if self._net is not None:
            # A recovered process: the transport still holds what the last
            # incarnation's keep-alives carried.
            self._net.multicast_payload(self._env.name, KEEPALIVE, self._payload)
        self._tick()
        # One repeating timer for the life of the service instead of a
        # fresh one-shot per tick: 2 timers/s/process in a default home,
        # so this is a scheduler hot path.
        self._tick_handle = self._env.schedule_repeating(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # -- wiring ------------------------------------------------------------------

    def add_view_listener(self, listener: ViewListener) -> None:
        """``listener(view, added, removed)`` on every membership change."""
        self._listeners.append(listener)

    def add_payload_provider(self, key: str, provider: PayloadProvider) -> None:
        """Merge ``provider()`` under ``key`` into every outgoing keep-alive.

        The provider is called every tick and must return the *same object*
        until its value changes, and never mutate a value it has returned:
        the assembled payload and its wire size are reused for as long as
        every provider does, and a sent payload may still be in flight.
        """
        self._providers[key] = provider

    def add_payload_consumer(self, key: str, consumer: PayloadConsumer) -> None:
        """``consumer(sender, value)`` for piggybacked payloads under ``key``."""
        self._consumers[key] = consumer

    # -- view access ----------------------------------------------------------------

    @property
    def view(self) -> LocalView:
        """The same immutable object until membership changes."""
        view = self._view
        if view is None:
            self.view_builds += 1
            self._view = view = LocalView.of(self._env.name, self._alive)
        return view

    def _set_alive(self, add: Iterable[str] = (), remove: Iterable[str] = ()) -> None:
        """The only writer of ``_alive``: a membership change drops the view."""
        self._alive.update(add)
        self._alive.difference_update(remove)
        self._view = None

    def is_alive(self, name: str) -> bool:
        return name == self._env.name or name in self._alive

    # -- internals ---------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        env = self._env
        net = self._net
        if self._providers:
            provided = self._provided
            changed = False
            for key, provider in self._providers.items():
                value = provider()
                if key not in provided or value is not provided[key]:
                    provided[key] = value
                    changed = True
            if changed:
                self.payload_builds += 1
                self._payload = {
                    key: value for key, value in provided.items() if value
                }
                if net is not None:
                    net.multicast_payload(env.name, KEEPALIVE, self._payload)
        # One fan-out call: the wire image is identical per peer. With a
        # simulator transport at hand, offer it to the quiescent fan-out
        # lane, which carries the payload registered above; when the lane
        # refuses (partition, subscribers, kept records, a LatencyModel
        # subclass) or there is no such transport, env.multicast sends per
        # message.
        if (
            net is None
            or not env.alive
            or not net.send_multicast(env.name, self._peers, KEEPALIVE)
        ):
            env.multicast(self._peers, KEEPALIVE, self._payload)
        # No alive peer can have timed out before the watermark (earliest
        # possible deadline, min last_heard + timeout): in a healthy home
        # this skips the scan — and the call — on most ticks.
        sched = self._sched
        now = sched._now if sched is not None else self._env.now()
        if now >= self._suspect_after:
            self._check_suspicions()

    def _check_suspicions(self) -> None:
        now = self._sched._now if self._sched is not None else self._env.now()
        if now < self._suspect_after:
            # The tick path pre-checks the watermark; direct callers (tests,
            # recovery probes) still get the same early-out here.
            return
        timeout = self.timeout
        last_heard = self._last_heard
        suspected = None
        earliest = None
        for peer in self._alive:
            heard = last_heard.get(peer, 0.0)
            if now - heard > timeout:
                if suspected is None:
                    suspected = {peer}
                else:
                    suspected.add(peer)
            elif earliest is None or heard < earliest:
                earliest = heard
        # Survivors can't time out before min(last_heard) + timeout; the
        # margin absorbs float rounding so the gate never skips a tick the
        # full scan would have suspected on. With no survivors, re-check
        # once a peer could possibly have gone silent again.
        base = now if earliest is None else earliest
        self._suspect_after = base + timeout - _WATERMARK_MARGIN
        if suspected:
            self._set_alive(remove=suspected)
            self._env.trace("suspect", peers=sorted(suspected))
            self._notify(added=frozenset(), removed=frozenset(suspected))

    def _on_keepalive(self, message: Message) -> None:
        sender = message.src
        sched = self._sched
        now = sched._now if sched is not None else self._env.now()
        self._last_heard[sender] = now
        # In the steady state the sender is already considered alive: the
        # keep-alive only refreshes its deadline (above) and feeds any
        # piggybacked payload to its consumers.
        returning = sender not in self._alive
        if returning:
            self._set_alive(add=(sender,))
            # A returning peer's deadline (now + timeout) may undercut the
            # stored watermark (e.g. after every peer was suspected); pull
            # it back so the next scan isn't skipped past the deadline.
            deadline = now + self.timeout - _WATERMARK_MARGIN
            if deadline < self._suspect_after:
                self._suspect_after = deadline
            self._env.trace("unsuspect", peer=sender)
        payload = message.payload
        if payload:
            for key, consumer in self._consumers.items():
                if key in payload:
                    consumer(sender, payload[key])
        if returning:
            self._notify(added=frozenset({sender}), removed=frozenset())

    def _notify(self, added: frozenset, removed: frozenset) -> None:
        view = self.view
        for listener in self._listeners:
            listener(view, added, removed)
