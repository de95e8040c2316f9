"""TCP-like transport between Rivulet processes over the home network.

Guarantees (Section 3.1's assumptions):

- **reliable, in-order point-to-point delivery** between live, connected
  processes — messages between a pair never overtake each other;
- messages to a crashed process, or across a partition, are silently lost
  (the sender learns about failures only through the membership layer);
- a message in flight when the destination crashes or a partition appears is
  lost at delivery time.

The transport also does all network-overhead accounting: every transmitted
message is traced with its wire size so that Fig. 5 is a pure function of
the trace.

Hot-path design (see docs/performance.md): :meth:`HomeNetwork.send` is the
single most expensive function in a long run, so everything it needs per
``(src, dst)`` pair — both endpoint objects, the FIFO delivery horizon and
the pre-resolved trace channels — lives in one cached list, resolved with
one dictionary lookup per send. The stock latency formula is inlined
there bit-identically (same operations, same order as
:meth:`repro.net.latency.LatencyModel.message_delay`; a subclass's own
``message_delay`` is called instead), and the no-partition common case is
a single attribute test.

A quiescent keep-alive fan-out takes :meth:`HomeNetwork.send_multicast`,
which replays a cached per-source plan in one peer loop; it refuses, and
the caller sends per message, under a partition, an observed
``net_send``, or a :class:`~repro.net.latency.LatencyModel` subclass.
Every copy, whichever path posted it, is delivered by
:meth:`HomeNetwork._deliver`.
"""

from __future__ import annotations

from heapq import heappush
from types import MappingProxyType
from typing import Mapping, Protocol

from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.partition import PartitionState
from repro.net.wire import wire_size
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import _FLUSH_BYTES, _PACK_D, Trace

# _pair_cache entry layout: one list per (src, dst) pair ever used on the
# send path, so one dict lookup resolves everything `send` needs.
_SENDER = 0    # src endpoint object, or None if src is not registered
_DST = 1       # dst endpoint object (registration is checked at creation)
_HORIZON = 2   # earliest next delivery time: enforces FIFO ordering
_SEND = 3      # MessageChannel for net_send records
_DELIVER = 4   # MessageChannel for net_deliver records
_DROP = 5      # MessageChannel for net_drop records, created on first drop
_HANDLERS = 6  # dst's live handler dict (same object for its lifetime), or
               # None for foreign Endpoint implementations — lets delivery
               # dispatch straight to the handler without a method frame

_NO_PAIRS: dict[str, list] = {}
"""Shared empty per-src pair map (read-only default for cache misses)."""

# _mcast_plans entry layout: one cached delivery plan per multicast source,
# valid for one exact (dsts sequence, kind, membership epoch) combination.
# See send_multicast for what qualifies as the quiescent fast path.
_MP_DSTS = 0    # the dsts sequence the plan was built for (identity check)
_MP_KIND = 1    # message kind the plan was built for
_MP_EPOCH = 2   # membership epoch at build time
_MP_STATE = 3   # the shared per-kind trace state list for net_send
_MP_TALLY = 4   # the shared (net_send, kind) sub-tally cell
_MP_SENDER = 5  # src endpoint object (None if src never registered)
_MP_NBYTES = 6  # precomputed wire size (identical for every copy)
_MP_PEERS = 7   # per-peer (pair entry, post tuple, net_send pair cell, net_send
                # digest suffix); the post is (_deliver, (entry, message, and
                # the copy's net_deliver cells and suffix))
_MP_TBYTES = 8  # n * nbytes — the per-tick aggregate byte increment
_MP_LAT = 9     # latency model the cached delay block was computed from
_MP_LIVE = 10   # live process count it was computed for
_MP_DELAY = 11  # pre-jitter delay, LatencyModel.message_delay without rng
_MP_NEG = 12    # jitter expansion intermediates (see RandomSource.jittered)
_MP_SPAN = 13

_UNREGISTERED = (None, None)
"""(payload, wire size) of a fan-out nobody registered: empty, sized on build."""

_REFUSAL_CAUSES = ("partition", "subscriber", "kept")
"""Why send_multicast hands a fan-out back: the keys of ``lane_refusals``."""


class Endpoint(Protocol):
    """What the transport needs from a registered process."""

    name: str

    @property
    def alive(self) -> bool: ...

    def deliver(self, message: Message) -> None: ...


class HomeNetwork:
    """The single home WiFi network connecting all Rivulet processes."""

    def __init__(
        self,
        scheduler: Scheduler,
        rng: RandomSource,
        trace: Trace,
        latency: LatencyModel | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._rng = rng.child("home-network")
        # Bound method of the stream's underlying Random: the jitter draw
        # is inlined in `send` (bit-identically to RandomSource.jittered).
        self._random = self._rng._rng.random
        self._trace = trace
        self.latency = latency or LatencyModel()
        self.partition = PartitionState()
        self._endpoints: dict[str, Endpoint] = {}
        self._endpoints_view: Mapping[str, Endpoint] = MappingProxyType(
            self._endpoints
        )
        # src -> dst -> cached pair entry (see the layout constants above).
        # Nested rather than tuple-keyed so the send path pays two interned-
        # string lookups instead of allocating and hashing a tuple per call.
        self._pair_cache: dict[str, dict[str, list]] = {}
        self._live_count_cache: int | None = None
        # src -> cached quiescent multicast plan (see the _MP_* layout);
        # _mcast_epoch invalidates every plan on membership changes.
        self._mcast_plans: dict[str, list] = {}
        self._mcast_epoch = 0
        # (src, kind) -> (payload, wire size): what src's fan-outs of kind
        # carry, registered by the sender when it changes (multicast_payload).
        self._mcast_payloads: dict[tuple[str, str], tuple[dict, int]] = {}
        # Lane counters, bumped off the fast path only (see Home.stats).
        self.plan_builds = 0
        self.plan_repayloads = 0
        self.lane_refusals = dict.fromkeys(_REFUSAL_CAUSES, 0)

    def __getstate__(self) -> dict:
        # Two members don't pickle: the MappingProxyType endpoint view and
        # the bound builtin `Random.random` used by the inlined jitter
        # draw. Both are derived state — drop and rebuild on restore.
        state = self.__dict__.copy()
        del state["_endpoints_view"]
        del state["_random"]
        # Multicast plans are pure caches over the pair cache, the payload
        # table and trace aggregates; rebuild lazily after restore instead
        # of pickling the cached Message/post-tuple web. The table itself is
        # pickled: the memo keeps each payload the object its sender holds.
        state["_mcast_plans"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._endpoints_view = MappingProxyType(self._endpoints)
        self._random = self._rng._rng.random

    def register(self, endpoint: Endpoint) -> None:
        name = endpoint.name
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = endpoint
        self._live_count_cache = None
        # Membership changed: every cached multicast plan may hold a stale
        # sender slot or a stale peer set, so force rebuilds.
        self._mcast_epoch += 1
        # Pairs cached while `name` was an unregistered sender hold a stale
        # None in the sender slot; patch them so crash gating works.
        for entry in self._pair_cache.get(name, _NO_PAIRS).values():
            entry[_SENDER] = endpoint

    @property
    def endpoints(self) -> Mapping[str, Endpoint]:
        """A live, **read-only** view of the registered endpoints.

        Previously this returned a fresh dict copy per access; callers that
        want a snapshot must now copy explicitly (``dict(net.endpoints)``).
        """
        return self._endpoints_view

    def liveness_changed(self) -> None:
        """Invalidate the live-process cache (a process crashed/recovered)."""
        self._live_count_cache = None

    def live_process_count(self) -> int:
        count = self._live_count_cache
        if count is None:
            count = sum(1 for e in self._endpoints.values() if e.alive)
            self._live_count_cache = count
        return count

    def _pair_entry(self, src: str, dst: str) -> list:
        dst_endpoint = self._endpoints.get(dst)
        if dst_endpoint is None:
            raise KeyError(f"unknown destination process {dst!r}")
        trace = self._trace
        entry = [
            self._endpoints.get(src),
            dst_endpoint,
            0.0,
            trace.message_channel("net_send", src, dst),
            trace.message_channel("net_deliver", src, dst),
            None,
            getattr(dst_endpoint, "_handlers", None),
        ]
        self._pair_cache.setdefault(src, {})[dst] = entry
        return entry

    def _drop_channel(self, entry: list, src: str, dst: str):
        channel = entry[_DROP]
        if channel is None:
            entry[_DROP] = channel = self._trace.message_channel(
                "net_drop", src, dst
            )
        return channel

    def send(self, message: Message) -> None:
        """Transmit ``message``; delivery is scheduled, loss is possible.

        Wire bytes are accounted whenever the sender actually puts the
        message on the network (sender alive and not knowingly cut off).
        """
        src = message.src
        dst = message.dst
        entry = self._pair_cache.get(src, _NO_PAIRS).get(dst)
        if entry is None:
            entry = self._pair_entry(src, dst)
        sender = entry[_SENDER]
        if sender is not None and not sender.alive:
            # A crashed process performs no activity; guard against stray
            # timers firing after a crash.
            return

        scheduler = self._scheduler
        now = scheduler._now
        partition = self.partition
        if partition.group_of is not None and not partition.can_communicate(src, dst):
            # TCP connect/retransmit fails; the payload never transits —
            # don't pay for sizing a message that never hits the wire.
            self._drop_channel(entry, src, dst).record(
                now, message.kind, None, "partition"
            )
            return

        bytes_on_wire = message._wire_bytes
        if bytes_on_wire is None:
            bytes_on_wire = wire_size(message)
        entry[_SEND].record(now, message.kind, bytes_on_wire)

        live = self._live_count_cache
        if live is None:
            live = self.live_process_count()
        lat = self.latency
        if type(lat) is LatencyModel:
            # LatencyModel.message_delay, inlined bit-identically (same ops
            # in the same order); adding the congestion term only when
            # non-zero is exact because delay + 0.0 == delay for the
            # positive delays here.
            delay = (
                lat.base_latency
                + bytes_on_wire / lat.bandwidth_bytes_per_s
                + bytes_on_wire * lat.serialization_s_per_byte
            )
            extra = live - 2
            if extra > 0:
                delay += extra * lat.congestion_per_process
            # RandomSource.jittered inlined (same expansion, same single draw).
            fraction = lat.jitter_fraction
            u = -fraction + (fraction - -fraction) * self._random()
            delay = delay * (1.0 + u)
        else:  # a subclass: its own message_delay
            delay = lat.message_delay(bytes_on_wire, live, self._rng)

        deliver_at = now + delay
        # In-order delivery per (src, dst) pair, like a TCP stream.
        horizon = entry[_HORIZON]
        if deliver_at <= horizon:
            deliver_at = horizon + 1e-9
        entry[_HORIZON] = deliver_at
        # Scheduler.post_at inlined (a bare post on an empty instant,
        # promoted to a list on a taken one, appended to a list):
        # deliver_at > now always holds here — delay is strictly positive
        # and the FIFO horizon only pushes forward — so the past-check and
        # the call frame are pure overhead on this hottest of paths.
        post = (self._deliver, (entry, message))
        buckets = scheduler._buckets
        bucket = buckets.get(deliver_at)
        if bucket is None:
            buckets[deliver_at] = post
            heappush(scheduler._heap, deliver_at)
        elif type(bucket) is tuple:
            buckets[deliver_at] = [bucket, post]
        else:
            bucket.append(post)
        scheduler._live += 1

    def _build_mcast_plan(self, src: str, dsts, kind: str) -> list:
        """Precompute everything a quiescent multicast needs per peer.

        One cached :class:`Message` per peer (the registered payload, or
        an empty one → identical wire image, sized once; messages are
        immutable once sent, so reusing the instance across ticks is safe
        even with copies in flight), its resolved pair entry, the
        ready-to-post delivery tuple, and the constant digest suffix.
        Raises ``KeyError`` for unknown destinations exactly as the
        per-message path would.
        """
        self.plan_builds += 1
        peers = []
        sender = None
        payload, nbytes = self._mcast_payloads.get((src, kind), _UNREGISTERED)
        state = tally = None
        for dst in dsts:
            entry = self._pair_cache.get(src, _NO_PAIRS).get(dst)
            if entry is None:
                entry = self._pair_entry(src, dst)
            sender = entry[_SENDER]
            message = Message(kind, src, dst, payload)
            if nbytes is None:
                nbytes = wire_size(message)
            message._wire_bytes = nbytes
            # One per-kind state list and one (net_send, kind) tally cell
            # are shared by every channel of the kind.
            state, tally, pair_cell, suffix = entry[_SEND].bind(kind, nbytes)
            # The delivery side is just as predictable as the send side:
            # the copy's (src, dst, kind) are fixed, so the net_deliver
            # aggregate cells and digest suffix are prebound into the
            # posted callback, and _deliver bumps them without a channel
            # call. Crash/partition checks stay per-delivery (they read
            # live state).
            post = (self._deliver, (entry, message, *entry[_DELIVER].bind(kind)))
            peers.append((entry, post, pair_cell, suffix))
        plan = [dsts, kind, self._mcast_epoch, state, tally, sender,
                nbytes, peers, len(peers) * (nbytes or 0),
                None, -1, 0.0, 0.0, 0.0]
        self._mcast_plans[src] = plan
        return plan

    def multicast_payload(self, src: str, kind: str, payload: dict) -> None:
        """Register what ``src``'s fan-outs of ``kind`` carry from now on.

        Called by the sender when the payload changes and when it boots,
        never per send; ``payload`` is read-only from here on. A plan that
        exists is re-payloaded in place: one new :class:`Message` per peer
        around the size measured here, the prebound post tuples rebuilt,
        and the size-dependent parts (send-side digest suffix, byte
        totals, delay block) refreshed only when the wire size moved.
        """
        nbytes = wire_size(Message(kind, src, src, payload))
        self._mcast_payloads[src, kind] = (payload, nbytes)
        plan = self._mcast_plans.get(src)
        if (
            plan is None
            or plan[_MP_KIND] != kind
            or plan[_MP_EPOCH] != self._mcast_epoch
        ):
            return  # the next send_multicast builds from the table
        self.plan_repayloads += 1
        resized = nbytes != plan[_MP_NBYTES]
        peers = plan[_MP_PEERS]
        # bound is (entry, message, *net_deliver cells): see _build_mcast_plan.
        for i, (entry, (deliver, bound), pair_cell, suffix) in enumerate(peers):
            message = Message(kind, src, bound[1].dst, payload)
            message._wire_bytes = nbytes
            if resized:
                suffix = entry[_SEND].bind(kind, nbytes)[3]
            post = (deliver, (entry, message, *bound[2:]))
            peers[i] = (entry, post, pair_cell, suffix)
        if resized:
            plan[_MP_NBYTES] = nbytes
            plan[_MP_TBYTES] = len(peers) * nbytes
            plan[_MP_LAT] = None  # the cached delay block is for the old size

    def multicast_bytes(self, src: str, kind: str, payload: dict) -> int | None:
        """The registered wire size, if ``payload`` is the registered object."""
        registered, nbytes = self._mcast_payloads.get((src, kind), _UNREGISTERED)
        return nbytes if registered is payload else None

    def send_multicast(self, src: str, dsts, kind: str) -> bool:
        """Quiescent-path fan-out of ``src``'s registered payload to ``dsts``.

        The copies carry what :meth:`multicast_payload` last registered for
        ``(src, kind)`` — nothing registered, empty payload.
        Returns True when the multicast was fully handled; False when the
        caller must fall back to per-message :meth:`send` — an active
        partition (so per-peer drops are recorded exactly as before), a
        trace with global subscribers, kept/kind-subscribed net_send
        records, or a :class:`LatencyModel` subclass (``send`` calls its
        ``message_delay`` once per copy, in dsts order). The observable
        effects — trace aggregates, digest bytes, RNG draw order, FIFO
        horizons, delivery schedule — are bit-identical to the equivalent
        ``send`` loop.
        """
        if self.partition.group_of is not None:
            self.lane_refusals["partition"] += 1
            return False
        trace = self._trace
        if trace._subscribers:
            self.lane_refusals["subscriber"] += 1
            return False
        if type(self.latency) is not LatencyModel:
            return False
        plan = self._mcast_plans.get(src)
        if (
            plan is None
            or plan[_MP_DSTS] is not dsts
            or plan[_MP_KIND] != kind
            or plan[_MP_EPOCH] != self._mcast_epoch
        ):
            # Kept or kind-subscribed net_send records refuse the lane for
            # good (neither ever stops), so no plan is built or re-payloaded.
            if trace.keeps("net_send"):
                self.lane_refusals["kept"] += 1
                return False
            plan = self._build_mcast_plan(src, dsts, kind)
        peers = plan[_MP_PEERS]
        n = len(peers)
        if n == 0:
            return True
        state = plan[_MP_STATE]
        if state[3] is not None or state[4] is not None:
            del self._mcast_plans[src]  # subscribed since it was built
            self.lane_refusals["kept"] += 1
            return False
        sender = plan[_MP_SENDER]
        if sender is not None and not sender.alive:
            # A crashed process performs no activity (matches `send`).
            return True

        scheduler = self._scheduler
        now = scheduler._now
        # Aggregates are batched per tick instead of per peer: nothing can
        # observe them between the copies of one fan-out, and the per-peer
        # digest records below carry the per-copy ordering.
        tbytes = plan[_MP_TBYTES]
        state[0] += n
        state[1] += tbytes
        tally = plan[_MP_TALLY]
        tally[0] += n
        tally[1] += tbytes

        buf = trace._dig_buf
        hashing = buf is not None
        if hashing:
            tr = _PACK_D(now)

        live = self._live_count_cache
        if live is None:
            live = self.live_process_count()
        # The pre-jitter delay depends only on (wire size, latency model,
        # live count) — all tick-invariant while the home is quiescent —
        # so the resolved value is cached in the plan and recomputed only
        # when the latency model object or the live count changes.
        if plan[_MP_LAT] is self.latency and plan[_MP_LIVE] == live:
            base_delay = plan[_MP_DELAY]
            neg = plan[_MP_NEG]
            span = plan[_MP_SPAN]
        else:
            lat = self.latency
            base_delay = lat.message_delay(plan[_MP_NBYTES], live)
            neg = -lat.jitter_fraction
            span = lat.jitter_fraction - neg
            plan[_MP_LAT] = lat
            plan[_MP_LIVE] = live
            plan[_MP_DELAY] = base_delay
            plan[_MP_NEG] = neg
            plan[_MP_SPAN] = span
        random = self._random

        buckets = scheduler._buckets
        heap = scheduler._heap
        # With hashing on, each copy's timestamp and suffix are staged as
        # two pieces (the hash runs over the buffer's concatenation, so
        # piece boundaries are digest-neutral). Each copy is
        # Scheduler.post_at inlined, as in `send`; the plan's post tuple
        # itself is what a lone copy's instant stores.
        for entry, post, pair_cell, suffix in peers:
            pair_cell[0] += 1
            if hashing:
                buf += tr
                buf += suffix
            # One jitter draw per destination, in dsts order: the RNG
            # sequence is exactly the per-message path's.
            deliver_at = now + base_delay * (1.0 + (neg + span * random()))
            horizon = entry[_HORIZON]
            if deliver_at <= horizon:
                deliver_at = horizon + 1e-9
            entry[_HORIZON] = deliver_at
            bucket = buckets.get(deliver_at)
            if bucket is None:
                buckets[deliver_at] = post
                heappush(heap, deliver_at)
            elif type(bucket) is tuple:
                buckets[deliver_at] = [bucket, post]
            else:
                bucket.append(post)
        scheduler._live += n
        if hashing and len(buf) >= _FLUSH_BYTES:
            trace._flush_hash()
        return True

    def _deliver(
        self,
        entry: list,
        message: Message,
        state: list | None = None,
        tally: list | None = None,
        pair_cell: list | None = None,
        suffix: bytes = b"",
    ) -> None:
        """Deliver one copy, or drop it if its destination crashed or a
        partition cut the pair while it was in flight.

        A multicast-plan copy arrives with its net_deliver cells and digest
        suffix prebound (:meth:`MessageChannel.bind`): while the kind is
        only counted or hashed, they are bumped here in place, with the
        bytes :meth:`MessageChannel.record` would stage. Every other copy
        is recorded through the pair's channel.
        """
        endpoint = entry[_DST]
        if not endpoint.alive:
            self._drop_channel(entry, message.src, message.dst).record(
                self._scheduler._now, message.kind, None, "dst_crashed"
            )
            return
        partition = self.partition
        if partition.group_of is not None and not partition.can_communicate(
            message.src, message.dst
        ):
            self._drop_channel(entry, message.src, message.dst).record(
                self._scheduler._now, message.kind, None, "partition"
            )
            return
        kind = message.kind
        trace = self._trace
        if (state is not None and state[3] is None and state[4] is None
                and not trace._subscribers):
            state[0] += 1
            tally[0] += 1
            pair_cell[0] += 1
            buf = trace._dig_buf
            if buf is not None:
                buf += _PACK_D(self._scheduler._now)
                buf += suffix
                if len(buf) >= _FLUSH_BYTES:
                    trace._flush_hash()
        else:
            entry[_DELIVER].record(self._scheduler._now, kind)
        # Dispatch straight to the destination's handler when we hold its
        # live handler dict (liveness was checked above; a crash clears the
        # dict in place, so the cached reference never goes stale). The
        # unhandled case falls back to deliver() for its trace record.
        handlers = entry[_HANDLERS]
        if handlers is not None:
            handler = handlers.get(kind)
            if handler is not None:
                handler(message)
                return
        endpoint.deliver(message)

    # A second name for _deliver, kept only because bench/tracer.py wraps
    # it by name through the class __dict__; delete it with ROADMAP item
    # 1(a), when the tracer resolves names through the MRO.
    _deliver_quiescent = _deliver

    # -- accounting helpers used by the evaluation harness ---------------------

    def bytes_sent(self, *, kinds: set[str] | None = None) -> int:
        """Total wire bytes transmitted, optionally restricted to kinds.

        Backed by the trace's incremental per-kind aggregates: O(1) in the
        number of transmitted messages (previously a full trace scan).
        """
        if kinds is None:
            return self._trace.bytes_of_kind("net_send")
        return sum(self._trace.tally("net_send", kind)[1] for kind in kinds)

    def messages_sent(self, *, kinds: set[str] | None = None) -> int:
        if kinds is None:
            return self._trace.count("net_send")
        return sum(self._trace.tally("net_send", kind)[0] for kind in kinds)
