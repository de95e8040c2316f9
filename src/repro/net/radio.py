"""Best-effort wireless links between devices and Rivulet processes.

This is the substrate for the paper's Section 3.1 assumption: "each sensor
is able to send sensed events to a *subset* of processes, and each actuator
is able to receive events from a *subset* of processes". The subset is the
set of links created by the deployment (hardware capability + radio range),
and each link is an independent Bernoulli-lossy, delaying channel.

The module models the properties the evaluation depends on:

- **multicast** (Z-Wave/Zigbee mesh): one emission is offered to every
  linked process, each link losing it independently — this is what Gapless
  exploits and what produces the Fig. 1 skew;
- **single-link technologies** (BLE): the deployment simply creates one link;
- **poll transport** with lossy request and response legs; the *sensor*
  enforces the single-outstanding-poll limitation (Fig. 8) — see
  :mod:`repro.devices.sensor`;
- **actuation commands** traversing the same lossy links toward actuators.

Hot-path design (see docs/performance.md): every transmission used to pay a
linear scan over all links plus an f-string RNG-stream key build. The radio
now keeps a **per-device fan-out index** (device -> precomputed tuples of
link, resolved listener and interned per-link loss stream) and a per-link
state record caching the poll/response/command streams and the device
object. Both are built lazily and invalidated on ``connect`` /
``disconnect`` / ``set_link_loss`` / ``set_link_enabled`` and on listener /
device registration, so mid-run topology changes behave exactly as if no
index existed. RNG stream objects are interned in one persistent table
(``_streams``), which keeps draw sequences — and therefore trace digests —
bit-identical to the unindexed implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable, Protocol

from repro.core.events import Command, Event
from repro.sim.random import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import DeviceChannel, Trace

POLL_REQUEST_BYTES = 8

# The transmission jitter fraction is a fixed 0.2; these are the exact
# intermediates RandomSource.jittered(base, 0.2) computes, precomputed so
# the emit loop can expand RadioTechnology.transit_delay inline without a
# method call while staying bit-identical (determinism digests depend on
# the float identity).
_JITTER_NEG = -0.2
_JITTER_SPAN = 0.2 - -0.2


@dataclass(frozen=True)
class RadioTechnology:
    """Communication characteristics of one low-power wireless technology."""

    name: str
    range_m: float
    base_loss_rate: float
    base_latency: float
    bandwidth_bytes_per_s: float
    supports_multicast: bool

    def transit_delay(self, size_bytes: int, rng: RandomSource | None = None) -> float:
        """One frame's delay over this technology, jittered by up to ±20 %
        when ``rng`` is given (the poll, response and command legs)."""
        delay = self.base_latency + size_bytes / self.bandwidth_bytes_per_s
        if rng is not None:
            delay = rng.jittered(delay, 0.2)
        return delay


# Ranges from Section 2.1; data rates from the respective specifications.
ZWAVE = RadioTechnology("zwave", range_m=40.0, base_loss_rate=0.0001,
                        base_latency=0.004, bandwidth_bytes_per_s=12_500,
                        supports_multicast=True)
ZIGBEE = RadioTechnology("zigbee", range_m=15.0, base_loss_rate=0.0005,
                         base_latency=0.003, bandwidth_bytes_per_s=31_250,
                         supports_multicast=True)
BLE = RadioTechnology("ble", range_m=100.0, base_loss_rate=0.0002,
                      base_latency=0.003, bandwidth_bytes_per_s=125_000,
                      supports_multicast=False)
IP = RadioTechnology("ip", range_m=60.0, base_loss_rate=0.00001,
                     base_latency=0.0008, bandwidth_bytes_per_s=5_000_000,
                     supports_multicast=True)

TECHNOLOGIES: dict[str, RadioTechnology] = {
    t.name: t for t in (ZWAVE, ZIGBEE, BLE, IP)
}


class RadioListener(Protocol):
    """What the radio needs from a registered process."""

    name: str

    @property
    def alive(self) -> bool: ...

    def on_sensor_event(self, event: Event) -> None: ...


class PollTarget(Protocol):
    """What the radio needs from a pollable sensor."""

    name: str

    def receive_poll(self, respond: Callable[[Event | None], None]) -> None: ...


class CommandTarget(Protocol):
    """What the radio needs from an actuator."""

    name: str

    def handle_command(self, command: Command) -> None: ...


@dataclass
class Link:
    """One device <-> process wireless link."""

    device: str
    process: str
    technology: RadioTechnology
    loss_rate: float
    enabled: bool = True

    @property
    def key(self) -> tuple[str, str]:
        return (self.device, self.process)


# _link_state entry layout: one list per link key caching everything the
# poll/command paths need, so a transmission resolves it in one dict lookup.
_LINK = 0        # the Link object (replaced wholesale on loss/enable changes)
_LOSS_RNG = 1    # interned "loss/<device>/<process>" stream (event emission)
_POLL_RNG = 2    # interned "poll/<device>/<process>" stream (request leg)
_RESP_RNG = 3    # interned "pollresp/<device>/<process>" stream (response leg)
_CMD_RNG = 4     # interned "cmd/<device>/<process>" stream (actuation)
_DEVICE = 5      # resolved device object, or None if not (yet) registered


class RadioNetwork:
    """All device-process wireless links in the home."""

    def __init__(self, scheduler: Scheduler, rng: RandomSource, trace: Trace) -> None:
        self._scheduler = scheduler
        self._rng = rng.child("radio")
        self._trace = trace
        self._links: dict[tuple[str, str], Link] = {}
        self._listeners: dict[str, RadioListener] = {}
        self._devices: dict[str, Any] = {}
        self._streams: dict[str, RandomSource] = {}
        # Per-link cached state and the per-device fan-out index. Both are
        # derived data, rebuilt lazily after any invalidation; the interned
        # streams they reference live in _streams and survive rebuilds, so
        # draw sequences never reset.
        self._link_state: dict[tuple[str, str], list] = {}
        # device -> ([(link, listener, loss stream, radio_delivered
        # channel), ...], radio_emit channel) — see _build_fanout.
        self._fanout: dict[str, tuple[list, DeviceChannel]] = {}

    def _stream(self, name: str) -> RandomSource:
        """A persistent named child stream (fresh children would repeat)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._rng.child(name)
            self._streams[name] = stream
        return stream

    # -- derived-state maintenance ----------------------------------------------

    def _link_entry(self, device_name: str, process_name: str) -> list | None:
        """The cached state record for one link, or None if no such link."""
        key = (device_name, process_name)
        entry = self._link_state.get(key)
        if entry is None:
            link = self._links.get(key)
            if link is None:
                return None
            # Only the loss stream is interned eagerly: every emission draws
            # it. The poll/pollresp/cmd legs are idle on push-sensor links —
            # the overwhelming majority of a fleet — so their streams (a
            # full Mersenne state each) are created on first draw. Stream
            # derivation is stateless (seed = f(parent seed, name)), so
            # laziness cannot shift any draw sequence.
            entry = [
                link,
                self._stream(f"loss/{device_name}/{process_name}"),
                None,
                None,
                None,
                self._devices.get(device_name),
            ]
            self._link_state[key] = entry
        return entry

    def _link_stream(self, entry: list, slot: int, prefix: str) -> RandomSource:
        """The interned per-link stream for ``slot``, created on first use."""
        stream = entry[slot]
        if stream is None:
            link = entry[_LINK]
            entry[slot] = stream = self._stream(
                f"{prefix}/{link.device}/{link.process}"
            )
        return stream

    def _build_fanout(self, device_name: str) -> tuple[list, DeviceChannel]:
        """Precompute the emission fan-out of one device, in link order.

        Links whose process has no registered listener are omitted: the
        transmit path never draws their loss coin (exactly as the scan-based
        implementation behaved), and listener registration invalidates the
        index. Disabled links stay in the list — ``enabled`` is re-checked
        per transmission so direct toggles on a held Link keep working.
        """
        entries = []
        for link in self._links.values():
            if link.device != device_name:
                continue
            listener = self._listeners.get(link.process)
            if listener is None:
                continue
            state = self._link_entry(link.device, link.process)
            delivered = self._trace.device_channel(
                "radio_delivered", link.device, link.process)
            entries.append((link, listener, state[_LOSS_RNG], delivered))
        fan = (entries, self._trace.device_channel("radio_emit", device_name))
        self._fanout[device_name] = fan
        return fan

    def _invalidate_link(self, device_name: str, process_name: str) -> None:
        self._link_state.pop((device_name, process_name), None)
        self._fanout.pop(device_name, None)

    # -- wiring ----------------------------------------------------------------

    def register_listener(self, listener: RadioListener) -> None:
        self._listeners[listener.name] = listener
        # A new (or replaced) listener changes every device's fan-out.
        self._fanout.clear()

    def register_device(self, device: Any) -> None:
        self._devices[device.name] = device
        # Link states cache the resolved device object; drop them all.
        self._link_state.clear()
        self._fanout.clear()

    def connect(
        self,
        device_name: str,
        process_name: str,
        technology: RadioTechnology,
        *,
        loss_rate: float | None = None,
    ) -> Link:
        """Create (or replace) the link between a device and a process."""
        link = Link(
            device=device_name,
            process=process_name,
            technology=technology,
            loss_rate=technology.base_loss_rate if loss_rate is None else loss_rate,
        )
        self._links[link.key] = link
        self._invalidate_link(device_name, process_name)
        return link

    def disconnect(self, device_name: str, process_name: str) -> None:
        self._links.pop((device_name, process_name), None)
        self._invalidate_link(device_name, process_name)

    def set_link_loss(self, device_name: str, process_name: str, loss_rate: float) -> None:
        key = (device_name, process_name)
        if key not in self._links:
            raise KeyError(f"no link {device_name!r} -> {process_name!r}")
        self._links[key] = replace(self._links[key], loss_rate=loss_rate)
        self._invalidate_link(device_name, process_name)

    def set_link_enabled(self, device_name: str, process_name: str, enabled: bool) -> None:
        """Enable or disable the link without forgetting its configuration."""
        key = (device_name, process_name)
        if key not in self._links:
            raise KeyError(f"no link {device_name!r} -> {process_name!r}")
        self._links[key] = replace(self._links[key], enabled=enabled)
        self._invalidate_link(device_name, process_name)

    def links_from(self, device_name: str) -> list[Link]:
        return [l for l in self._links.values() if l.device == device_name]

    def link_keys(self) -> list[tuple[str, str]]:
        """All ``(device, process)`` link keys, in connection order.

        The fleet-isolation oracle audits these against the owning home's
        declared devices and processes: every radio endpoint table is
        per-home, so a key naming a foreign process is a leak.
        """
        return list(self._links)

    def link(self, device_name: str, process_name: str) -> Link:
        return self._links[(device_name, process_name)]

    def reachable_processes(self, device_name: str) -> list[str]:
        """Processes with an enabled link from the device, in name order."""
        return sorted(l.process for l in self.links_from(device_name) if l.enabled)

    # -- push-based event emission ----------------------------------------------

    def emit(self, sensor_name: str, event: Event) -> None:
        """Offer ``event`` to every linked process (independent loss/link)."""
        trace = self._trace
        scheduler = self._scheduler
        now = scheduler._now
        seq = event.seq
        fan = self._fanout.get(sensor_name)
        if fan is None:
            fan = self._build_fanout(sensor_name)
        fanout, emit_channel = fan
        emit_channel.record(now, seq)
        # ``chance``, ``jittered`` and ``post_at`` inlined bit-identically
        # (same draws in the same order; a bare post on an empty instant,
        # promoted to a list on a taken one, appended to a list) — this loop
        # runs once per sensor emission per linked process, the device-side
        # hot path. The jitter expansion matches RandomSource.jittered with
        # the fixed 0.2 fraction: the constants below are computed exactly
        # as the method computes them.
        jitter_random = self._rng._rng.random
        deliver = self._deliver_event
        buckets = scheduler._buckets
        heap = scheduler._heap
        posted = 0
        size = event.size_bytes
        for link, listener, loss_rng, delivered in fanout:
            if not link.enabled:
                continue
            rate = link.loss_rate
            if rate > 0.0 and (rate >= 1.0 or loss_rng._rng.random() < rate):
                trace.record_device(now, "radio_lost", "sensor", link.device,
                                    link.process, seq)
                continue
            tech = link.technology
            delay = (
                tech.base_latency + size / tech.bandwidth_bytes_per_s
            ) * (1.0 + (_JITTER_NEG + _JITTER_SPAN * jitter_random()))
            deliver_at = now + delay
            post = (deliver, (listener, link, event, delivered))
            bucket = buckets.get(deliver_at)
            if bucket is None:
                buckets[deliver_at] = post
                heapq.heappush(heap, deliver_at)
            elif type(bucket) is tuple:
                buckets[deliver_at] = [bucket, post]
            else:
                bucket.append(post)
            posted += 1
        scheduler._live += posted

    def _deliver_event(
        self,
        listener: RadioListener,
        link: Link,
        event: Event,
        delivered: DeviceChannel,
    ) -> None:
        now = self._scheduler._now
        if not listener.alive:
            self._trace.record_device(now, "radio_undelivered", "sensor",
                                      link.device, link.process, event.seq)
            return
        delivered.record(now, event.seq)
        listener.on_sensor_event(event)

    # -- polling ----------------------------------------------------------------

    def send_poll(
        self,
        process_name: str,
        sensor_name: str,
        on_response: Callable[[Event], None],
    ) -> None:
        """Issue one poll request from a process to a sensor.

        ``on_response`` fires only if the request arrives, the sensor serves
        it (it may silently drop concurrent requests — Fig. 8) and the
        response survives the return leg while the process is still alive.
        Pollers own their timeouts.
        """
        entry = self._link_entry(sensor_name, process_name)
        if entry is None:
            return
        link = entry[_LINK]
        if not link.enabled:
            return
        scheduler = self._scheduler
        now = scheduler._now
        self._trace.record_device(now, "poll_request", "sensor", sensor_name,
                                  process_name)
        if self._link_stream(entry, _POLL_RNG, "poll").chance(link.loss_rate):
            self._trace.record_device(now, "poll_request_lost", "sensor",
                                      sensor_name, process_name)
            return
        sensor = entry[_DEVICE]
        if sensor is None:
            # Unregistered sensor: the request leg still consumed its loss
            # draw above, exactly like the scan-based implementation.
            return
        delay = link.technology.transit_delay(POLL_REQUEST_BYTES, self._rng)
        scheduler.post_at(
            now + delay, self._poll_arrives, sensor, link, process_name, on_response
        )

    def _poll_arrives(
        self,
        sensor: PollTarget,
        link: Link,
        process_name: str,
        on_response: Callable[[Event], None],
    ) -> None:
        def respond(event: Event | None) -> None:
            if event is None:
                return
            self._send_poll_response(link, process_name, event, on_response)

        sensor.receive_poll(respond)

    def _send_poll_response(
        self,
        link: Link,
        process_name: str,
        event: Event,
        on_response: Callable[[Event], None],
    ) -> None:
        loss_rng = self._stream(f"pollresp/{link.device}/{process_name}")
        if loss_rng.chance(link.loss_rate):
            self._trace.record_device(self._scheduler._now, "poll_response_lost",
                                      "sensor", link.device, process_name)
            return
        delay = link.technology.transit_delay(event.size_bytes, self._rng)
        scheduler = self._scheduler
        scheduler.post_at(
            scheduler._now + delay,
            self._deliver_poll_response, process_name, link, event, on_response,
        )

    def _deliver_poll_response(
        self,
        process_name: str,
        link: Link,
        event: Event,
        on_response: Callable[[Event], None],
    ) -> None:
        listener = self._listeners.get(process_name)
        if listener is None or not listener.alive:
            return
        self._trace.record_device(self._scheduler._now, "poll_response",
                                  "sensor", link.device, process_name, event.seq)
        on_response(event)

    # -- actuation ----------------------------------------------------------------

    def send_command(self, process_name: str, command: Command) -> None:
        """Transmit an actuation command from a process to an actuator."""
        entry = self._link_entry(command.actuator_id, process_name)
        if entry is None:
            return
        link = entry[_LINK]
        if not link.enabled:
            return
        scheduler = self._scheduler
        now = scheduler._now
        self._trace.record_device(now, "command_sent", "actuator",
                                  command.actuator_id, process_name,
                                  action=command.action)
        if self._link_stream(entry, _CMD_RNG, "cmd").chance(link.loss_rate):
            self._trace.record_device(now, "command_lost", "actuator",
                                      command.actuator_id, process_name)
            return
        actuator = entry[_DEVICE]
        if actuator is None:
            return
        delay = link.technology.transit_delay(command.size_bytes, self._rng)
        scheduler.post_at(now + delay, actuator.handle_command, command)
