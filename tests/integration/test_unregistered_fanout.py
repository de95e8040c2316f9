"""An unregistered fan-out is sized once and puts the per-send bytes on the wire.

``NaiveBroadcastDelivery.on_ingest`` hands its ``nbcast`` copies to
``RivuletProcess.multicast`` as one payload the transport never registered.
Every copy carries the same wire image, so the fan-out measures it once, on
its first copy, and stamps that size on the rest; what reaches the trace
must equal a per-``send`` loop over the same copies.
"""

from __future__ import annotations

from repro.core import runtime
from repro.core.broadcast import NBCAST
from repro.core.env import RuntimeEnv
from repro.core.runtime import RivuletProcess
from repro.eval.workloads import single_sensor_home
from repro.net import transport
from repro.net.message import Message
from repro.net.transport import HomeNetwork
from repro.net.wire import wire_size


def run_naive_broadcast_home():
    home, sensor = single_sensor_home(
        n_processes=5, receiving=3, delivery_mode="naive-broadcast", seed=7)
    home.run_until(1.0)
    sensor.start_periodic(10.0)
    home.run_until(3.0)
    return home.trace


def test_each_fan_out_is_sized_once_and_matches_a_send_loop(monkeypatch):
    sized, copies = [], []

    def counting_wire_size(message):
        if message.kind == NBCAST:
            sized.append(message)
        return wire_size(message)

    send = HomeNetwork.send

    def recording_send(network, message):
        if message.kind == NBCAST:
            copies.append((message, message._wire_bytes))
        send(network, message)

    monkeypatch.setattr(transport, "wire_size", counting_wire_size)
    monkeypatch.setattr(runtime, "wire_size", counting_wire_size)
    monkeypatch.setattr(HomeNetwork, "send", recording_send)
    fanned = run_naive_broadcast_home()
    assert fanned.tally("net_send", NBCAST)[0] == len(copies) > 40
    # One sizing per fan-out of four copies, not one per copy.
    assert len(sized) * 4 == len(copies)

    fan_outs: dict[int, list] = {}
    for message, nbytes in copies:
        fan_outs.setdefault(id(message.payload), []).append((message, nbytes))
    assert len(fan_outs) == len(sized)
    assert all(len(group) == 4 for group in fan_outs.values())
    for group in fan_outs.values():
        nbytes = group[0][1]
        assert {size for _, size in group} == {nbytes}
        for message, _ in group:
            fresh = Message(message.kind, message.src, message.dst, message.payload)
            assert wire_size(fresh) == nbytes

    monkeypatch.setattr(RivuletProcess, "multicast", RuntimeEnv.multicast)
    looped = run_naive_broadcast_home()
    assert fanned.tally("net_send", NBCAST) == looped.tally("net_send", NBCAST)
    assert fanned.bytes_of_kind("net_send") == looped.bytes_of_kind("net_send")
    assert fanned.digest() == looped.digest()
