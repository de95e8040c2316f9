#!/usr/bin/env python3
"""The same platform over real TCP sockets (the paper's Netty runtime).

Spins up three Rivulet processes on localhost ports inside one asyncio
event loop, deploys the door->light app, drives it with software sensor
events, crashes the active node, and shows failover — all over actual
sockets, running the *identical* protocol code the simulator runs.

Run:  python examples/asyncio_localhost.py
"""

import asyncio

from repro.core.delivery import GAPLESS
from repro.core.graph import App
from repro.core.operators import Operator
from repro.core.windows import CountWindow
from repro.rt import LocalCluster


def build_app() -> App:
    logic = Operator(
        "TurnLightOnOff",
        on_window=lambda ctx, c: ctx.actuate("light", "power",
                                             bool(c.all_values()[-1])),
    )
    logic.add_sensor("door", GAPLESS, CountWindow(1))
    logic.add_actuator("light", GAPLESS)
    return App("door-light", logic)


async def main() -> None:
    cluster = LocalCluster()
    for host in ("hub", "tv", "fridge"):
        cluster.add_process(host)
    cluster.add_push_sensor("door", receivers=["tv", "fridge"])
    cluster.add_actuator("light", hosts=["hub"])
    cluster.deploy(build_app())

    async with cluster:
        ports = {name: node.port for name, node in cluster.nodes.items()}
        print(f"== three Rivulet processes listening on {ports} ==")
        await asyncio.sleep(0.3)

        print("== door opens ==")
        cluster.emit("door", True)
        await asyncio.sleep(0.4)
        hub = cluster.node("hub")
        print(f"  hub actuations: "
              f"{[(c.action, c.value, c.issued_by) for c in hub.actuations]}")

        active = [n for n, node in cluster.nodes.items()
                  if node.execution.runtimes["door-light"].active][0]
        print(f"== crash the active logic node ({active}) ==")
        await cluster.crash_process(active)
        await asyncio.sleep(1.2)  # failure detection over real sockets

        print("== door closes (handled by the promoted node) ==")
        cluster.emit("door", False)
        await asyncio.sleep(0.4)
        print(f"  hub actuations: "
              f"{[(c.action, c.value, c.issued_by) for c in hub.actuations]}")

        journals = {n: node.store.total_events()
                    for n, node in cluster.nodes.items() if node.alive}
        print(f"== event journals on surviving nodes: {journals} ==")
        assert len(hub.actuations) >= 2
        assert hub.actuations[-1].value is False
        print("OK: real-socket failover complete")


if __name__ == "__main__":
    asyncio.run(main())
