#!/usr/bin/env python3
"""A stateful app on the replicated store: PreHeat-style occupancy learning.

The paper keeps logic nodes stateless and says stateful applications should
"use existing distributed storage systems to replicate state"
(Section 3.2). This example does exactly that: an occupancy-prediction
thermostat (in the spirit of PreHeat [58]) learns an hourly occupancy
histogram through ``ctx.state`` — the home-wide replicated key-value store
— so the learned model survives the crash of whichever process happens to
host the logic node.

Run:  python examples/stateful_preheat.py
"""

from repro.core.delivery import GAP
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.operators import Operator
from repro.core.windows import CountWindow

HOUR = 60.0  # one "hour" of simulated seconds, to keep the run short


def preheat_app() -> App:
    """Learn P(occupied | hour) and pre-heat when the next hour looks busy."""

    def on_window(ctx, combined) -> None:
        for event in combined.all_events():
            hour = int(event.emitted_at // HOUR) % 24
            seen = ctx.state.get(f"obs:{hour}", 0) + 1
            occupied = ctx.state.get(f"occ:{hour}", 0) + (1 if event.value else 0)
            ctx.state.put(f"obs:{hour}", seen)
            ctx.state.put(f"occ:{hour}", occupied)
            next_hour = (hour + 1) % 24
            next_obs = ctx.state.get(f"obs:{next_hour}", 0)
            next_occ = ctx.state.get(f"occ:{next_hour}", 0)
            if next_obs >= 3 and next_occ / next_obs > 0.5:
                ctx.actuate("hvac", "set_point", 21.5)
            else:
                ctx.actuate("hvac", "set_point", 17.0)

    operator = Operator("PreHeat", on_window=on_window)
    operator.add_sensor("occupancy", GAP, CountWindow(1))
    operator.add_actuator("hvac", GAP)
    return App("preheat", operator)


def main() -> None:
    home = Home(HomeConfig(seed=3, kv_sync_interval=5.0))
    home.add_process("hub", compute=1.0)
    home.add_process("tv", compute=4.0)       # beefier: wins placement ties
    home.add_process("fridge", compute=2.0)
    home.add_sensor("occupancy", kind="occupancy")
    home.add_actuator("hvac", kind="hvac")
    home.deploy(preheat_app())
    home.start()

    # Days of routine: home during "hours" 18-22, away during 8-17.
    home.play([
        ((day * 24 + hour) * HOUR + 10.0, "occupancy", 18 <= hour <= 22 or hour <= 6)
        for day in range(4) for hour in range(24)
    ])

    print("== learning for two days ==")
    home.run_until(2 * 24 * HOUR)
    active = [n for n, p in home.processes.items()
              if p.execution.runtimes["preheat"].active][0]
    model_on_hub = {k: home.processes["hub"].kv.get(k)
                    for k in ("obs:18", "occ:18", "obs:10", "occ:10")}
    print(f"  active logic node: {active}")
    print(f"  learned model as replicated on hub: {model_on_hub}")

    print(f"== crash {active}: the model must survive ==")
    home.crash_process(active)
    home.run_until(2 * 24 * HOUR + 30.0)
    survivor = [n for n, p in home.processes.items()
                if p.alive and p.execution.runtimes["preheat"].active][0]
    print(f"  promoted: {survivor}")
    print("== two more days on the survivor ==")
    home.run_until(4 * 24 * HOUR)

    store = home.processes[survivor].kv
    evening = store.get("obs:18", 0)
    print(f"  hour-18 observations across the crash: {evening} (expect 4)")
    assert evening == 4, "the learned model must accumulate across failover"
    # The thermostat pre-heats before the evening and relaxes before the
    # empty morning hours.
    setpoints = [(r.time, r.command.value)
                 for r in home.actuator("hvac").history]
    last_day = [v for t, v in setpoints if t > 3 * 24 * HOUR]
    assert 21.5 in last_day and 17.0 in last_day
    print(f"  day-4 set-points used: {sorted(set(last_day))}")
    print("OK: a stateful app, its state replicated, surviving failover")


if __name__ == "__main__":
    main()
