#!/usr/bin/env python3
"""An elder-care home: fall alerts and inactivity monitoring under failures.

Two Gapless apps share one deployment:

- **fall-alert** on a WiFi wearable (two processes in range);
- **inactive-alert** on motion + door sensors, alerting caregivers when no
  activity occurs for 60 s.

The scenario exercises the fault model end to end: a fall during a process
crash (redelivered, alerted), a WiFi router partition (each side keeps
monitoring), and a genuine inactivity period (alerted exactly once per
quiet hour, no false alarms from delivery gaps).

Run:  python examples/elder_care_home.py
"""

from repro.apps.elder_care import fall_alert, inactive_alert
from repro.core.home import Home
from repro.sim.faults import FaultPlan


def print_alerts(home, since=0.0):
    for event in home.trace.of_kind("alert"):
        if event.time >= since:
            print(f"  t={event.time:7.2f}s [{event['process']}] {event['message']}")


def main() -> None:
    home = Home(seed=13)
    for host in ("hub", "tv", "fridge"):
        home.add_process(host)
    home.add_sensor("pendant", kind="wearable", technology="ip",
                    processes=["tv", "fridge"])
    home.add_sensor("hall-motion", kind="motion")
    home.add_sensor("bathroom-door", kind="door")
    home.add_actuator("siren", processes=["hub", "tv"])

    home.deploy(fall_alert("pendant", siren="siren"))
    home.deploy(inactive_alert(["hall-motion", "bathroom-door"],
                               inactivity_window_s=60.0))
    home.start()

    print("== morning activity: no alerts expected ==")
    home.play([(float(t), "hall-motion", True) for t in range(5, 50, 7)])
    home.run_until(55.0)
    print(f"  alerts so far: {home.trace.count('alert')}")

    print("== a fall, while the active logic host crashes ==")
    active = [n for n, p in home.processes.items()
              if p.alive and p.execution.runtimes["fall-alert"].active][0]
    home.crash_process(active)
    home.run_for(0.3)
    home.sensor("pendant").emit("fall")
    home.run_until(70.0)
    print_alerts(home, since=55.0)
    fall_alerts = [e for e in home.trace.of_kind("alert")
                   if e["message"] == "fall detected"]
    assert fall_alerts, "the fall must be alerted despite the crash"

    print("== recovery, then the router partitions the home ==")
    plan = (FaultPlan()
            .recover(active, at=75.0)
            .partition([["hub"], ["tv", "fridge"]], at=80.0)
            .heal(at=110.0))
    plan.apply(home)
    home.run_until(120.0)

    print("== a quiet afternoon: inactivity alert fires ==")
    quiet_alerts_before = len([e for e in home.trace.of_kind("alert")
                               if e["message"] == "no activity detected"])
    home.run_until(260.0)  # > 60 s with no motion/door events
    quiet_alerts = [e for e in home.trace.of_kind("alert")
                    if e["message"] == "no activity detected"]
    print_alerts(home, since=120.0)
    assert len(quiet_alerts) > quiet_alerts_before
    print("OK: falls alerted through crashes; inactivity detected; "
          "no false alarms from delivery gaps")


if __name__ == "__main__":
    main()
