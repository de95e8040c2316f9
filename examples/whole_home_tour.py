#!/usr/bin/env python3
"""A whole smart home on a floor plan, running four apps through a bad day.

Demonstrates the full surface of the library in one script:

- a **floor plan** with walls: radio reachability and per-link loss come
  from geometry, not configuration;
- four concurrent applications from the Table 1 catalog (lighting,
  intrusion detection, energy billing, temperature HVAC) with mixed
  Gap/Gapless guarantees;
- a declarative :class:`FaultPlan`: a process crash, a router partition,
  and a sensor battery death, all while the apps keep running;
- a closing report of what the platform delivered.

Run:  python examples/whole_home_tour.py
"""

from repro.apps.energy import energy_billing
from repro.apps.hvac import temperature_hvac
from repro.apps.intrusion import intrusion_detection
from repro.apps.lighting import automated_lighting
from repro.core.home import Home
from repro.sim.faults import FaultPlan

DAY = 300.0  # a compressed "day" of simulated seconds


def build_home() -> Home:
    home = Home(seed=99)
    # Hosts along a 20m x 10m floor plan; a concrete wall shields the hub.
    home.add_process("hub", position=(1.0, 1.0))
    home.add_process("tv", position=(10.0, 5.0))
    home.add_process("fridge", position=(18.0, 8.0))
    home.topology.add_wall(4.0, 0.0, 4.0, 10.0, loss_factor=12.0)

    home.add_sensor("front-door", kind="door", position=(9.0, 0.5))
    home.add_sensor("patio-door", kind="door", position=(19.0, 2.0))
    home.add_sensor("hall-motion", kind="motion", position=(8.0, 4.0))
    home.add_sensor("meter", kind="energy", position=(2.0, 9.0))
    for index, room in enumerate(("living", "kitchen", "bedroom")):
        home.add_sensor(f"temp-{room}", kind="temperature",
                        position=(5.0 + 5 * index, 6.0))
    home.add_actuator("lights", position=(10.0, 6.0))
    home.add_actuator("siren", position=(9.0, 1.0))
    home.add_actuator("hvac", kind="hvac", position=(2.0, 5.0))

    home.deploy(automated_lighting(["hall-motion"], "lights",
                                   check_interval_s=10.0))
    home.deploy(intrusion_detection(["front-door", "patio-door"],
                                    siren="siren", name="intrusion"))
    billing_app, billing = energy_billing("meter", report_interval_s=120.0)
    home.deploy(billing_app)
    home.deploy(temperature_hvac(
        [f"temp-{room}" for room in ("living", "kitchen", "bedroom")],
        "hvac", threshold=23.0, epoch_s=10.0, window_s=10.0,
        arbitrary_failures=False,
    ))
    home.billing = billing  # stash for the report
    return home


def schedule_day(home: Home) -> None:
    home.play(
        [(float(t), "hall-motion", True) for t in range(10, int(DAY), 15)]
        + [(float(t), "meter", 12.5) for t in range(5, int(DAY), 10)]  # Wh per tick
        + [(140.0, "front-door", True)]  # someone breaks in
    )


def main() -> None:
    home = build_home()
    faults = (FaultPlan()
              .crash("tv", at=60.0)
              .recover("tv", at=100.0)
              .partition([["hub"], ["tv", "fridge"]], at=180.0)
              .heal(at=220.0)
              .fail_sensor("temp-bedroom", at=240.0))
    home.start()
    faults.apply(home)
    schedule_day(home)

    print("== running one compressed day with crashes, a partition, and a "
          "dying sensor ==")
    home.run_until(DAY)

    links = {s: home.radio.reachable_processes(s) for s in home.sensor_names}
    print("== radio reachability from the floor plan ==")
    for sensor, hosts in sorted(links.items()):
        print(f"  {sensor:13s} -> {hosts}")

    print("== what the platform delivered ==")
    print(f"  logic deliveries: {home.trace.count('logic_delivery')}")
    print(f"  promotions/demotions: {home.trace.count('promotion')}/"
          f"{home.trace.count('demotion')}")
    alerts = [(round(e.time, 1), e['message']) for e in home.trace.of_kind('alert')]
    print(f"  alerts: {alerts}")
    print(f"  lights state: {home.actuator('lights').state}; "
          f"siren: {home.actuator('siren').state}")
    print(f"  energy billed: {home.billing.total_kwh:.3f} kWh = "
          f"${home.billing.total_cost:.4f} "
          f"({home.billing.events_counted} meter events)")

    assert any(m == "intrusion detected" for _, m in alerts)
    assert home.billing.events_counted == 30  # every meter event billed once
    assert home.trace.count("operator_error") == 0
    print("OK: four apps, one bad day, zero operator errors")


if __name__ == "__main__":
    main()
