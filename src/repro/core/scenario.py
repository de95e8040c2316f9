"""Scenario: one static description of a home, read by every runtime.

Section 3.3 of the paper makes a deployment configuration, not state:
processes, sensor -> host links, actuators and apps, from which every
process boots the same delivery + execution stack. A :class:`Scenario` is
that description as one value. Three runtimes read it:

- the simulator, through :func:`build_sim_home`;
- the in-process asyncio cluster, through
  :func:`repro.rt.cluster.build_cluster`;
- one OS process per node (:class:`repro.rt.proc.ProcessHome`), whose
  children look the scenario up by name and call
  :meth:`Scenario.rt_deployment`.

A scenario also states its fault script, one
:class:`~repro.sim.faults.FaultPlan` per run duration. Named scenarios live
in :mod:`repro.apps.scenarios`; workloads, chaos fault domains and oracles
stay with the evaluation code that judges a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from repro.core.delivery_service import DeviceInfo
from repro.core.graph import App
from repro.core.home import Home, HomeConfig
from repro.core.plan import DeploymentPlan
from repro.devices.catalog import sensor_spec
from repro.sim.faults import FaultPlan

#: Service time of an rt poll device: a software handler answers at once
#: (the Z-Wave service times of Section 8.5 belong to the simulated radios).
RT_POLL_SERVICE_S = 0.02


def _no_faults(duration: float) -> FaultPlan:
    """The default fault script: a fault-free run of any duration."""
    return FaultPlan()


@dataclass(frozen=True)
class Scenario:
    """A home that builds on any runtime."""

    name: str
    processes: tuple[str, ...]
    #: sensor -> (catalog kind, receiving processes). The kind decides push
    #: vs. poll, event size and battery; it is stated, never guessed.
    sensors: dict[str, tuple[str, tuple[str, ...]]]
    actuators: dict[str, tuple[str, ...]] = field(default_factory=dict)
    make_apps: Callable[[], list[App]] = list
    delivery_override: dict[str, str] = field(default_factory=dict)
    heartbeat_interval: float = 0.5
    failure_detection_s: float = 2.0
    #: Poll epoch an rt device falls back to when no app states a policy.
    poll_epoch_s: float = 0.5
    #: The run's fault script, given its duration in seconds: one plan for
    #: every runtime (a process -> process ``set_link_loss`` is rt-only; see
    #: :func:`repro.eval.rt.run_sim_case`).
    faults: Callable[[float], FaultPlan] = _no_faults

    def _receivers(self, mode: str) -> dict[str, tuple[str, ...]]:
        return {
            name: receivers
            for name, (kind, receivers) in sorted(self.sensors.items())
            if sensor_spec(kind).mode == mode
        }

    @cached_property
    def push_sensors(self) -> dict[str, tuple[str, ...]]:
        """Push sensor -> receiving processes, sorted by sensor name."""
        return self._receivers("push")

    @cached_property
    def poll_sensors(self) -> dict[str, tuple[str, ...]]:
        """Poll sensor -> polling processes, sorted by sensor name."""
        return self._receivers("poll")

    @property
    def push_links(self) -> tuple[tuple[str, str], ...]:
        """Every (push sensor, receiving process) radio link."""
        return tuple(
            (sensor, process)
            for sensor, receivers in self.push_sensors.items()
            for process in receivers
        )

    def stack_fields(self) -> dict[str, Any]:
        """The :class:`~repro.core.stack.StackConfig` fields a scenario
        states, for every builder to splat into its runtime's config."""
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "failure_detection_s": self.failure_detection_s,
            "delivery_override": dict(self.delivery_override),
        }

    def rt_deployment(self) -> tuple[DeploymentPlan, dict[str, DeviceInfo]]:
        """What every rt node of this home boots from (fresh app objects)."""
        return rt_deployment(
            self.processes,
            {**self.push_sensors, **self.poll_sensors},
            dict.fromkeys(self.poll_sensors, (RT_POLL_SERVICE_S, self.poll_epoch_s)),
            self.actuators,
            self.make_apps(),
        )


def rt_deployment(
    processes: Sequence[str],
    sensor_hosts: Mapping[str, Sequence[str]],
    poll_timing: Mapping[str, tuple[float, float]],
    actuator_hosts: Mapping[str, Sequence[str]],
    apps: Sequence[App],
) -> tuple[DeploymentPlan, dict[str, DeviceInfo]]:
    """The validated plan and device table of a home on the real runtime.

    rt devices are software adapters on IP, so a device is its name and
    its category; ``poll_timing`` names the sensors that are polled, each
    with its ``(service time, default epoch)``. The one derivation both
    :class:`~repro.rt.cluster.LocalCluster` (from its declarations) and a
    subprocess child (from its scenario) use.
    """
    device_info = {
        actuator: DeviceInfo(name=actuator, category="actuator", technology="ip")
        for actuator in actuator_hosts
    }
    for sensor in sensor_hosts:
        service_time, epoch_s = poll_timing.get(sensor, (None, None))
        device_info[sensor] = DeviceInfo(
            name=sensor, category="sensor", technology="ip",
            mode="push" if service_time is None else "poll",
            service_time=service_time, default_epoch=epoch_s,
        )
    # The plan keeps its own sorted copies of the host tables.
    plan = DeploymentPlan(processes, sensor_hosts, actuator_hosts, list(apps))
    plan.validate()
    return plan, device_info


def build_sim_home(scenario: Scenario, *, seed: int, **config: Any) -> Home:
    """The scenario as a simulated :class:`Home`, not yet started.

    ``config`` passes further :class:`HomeConfig` fields through
    (``keep_trace_kinds``, ``gapless_options``, ``trace_digest``, ...).
    Declaration order reaches the trace: processes as listed, push sensors
    by name on IP, poll sensors by name on Z-Wave, actuators and apps as
    listed.
    """
    home = Home(HomeConfig(seed=seed, **scenario.stack_fields(), **config))
    for name in scenario.processes:
        home.add_process(name, adapters=("ip", "zwave"))
    for technology, sensors in (
        ("ip", scenario.push_sensors), ("zwave", scenario.poll_sensors),
    ):
        for sensor, receivers in sensors.items():
            home.add_sensor(sensor, kind=scenario.sensors[sensor][0],
                            technology=technology, processes=list(receivers))
    for actuator, hosts in scenario.actuators.items():
        home.add_actuator(actuator, processes=list(hosts))
    for app in scenario.make_apps():
        home.deploy(app)
    return home
