"""Home: the top-level deployment builder and simulation facade.

A :class:`Home` assembles a whole smart home — processes (hub, TV, fridge,
...), sensors, actuators, the WiFi network, the radio links — deploys apps,
and runs the simulation. It also implements the fault-injection surface
that :class:`repro.sim.faults.FaultPlan` drives.

Typical use::

    home = Home(seed=7)
    home.add_process("hub")
    home.add_process("tv")
    home.add_sensor("door1", kind="door", processes=["tv"])
    home.add_actuator("light1", kind="switch", processes=["hub"])
    home.deploy(app)           # an App built from Operators
    home.run_for(60.0)
    home.sensor("door1").emit(True)   # or let a workload drive it

A home may instead join a shared :class:`~repro.sim.context.SimContext` as
one tenant of a fleet (``Home(config, context=ctx, home_id="h0")``); see
:mod:`repro.core.fleet` for the fleet facade and docs/fleet.md for the
determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.delivery_service import DeviceInfo
from repro.core.graph import App, validate_apps
from repro.core.plan import DeploymentPlan
from repro.core.runtime import RivuletProcess
from repro.core.stack import SERVICE_COUNTERS, StackConfig
from repro.devices.actuator import Actuator
from repro.devices.catalog import SENSOR_CATALOG, make_sensor, technology_named
from repro.devices.sensor import PollSensor, PushSensor, Sensor
from repro.net.latency import LatencyModel, ProcessingModel
from repro.net.radio import RadioNetwork
from repro.net.topology import HomeTopology
from repro.net.transport import HomeNetwork
from repro.sim.context import SimContext
from repro.sim.faults import FaultError
from repro.sim.random import RandomSource
from repro.sim.tracing import Trace


@dataclass
class HomeConfig(StackConfig):
    """Deployment-wide knobs (defaults reproduce the paper's testbed): the
    stack every process boots with, plus what only the simulated home has."""

    seed: int = 42
    latency: LatencyModel = field(default_factory=LatencyModel)
    processing: ProcessingModel = field(default_factory=ProcessingModel)
    keep_trace_kinds: set[str] | None = None
    sensor_watch: bool = False
    """Enable silent-sensor failure detection (see core.sensorwatch)."""

    trace_digest: bool = False
    """Maintain a streaming trace hash so ``trace.digest()`` works even
    with ``keep_trace_kinds`` restricted (fleet cells rely on this)."""


@dataclass
class _ProcessDecl:
    adapters: tuple[str, ...]
    clock_skew: float
    modified_openzwave: bool
    compute: float = 1.0


@dataclass
class _DeviceDecl:
    processes: list[str] | None
    loss_rate: float | None


class _LinkFlapper:
    """Cycles a device's radio links down/up (flapping connectivity).

    Starts with the outage phase — a flap fault should bite immediately —
    then alternates up for ``duty`` and down for ``1 - duty`` of each
    ``period``. ``stop`` cancels the cycle and re-enables the links.
    """

    def __init__(self, home: "Home", device: str, period: float, duty: float) -> None:
        self._home = home
        self._device = device
        self._period = period
        self._duty = duty
        self._processes = [l.process for l in home.radio.links_from(device)]
        self._down = False
        self._set_links(False)
        self._handle = home.scheduler.call_later((1.0 - duty) * period, self._go_up)

    def _set_links(self, enabled: bool) -> None:
        self._down = not enabled
        for process in self._processes:
            self._home.radio.set_link_enabled(self._device, process, enabled)

    def _go_up(self) -> None:
        self._set_links(True)
        self._handle = self._home.scheduler.call_later(
            self._duty * self._period, self._go_down
        )

    def _go_down(self) -> None:
        self._set_links(False)
        self._handle = self._home.scheduler.call_later(
            (1.0 - self._duty) * self._period, self._go_up
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._down:
            self._set_links(True)


class _GhostDriver:
    """Spurious emissions on a push sensor at a Poisson rate (events/hour).

    Draws inter-arrival times from a dedicated ``ghost/<name>`` child
    stream; derivation is stateless, so homes without ghost faults keep a
    bit-identical draw sequence.
    """

    def __init__(self, home: "Home", sensor: PushSensor, rate_per_hour: float) -> None:
        self._home = home
        self._sensor = sensor
        self._rate_per_s = rate_per_hour / 3600.0
        self._rng = home.rng.child(f"ghost/{sensor.name}")
        self._handle = home.scheduler.call_later(
            self._rng.expovariate(self._rate_per_s), self._fire
        )

    def _fire(self) -> None:
        self._home.trace.record(
            self._home.scheduler.now, "sensor_ghost", sensor=self._sensor.name
        )
        self._sensor.emit(True)
        self._handle = self._home.scheduler.call_later(
            self._rng.expovariate(self._rate_per_s), self._fire
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class Home:
    """A simulated smart home running the Rivulet platform."""

    def __init__(
        self,
        config: HomeConfig | None = None,
        *,
        context: SimContext | None = None,
        home_id: str | None = None,
        **overrides: Any,
    ) -> None:
        """Build a home, optionally as one tenant of a shared ``context``.

        Without ``context`` the home constructs a private
        :class:`~repro.sim.context.SimContext` — the historical sole-tenant
        behaviour, bit-identical down to the trace digest. With one, the
        home shares the context's scheduler (one virtual timeline across
        all tenants) while keeping its own trace, RNG root, transport and
        radio — so its trace is identical to a solo run of the same home.
        ``home_id`` names the tenant inside the context; it may not
        contain "/".
        """
        if config is None:
            config = HomeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a HomeConfig or keyword overrides, not both")
        if home_id is not None:
            if not home_id or "/" in home_id:
                raise ValueError(
                    f"home_id must be a non-empty string without '/', got {home_id!r}"
                )
        self.config = config
        self.home_id = home_id
        self.context = context if context is not None else SimContext(seed=config.seed)
        self.scheduler = self.context.scheduler
        self.trace = Trace(
            keep_kinds=config.keep_trace_kinds, digest=config.trace_digest
        )
        self.rng = RandomSource(config.seed)
        self.network = HomeNetwork(
            self.scheduler, self.rng, self.trace, latency=config.latency
        )
        self.radio = RadioNetwork(self.scheduler, self.rng, self.trace)
        self.topology = HomeTopology()
        self.context.register_home(self)

        self._process_decls: dict[str, _ProcessDecl] = {}
        self._device_decls: dict[str, _DeviceDecl] = {}
        self._sensors: dict[str, Sensor] = {}
        self._actuators: dict[str, Actuator] = {}
        self._apps: list[App] = []
        self.processes: dict[str, RivuletProcess] = {}
        self.plan: DeploymentPlan | None = None
        self._started = False
        self._flappers: dict[str, _LinkFlapper] = {}
        self._ghosts: dict[str, _GhostDriver] = {}

    # -- construction -------------------------------------------------------------

    def add_process(
        self,
        name: str,
        *,
        adapters: Sequence[str] = ("zwave", "zigbee", "ble", "ip"),
        position: tuple[float, float] | None = None,
        clock_skew: float = 0.0,
        modified_openzwave: bool = True,
        compute: float = 1.0,
    ) -> "Home":
        """Declare a host (hub, TV, fridge, ...) running a Rivulet process.

        ``compute`` is the host's relative capability (1.0 = hub-class);
        it breaks placement ties toward beefier appliances.
        """
        self._ensure_not_started()
        self._ensure_unique_name(name)
        if compute <= 0:
            raise ValueError(f"compute must be positive, got {compute}")
        self._process_decls[name] = _ProcessDecl(
            adapters=tuple(adapters),
            clock_skew=clock_skew,
            modified_openzwave=modified_openzwave,
            compute=compute,
        )
        if position is not None:
            self.topology.place(name, *position)
        return self

    def add_sensor(
        self,
        name: str,
        kind: str,
        *,
        processes: Sequence[str] | None = None,
        position: tuple[float, float] | None = None,
        loss_rate: float | None = None,
        event_size: int | None = None,
        technology: str | None = None,
        service_time: float | None = None,
        failure_rate: float = 0.0,
    ) -> Sensor:
        """Declare a sensor; links are resolved at :meth:`start`.

        ``processes`` restricts which hosts may receive its events directly
        (modelling range/topology by hand); by default every host with a
        matching adapter is linked — unless positions are set, in which case
        the floor plan decides reachability and loss.
        """
        self._ensure_not_started()
        self._ensure_unique_name(name)
        sensor = make_sensor(
            kind, name,
            scheduler=self.scheduler, radio=self.radio, rng=self.rng,
            trace=self.trace, event_size=event_size, technology=technology,
            service_time=service_time, failure_rate=failure_rate,
        )
        self._sensors[name] = sensor
        self._device_decls[name] = _DeviceDecl(
            processes=list(processes) if processes is not None else None,
            loss_rate=loss_rate,
        )
        if position is not None:
            self.topology.place(name, *position)
        return sensor

    def add_actuator(
        self,
        name: str,
        *,
        kind: str = "switch",
        processes: Sequence[str] | None = None,
        position: tuple[float, float] | None = None,
        technology: str = "zwave",
        idempotent: bool = True,
        supports_test_and_set: bool = False,
        initial_state: Any = None,
        loss_rate: float | None = None,
    ) -> Actuator:
        """Declare an actuator (light, siren, lock, dispenser, ...)."""
        self._ensure_not_started()
        self._ensure_unique_name(name)
        actuator = Actuator(
            name,
            scheduler=self.scheduler, radio=self.radio, trace=self.trace,
            technology=technology_named(technology), kind=kind,
            idempotent=idempotent, supports_test_and_set=supports_test_and_set,
            initial_state=initial_state,
        )
        self._actuators[name] = actuator
        self._device_decls[name] = _DeviceDecl(
            processes=list(processes) if processes is not None else None,
            loss_rate=loss_rate,
        )
        if position is not None:
            self.topology.place(name, *position)
        return actuator

    def deploy(self, app: App) -> "Home":
        """Register an application for deployment at :meth:`start`."""
        self._ensure_not_started()
        self._apps.append(app)
        validate_apps(self._apps)
        return self

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "Home":
        """Resolve links, build the deployment plan, boot every process."""
        if self._started:
            return self
        if not self._process_decls:
            raise ValueError("a home needs at least one process")
        self._started = True

        sensor_hosts: dict[str, list[str]] = {}
        actuator_hosts: dict[str, list[str]] = {}
        for name, device in {**self._sensors, **self._actuators}.items():
            hosts = self._resolve_links(name, device)
            if name in self._sensors:
                sensor_hosts[name] = hosts
            else:
                actuator_hosts[name] = hosts

        self.plan = DeploymentPlan(
            processes=list(self._process_decls),
            sensor_hosts=sensor_hosts,
            actuator_hosts=actuator_hosts,
            apps=list(self._apps),
            host_compute={
                name: decl.compute for name, decl in self._process_decls.items()
            },
        )
        self.plan.validate()
        device_info = self._build_device_info()

        for name, decl in self._process_decls.items():
            process = RivuletProcess(
                name,
                scheduler=self.scheduler,
                network=self.network,
                radio=self.radio,
                trace=self.trace,
                rng=self.rng,
                plan=self.plan,
                device_info=device_info,
                config=self.config,
                adapter_technologies=decl.adapters,
                processing=self.config.processing,
                clock_skew=decl.clock_skew,
                modified_openzwave=decl.modified_openzwave,
                sensor_watch=self.config.sensor_watch,
            )
            self.processes[name] = process
        for process in self.processes.values():
            process.boot()
        return self

    def _resolve_links(self, name: str, device: Any) -> list[str]:
        decl = self._device_decls[name]
        technology = device.technology
        if decl.processes is not None:
            candidates = decl.processes
            for candidate in candidates:
                if candidate not in self._process_decls:
                    raise KeyError(
                        f"device {name!r} references unknown process {candidate!r}"
                    )
        else:
            candidates = list(self._process_decls)

        linked: list[str] = []
        for process_name in candidates:
            if technology.name not in self._process_decls[process_name].adapters:
                continue
            reachable, topo_loss = self.topology.link_quality(
                name, process_name, technology
            )
            if not reachable:
                continue
            loss = decl.loss_rate if decl.loss_rate is not None else topo_loss
            self.radio.connect(name, process_name, technology, loss_rate=loss)
            linked.append(process_name)
            if not technology.supports_multicast:
                break  # single-link technologies (BLE) bind one host
        return sorted(linked)

    def _build_device_info(self) -> dict[str, DeviceInfo]:
        info: dict[str, DeviceInfo] = {}
        for name, sensor in self._sensors.items():
            spec = SENSOR_CATALOG.get(sensor.kind)
            is_poll = isinstance(sensor, PollSensor)
            info[name] = DeviceInfo(
                name=name,
                category="sensor",
                mode="poll" if is_poll else "push",
                technology=sensor.technology.name,
                service_time=sensor.service_time if is_poll else None,
                default_epoch=spec.default_epoch if spec else None,
            )
        for name, actuator in self._actuators.items():
            info[name] = DeviceInfo(
                name=name, category="actuator", technology=actuator.technology.name,
            )
        return info

    def run_until(self, deadline: float) -> "Home":
        self.start()
        self.scheduler.run_until(deadline)
        return self

    def run_for(self, duration: float) -> "Home":
        self.start()
        self.scheduler.run_until(self.scheduler.now + duration)
        return self

    # -- fault-injection surface (a FaultPlan action's kind is its method name) ------------
    #
    # Every entry point validates its arguments and raises FaultError on an
    # impossible injection (unknown names, crashing a dead process, loss
    # rates outside [0, 1]) so that generated fault schedules fail loudly
    # instead of silently misbehaving.

    def crash_process(self, name: str) -> None:
        process = self._fault_process(name)
        if not process.alive:
            raise FaultError(f"cannot crash {name!r}: already crashed")
        process.crash()

    def recover_process(self, name: str) -> None:
        process = self._fault_process(name)
        if process.alive:
            raise FaultError(f"cannot recover {name!r}: process is live")
        process.recover()

    def set_partition(self, groups: Sequence[Sequence[str]]) -> None:
        self.start()
        for group in groups:
            for name in group:
                if name not in self.processes:
                    raise FaultError(
                        f"cannot partition unknown process {name!r}"
                    )
        self.network.partition.set_partition(groups)
        self.trace.record(self.scheduler.now, "partition",
                          groups=[list(g) for g in groups])

    def heal_partition(self) -> None:
        self.network.partition.heal()
        self.trace.record(self.scheduler.now, "partition_healed")

    def fail_sensor(self, name: str) -> None:
        self._fault_device(name, self._sensors, "sensor").fail()

    def recover_sensor(self, name: str) -> None:
        self._fault_device(name, self._sensors, "sensor").recover()

    def fail_actuator(self, name: str) -> None:
        self._fault_device(name, self._actuators, "actuator").fail()

    def recover_actuator(self, name: str) -> None:
        self._fault_device(name, self._actuators, "actuator").recover()

    def set_link_loss(self, device: str, process: str, loss_rate: float) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise FaultError(
                f"loss rate must be in [0, 1], got {loss_rate}"
            )
        try:
            self.radio.set_link_loss(device, process, loss_rate)
        except KeyError as exc:
            raise FaultError(
                f"no radio link {device!r} -> {process!r}"
            ) from exc

    # -- soft device faults (IoTRepair taxonomy) ----------------------------------

    def stick_sensor(self, name: str, value: Any) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if sensor.stuck:
            raise FaultError(f"cannot stick {name!r}: already stuck")
        sensor.stick(value)

    def unstick_sensor(self, name: str) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if not sensor.stuck:
            raise FaultError(f"cannot unstick {name!r}: not stuck")
        sensor.unstick()

    def drift_sensor(self, name: str, rate: float) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if rate == 0 or not math.isfinite(rate):
            raise FaultError(f"drift rate must be nonzero and finite, got {rate}")
        if sensor.drifting:
            raise FaultError(f"cannot drift {name!r}: already drifting")
        sensor.set_drift(rate)

    def stop_drift(self, name: str) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if not sensor.drifting:
            raise FaultError(f"cannot stop drift on {name!r}: not drifting")
        sensor.clear_drift()

    def flap_link(self, name: str, period: float, duty: float) -> None:
        self.start()  # links resolve at start
        if name not in self._sensors and name not in self._actuators:
            raise FaultError(f"unknown device {name!r}")
        if period <= 0 or not math.isfinite(period):
            raise FaultError(f"flap period must be positive, got {period}")
        if not 0.0 < duty < 1.0:
            raise FaultError(f"flap duty must be in (0, 1), got {duty}")
        if name in self._flappers:
            raise FaultError(f"cannot flap {name!r}: already flapping")
        if not self.radio.links_from(name):
            raise FaultError(f"cannot flap {name!r}: device has no radio links")
        self.trace.record(self.scheduler.now, "link_flap",
                          device=name, period=period, duty=duty)
        self._flappers[name] = _LinkFlapper(self, name, period, duty)

    def stop_flap(self, name: str) -> None:
        flapper = self._flappers.pop(name, None)
        if flapper is None:
            raise FaultError(f"cannot stop flapping on {name!r}: not flapping")
        flapper.stop()
        self.trace.record(self.scheduler.now, "link_flap_stopped", device=name)

    def ghost_events(self, name: str, rate: float) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if not isinstance(sensor, PushSensor):
            raise FaultError(f"cannot ghost {name!r}: not a push sensor")
        if rate <= 0 or not math.isfinite(rate):
            raise FaultError(f"ghost rate must be positive, got {rate}")
        if name in self._ghosts:
            raise FaultError(f"cannot ghost {name!r}: already ghosting")
        self.trace.record(self.scheduler.now, "ghost_started",
                          sensor=name, rate=rate)
        self._ghosts[name] = _GhostDriver(self, sensor, rate)

    def stop_ghost(self, name: str) -> None:
        driver = self._ghosts.pop(name, None)
        if driver is None:
            raise FaultError(f"cannot stop ghosting on {name!r}: not ghosting")
        driver.stop()
        self.trace.record(self.scheduler.now, "ghost_stopped", sensor=name)

    def brownout(self, name: str, level: float) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        if not 0.0 <= level <= 1.0:
            raise FaultError(f"brownout level must be in [0, 1], got {level}")
        if level > sensor.battery.level:
            raise FaultError(
                f"brownout cannot raise {name!r} battery level "
                f"({sensor.battery.level:.3f} -> {level})"
            )
        sensor.battery.brownout_to(level)
        self.trace.record(self.scheduler.now, "brownout", sensor=name, level=level)

    def replace_battery(self, name: str) -> None:
        sensor = self._fault_device(name, self._sensors, "sensor")
        sensor.battery.replace()
        self.trace.record(self.scheduler.now, "battery_replaced", sensor=name)

    def is_flapping(self, name: str) -> bool:
        return name in self._flappers

    def is_ghosting(self, name: str) -> bool:
        return name in self._ghosts

    # -- accessors --------------------------------------------------------------------------

    def process(self, name: str) -> RivuletProcess:
        return self._live_process(name)

    def sensor(self, name: str) -> Sensor:
        try:
            return self._sensors[name]
        except KeyError:
            raise KeyError(f"unknown sensor {name!r}") from None

    def actuator(self, name: str) -> Actuator:
        try:
            return self._actuators[name]
        except KeyError:
            raise KeyError(f"unknown actuator {name!r}") from None

    def sensors_of_kind(self, kind: str) -> list[str]:
        """Names of all sensors of one kind (the paper's Rivulet.getSensors)."""
        return sorted(n for n, s in self._sensors.items() if s.kind == kind)

    @property
    def process_names(self) -> list[str]:
        return sorted(self._process_decls)

    @property
    def sensor_names(self) -> list[str]:
        return sorted(self._sensors)

    @property
    def actuator_names(self) -> list[str]:
        return sorted(self._actuators)

    @property
    def apps(self) -> list[App]:
        return list(self._apps)

    def stats(self) -> dict[str, Any]:
        """Lane counters: what the change-time caches built, and why the
        multicast lane refused, over the whole run: the four service
        counters are summed over every incarnation of every process."""
        network = self.network
        stats: dict[str, Any] = {
            "plan_builds": network.plan_builds,
            "plan_repayloads": network.plan_repayloads,
            "lane_refusals": dict(network.lane_refusals),
        }
        per_process = [p.service_counters() for p in self.processes.values()]
        for _, counter in SERVICE_COUNTERS:
            stats[counter] = sum(counters[counter] for counters in per_process)
        return stats

    # -- internals ---------------------------------------------------------------------------------

    def _live_process(self, name: str) -> RivuletProcess:
        self.start()
        try:
            return self.processes[name]
        except KeyError:
            raise KeyError(f"unknown process {name!r}") from None

    def _fault_process(self, name: str) -> RivuletProcess:
        self.start()
        try:
            return self.processes[name]
        except KeyError:
            raise FaultError(f"unknown process {name!r}") from None

    def _fault_device(self, name: str, devices: dict, what: str) -> Any:
        try:
            return devices[name]
        except KeyError:
            raise FaultError(f"unknown {what} {name!r}") from None

    def _ensure_not_started(self) -> None:
        if self._started:
            raise RuntimeError("the home is already running; declare everything first")

    def _ensure_unique_name(self, name: str) -> None:
        if not name:
            raise ValueError("names must be non-empty")
        taken = (
            name in self._process_decls
            or name in self._sensors
            or name in self._actuators
        )
        if taken:
            raise ValueError(f"name {name!r} is already in use")
