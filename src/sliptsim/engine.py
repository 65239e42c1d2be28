"""Deterministic discrete-event simulation core.

The engine owns a single event queue ordered by (time, insertion
sequence).  Between events every per-node power flow is constant, so
energy is integrated in closed form when a node is next touched (lazy
per-node advancement), and charge/depletion instants are scheduled as
exact timer events instead of being polled.

Randomness: every random stream is derived from the master seed as

    default_rng(SeedSequence(master_seed, spawn_key=(crc32(purpose),)))

where `purpose` is a string such as "fading:tx0:node0".  Adding a node
or link therefore never perturbs the streams of existing ones, and a
fixed (scenario, seed) pair reproduces traces byte for byte.  Only links
with a non-zero scintillation index draw from a stream, so only those
get one, and numpy is imported when the first one is built: a calm
scenario runs without it.
"""

import heapq
import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol

from sliptsim.channel import LinkParams, attenuate, geometric_capture, sample_fading
from sliptsim.energy_store import EnergyStore
from sliptsim.errors import ConfigError
from sliptsim.harvester import SolarCell
from sliptsim.node import (
    Command,
    NodeState,
    Opcode,
    Phase,
    Stimulus,
    decode_command,
    encode_command,
    load_power,
)
from sliptsim.policy import (  # noqa: F401 - bench/traced.py times engine.split
    Policy,
    TimeSwitchSchedule,
    TxRole,
    assign_spatial,
    mode_at,
    split,
)

if TYPE_CHECKING:
    import numpy as np

FRAME_BITS = 32  # 4-byte command frame
_FULL_REL_TOL = 1e-12

TRACE_FIELDS = (
    "time",
    "node_id",
    "event_kind",
    "phase",
    "stored_J",
    "V_B",
    "harvested_J_cum",
    "decoded_bits_cum",
)


def rng_stream(master_seed: int, purpose: str) -> "np.random.Generator":
    """Derive the deterministic random stream for a named purpose."""
    import numpy as np

    key = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(key,)))


# -- Scenario definition (built by sliptsim.scenario from config files) ------


@dataclass
class TransmitterDef:
    tx_id: str
    beam: LinkParams
    on_time: float = 0.0
    off_time: float | None = None
    targets: list[str] | None = None  # None = every node
    dual_energy: LinkParams | None = None
    dual_data: LinkParams | None = None
    distances: dict[str, float] = field(default_factory=dict)  # per-node override [m]

    def beam_for(self, beam: LinkParams, node_id: str) -> LinkParams:
        d = self.distances.get(node_id)
        if d is None:
            return beam
        return replace(beam, geometry=replace(beam.geometry, distance=d))


@dataclass
class NodeDef:
    node_id: str
    cell: SolarCell
    store: EnergyStore
    policy: Policy
    v_threshold: float = 3.6
    enabled_sensors: set[int] = field(default_factory=set)
    active_load: str = "sense_and_save"
    sleep_load: str = "sleep"
    sense_seconds_per_sensor: float = 2.0
    sensor_values: dict[int, object] = field(default_factory=dict)  # const or [(t, v)] steps
    uplink_rate: float = 500e3
    uplink_load: str = "laser_uplink"
    record_bits: int = 128
    data_demand: bool = False
    commands: list[Command] = field(default_factory=list)


@dataclass
class StimulusDef:
    time: float
    node_id: str
    stimulus: Stimulus


@dataclass
class Scenario:
    name: str
    duration: float
    seed: int | None
    transmitters: list[TransmitterDef]
    nodes: list[NodeDef]
    stimuli: list[StimulusDef] = field(default_factory=list)
    scenario_hash: str = ""


# -- Metrics ------------------------------------------------------------------


@dataclass
class NodeMetrics:
    harvested_j: float = 0.0
    consumed_j: float = 0.0
    spilled_j: float = 0.0
    decoded_bits: float = 0.0
    delivered_records: int = 0
    outage_s: float = 0.0
    protocol_errors: int = 0
    phase_occupancy: dict[str, float] = field(default_factory=dict)
    charge_completions: list[float] = field(default_factory=list)
    stored_initial_j: float = 0.0
    stored_final_j: float = 0.0

    def to_dict(self) -> dict:
        return {
            "harvested_J": self.harvested_j,
            "consumed_J": self.consumed_j,
            "spilled_J": self.spilled_j,
            "decoded_bits": self.decoded_bits,
            "delivered_records": self.delivered_records,
            "outage_s": self.outage_s,
            "protocol_errors": self.protocol_errors,
            "phase_occupancy_s": dict(sorted(self.phase_occupancy.items())),
            "charge_completions_s": list(self.charge_completions),
            "stored_initial_J": self.stored_initial_j,
            "stored_final_J": self.stored_final_j,
        }


@dataclass
class Metrics:
    nodes: dict[str, NodeMetrics] = field(default_factory=dict)
    frame_errors: dict[str, int] = field(default_factory=dict)  # "tx->node" -> count
    events_processed: int = 0
    end_time: float = 0.0
    seed: int = 0
    scenario_hash: str = ""
    spatial_assignment: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "end_time_s": self.end_time,
            "events_processed": self.events_processed,
            "nodes": {nid: m.to_dict() for nid, m in self.nodes.items()},
            "frame_errors": dict(sorted(self.frame_errors.items())),
        }
        if self.spatial_assignment is not None:
            doc["spatial_assignment"] = self.spatial_assignment
        return doc


# -- Runtime state ------------------------------------------------------------


@dataclass
class _LinkRuntime:
    tx_id: str
    node_id: str
    params: LinkParams
    in_harvest: bool = True  # contributes to the harvest pool
    in_decode: bool = True  # contributes to the decode pool
    active: bool = False
    fade: float = 1.0
    base_power: float = 0.0  # tx_power * capture * exp(-alpha z), fade excluded
    rng: "np.random.Generator | None" = None  # None on a calm link: the fade stays 1

    def power_now(self) -> float:
        return self.base_power * self.fade if self.active else 0.0


@dataclass
class _NodeRuntime:
    cfg: NodeDef
    cell: SolarCell
    store: EnergyStore
    state: NodeState
    metrics: NodeMetrics
    links: list[_LinkRuntime] = field(default_factory=list)
    schedule: TimeSwitchSchedule | None = None
    # piecewise-constant snapshot, valid since last_t
    last_t: float = 0.0
    harvest_elec: float = 0.0  # W into the store
    load_elec: float = 0.0  # W out of the store
    decode_in: float = 0.0  # optical W at the decoder
    decoding: bool = False
    lit: bool = False
    was_full: bool = False
    timer_gen: int = 0
    # command session bookkeeping
    session_commands: list[Command] = field(default_factory=list)
    session_last_frame: int = -1
    uplink_until: float = 0.0
    slot_index: int = 0


class Simulation:
    """One scenario instance wired up and ready to run."""

    def __init__(self, scenario: Scenario, seed_override: int | None = None,
                 sink: "TraceSink | None" = None):
        seed = seed_override if seed_override is not None else scenario.seed
        if seed is None:
            raise ConfigError("engine.seed", "a seed is required (file or --seed)")
        self.scenario = scenario
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError("engine.seed", f"must be >= 0, got {seed}")
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self.trace: TraceSink = MemorySink() if sink is None else sink
        self.metrics = Metrics(seed=self.seed, scenario_hash=scenario.scenario_hash)
        self.nodes: dict[str, _NodeRuntime] = {}
        self._build_nodes()
        self._build_links()
        self._prime_events()

    # -- construction --------------------------------------------------------

    def _build_nodes(self):
        for nd in self.scenario.nodes:
            state = NodeState(
                v_threshold=nd.v_threshold,
                enabled_sensors=set(nd.enabled_sensors),
                active_load=nd.active_load,
                sleep_load=nd.sleep_load,
            )
            n = _NodeRuntime(
                cfg=nd,
                cell=replace(nd.cell),
                store=replace(nd.store),
                state=state,
                metrics=NodeMetrics(stored_initial_j=nd.store.stored),
                schedule=nd.policy.schedule,
            )
            self.metrics.nodes[nd.node_id] = n.metrics
            self.nodes[nd.node_id] = n

    def _link_for(self, tx: TransmitterDef, node_id: str, beam: LinkParams,
                  tag: str, in_harvest: bool, in_decode: bool) -> _LinkRuntime:
        beam = tx.beam_for(beam, node_id)
        link = _LinkRuntime(
            tx_id=tx.tx_id,
            node_id=node_id,
            params=beam,
            in_harvest=in_harvest,
            in_decode=in_decode,
        )
        turbulence = beam.turbulence
        if turbulence.scintillation_index > 0.0:
            # streams are keyed by name, so skipping calm links moves no draw
            link.rng = rng_stream(
                self.seed, turbulence.rng_stream_id or f"fading:{tag}:{node_id}")
        link.base_power = attenuate(
            beam.tx_power, beam.water.total_attenuation, beam.geometry.distance
        ) * geometric_capture(beam.geometry)
        return link

    def _build_links(self):
        if any(nd.policy.spatial for nd in self.scenario.nodes):
            self._build_spatial_links()
            return
        for tx in self.scenario.transmitters:
            targets = tx.targets if tx.targets is not None else list(self.nodes)
            for node_id in targets:
                if node_id not in self.nodes:
                    raise ConfigError(f"transmitters.{tx.tx_id}.targets",
                                      f"unknown node {node_id!r}")
                n = self.nodes[node_id]
                if tx.dual_energy is not None:
                    n.links.append(self._link_for(
                        tx, node_id, tx.dual_energy, f"{tx.tx_id}:energy", True, False))
                    n.links.append(self._link_for(
                        tx, node_id, tx.dual_data, f"{tx.tx_id}:data", False, True))
                else:
                    n.links.append(self._link_for(tx, node_id, tx.beam, tx.tx_id, True, True))

    def _build_spatial_links(self):
        """Compute the Energy/Data role assignment, then wire one link per
        transmitter to the receiver its beam is pointed at."""
        tx_ids = [tx.tx_id for tx in self.scenario.transmitters]
        node_ids = list(self.nodes)
        link_power: dict[tuple[str, str], float] = {}
        beams: dict[tuple[str, str], LinkParams] = {}
        for tx in self.scenario.transmitters:
            for node_id in node_ids:
                beam = tx.beam_for(tx.beam, node_id)
                p = attenuate(beam.tx_power, beam.water.total_attenuation,
                              beam.geometry.distance) * geometric_capture(beam.geometry)
                link_power[(tx.tx_id, node_id)] = p
                beams[(tx.tx_id, node_id)] = beam
        demands = {nid: self.nodes[nid].cfg.data_demand for nid in node_ids}
        sensitivity = {nid: self.nodes[nid].cell.sensitivity for nid in node_ids}
        assignment = assign_spatial(tx_ids, node_ids, demands, link_power, sensitivity)
        tx_by_id = {tx.tx_id: tx for tx in self.scenario.transmitters}
        for tx_id, rx_id in assignment.target.items():
            is_data = assignment.roles[tx_id] is TxRole.DATA
            self.nodes[rx_id].links.append(self._link_for(
                tx_by_id[tx_id], rx_id, beams[(tx_id, rx_id)], tx_id,
                in_harvest=True, in_decode=is_data))
        self.metrics.spatial_assignment = {
            "roles": {t: r.value for t, r in sorted(assignment.roles.items())},
            "target": dict(sorted(assignment.target.items())),
            "infeasible": list(assignment.infeasible),
        }

    def _prime_events(self):
        for tx in self.scenario.transmitters:
            self._schedule(tx.on_time, "timer_expiry", action="tx_on", tx_id=tx.tx_id)
            if tx.off_time is not None:
                self._schedule(tx.off_time, "timer_expiry", action="tx_off", tx_id=tx.tx_id)
        for st in self.scenario.stimuli:
            self._schedule(st.time, "custom", node_id=st.node_id, stimulus=st.stimulus)
        for node_id, n in self.nodes.items():
            if n.schedule is not None:
                n.cell.mode = mode_at(n.schedule, 0.0)
                self._schedule_next_slot(n, node_id)
            self._refresh(n, 0.0)

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, t: float, kind: str, **payload):
        heapq.heappush(self._heap, (t, next(self._seq), kind, payload))

    def _schedule_next_slot(self, n: _NodeRuntime, node_id: str):
        sched = n.schedule
        if sched is None or sched.t1 == 0 or sched.t2 == 0:
            return  # degenerate schedule: a single mode forever, no boundaries
        # Boundary k covers: even k -> start of decode slot, odd k -> start of
        # a new period (harvest slot).  Times are recomputed from k each time
        # so the slot grid never accumulates floating-point drift.
        k = n.slot_index
        period_idx, half = divmod(k, 2)
        t = sched.phase_offset + period_idx * sched.period + (sched.t1 if half == 0 else sched.period)
        if t <= self.now:  # phase_offset may place early boundaries in the past
            n.slot_index += 1
            self._schedule_next_slot(n, node_id)
            return
        self._schedule(t, "slot_boundary", node_id=node_id)

    # -- power bookkeeping ----------------------------------------------------

    def _sensor_value(self, n: _NodeRuntime, sensor_id: int, t: float) -> float:
        src = n.cfg.sensor_values.get(sensor_id)
        if src is None:
            return 0.0
        if isinstance(src, (int, float)):
            return float(src)
        value = 0.0
        for t_k, v_k in src:  # step series, last point at or before t
            if t_k <= t:
                value = v_k
            else:
                break
        return value

    def _load_name(self, n: _NodeRuntime, t: float) -> str:
        if not n.cfg.policy.protocol:
            return n.cfg.active_load  # policy nodes draw one constant load
        phase = n.state.phase
        if phase in (Phase.SLEEP, Phase.HARVEST):
            return n.cfg.sleep_load
        if phase is Phase.COMMAND_RX and t < n.uplink_until:
            return n.cfg.uplink_load
        return n.cfg.active_load

    def _refresh(self, n: _NodeRuntime, t: float):
        """Recompute the piecewise-constant power snapshot at time t and
        (re)arm the node's charge / depletion timer."""
        harvest_pool = 0.0
        decode_pool = 0.0
        total = 0.0
        for link in n.links:
            p = link.power_now()
            total += p
            if link.in_harvest:
                harvest_pool += p
            if link.in_decode:
                decode_pool += p
        n.lit = total > 0.0

        cell = n.cell
        harvest_opt, n.decode_in, n.decoding = n.cfg.policy.divide(
            harvest_pool, decode_pool, cell.mode, t >= cell.ready_at, n.state.phase)
        n.harvest_elec = cell.conversion_efficiency * harvest_opt
        n.load_elec = load_power(self._load_name(n, t))

        # Arm the charge/depletion timer for the new power level, then handle
        # a not-full -> full transition.  Delivering FullCharge re-enters
        # _refresh with was_full already set, so the recursion terminates.
        store = n.store
        is_full = store.stored >= store.capacity * (1.0 - _FULL_REL_TOL)
        n.timer_gen += 1
        net = n.harvest_elec - n.load_elec
        flavor = None
        if net > 0.0 and not is_full:
            at, flavor = t + store.time_to_full(net), "full"
        elif net < 0.0 and store.stored > 0.0:
            at, flavor = t + store.stored / -net, "empty"
        if flavor is not None:
            # A residue far below the ulp of t rounds the instant back to t,
            # where a zero-length step changes nothing and the timer would
            # re-arm forever; one ulp later the load drains the residue.
            if at <= t:
                at = math.nextafter(t, math.inf)
            self._schedule(at, "charge_check", node_id=n.cfg.node_id,
                           gen=n.timer_gen, flavor=flavor)
        if is_full and not n.was_full:
            n.was_full = True
            n.metrics.charge_completions.append(t)
            if n.cfg.policy.protocol and n.state.phase is Phase.HARVEST:
                self._deliver(n, Stimulus.FULL_CHARGE, t)
                self._refresh(n, t)
        else:
            n.was_full = is_full

    def step_energy(self, n: _NodeRuntime, dt: float):
        """Integrate the node's current power snapshot over dt seconds.

        Bookkeeping keeps harvested - consumed identically equal to the
        change in stored energy: harvest beyond what the full store and
        the load can take is counted as spilled, and load the empty
        store cannot serve simply goes unserved.
        """
        if dt <= 0.0:
            return
        m = n.metrics
        gross = n.harvest_elec * dt
        demand = n.load_elec * dt
        delta_raw = gross - demand
        delta = n.store.deposit(delta_raw)
        if delta_raw >= 0.0:
            consumed = demand
            if n.store.stored >= n.store.capacity:
                # surplus the full store could not take
                m.spilled_j += delta_raw - delta
        else:
            # brownout: load the empty store could not serve goes unserved
            consumed = demand - (delta - delta_raw)
        m.consumed_j += consumed
        m.harvested_j += consumed + delta
        if n.decoding:
            if n.decode_in >= n.cell.sensitivity:
                m.decoded_bits += n.cell.decode_rate * dt
            else:
                m.outage_s += dt
        phase = n.state.phase.value
        m.phase_occupancy[phase] = m.phase_occupancy.get(phase, 0.0) + dt

    def _advance(self, n: _NodeRuntime, t: float):
        self.step_energy(n, t - n.last_t)
        n.last_t = t

    # -- stimulus delivery ----------------------------------------------------

    def _deliver(self, n: _NodeRuntime, stimulus: Stimulus, t: float):
        v_b = n.store.terminal_voltage()
        actions = n.state.step(stimulus, v_b)
        if stimulus is Stimulus.LIGHT_DETECTED and n.state.phase is Phase.WAKE_CHECK:
            actions += n.state.step(stimulus, v_b)
        for action in actions:
            self._apply_action(n, action, t)

    def _apply_action(self, n: _NodeRuntime, action, t: float):
        node_id = n.cfg.node_id
        if action.kind == "switch_cell_mode":
            ready = n.cell.switch_mode(action.arg, t)
            if ready > t:
                self._schedule(ready, "timer_expiry", action="cell_ready", node_id=node_id)
        elif action.kind == "start_sensing":
            sensors = action.arg
            per = n.cfg.sense_seconds_per_sensor
            for i, sensor_id in enumerate(sensors):
                self._schedule(t + (i + 1) * per, "sense_tick",
                               node_id=node_id, sensor_id=sensor_id)
            self._schedule(t + len(sensors) * per, "sense_tick",
                           node_id=node_id, sensor_id=None)
        elif action.kind == "start_command_rx":
            n.session_commands = list(n.cfg.commands)
            n.session_last_frame = len(n.session_commands) - 1
            start = max(t, n.cell.ready_at)
            if not n.session_commands:
                self._schedule(start, "timer_expiry", action="commands_complete",
                               node_id=node_id)
                return
            frame_s = FRAME_BITS / n.cell.decode_rate
            for i in range(len(n.session_commands)):
                self._schedule(start + (i + 1) * frame_s, "frame_arrival",
                               node_id=node_id, index=i)
        elif action.kind == "protocol_error":
            n.metrics.protocol_errors += 1
            self._emit(t, n.cfg.node_id, "protocol_error", n)

    # -- trace ----------------------------------------------------------------

    def _emit(self, t: float, node_id: str, event_kind: str, n: _NodeRuntime):
        sink = self.trace
        if not sink.builds_rows:
            sink.write()
            return
        m = n.metrics
        store = n.store
        sink.write(t, node_id, event_kind, n.state.phase.value, store.stored,
                   store.terminal_voltage(), m.harvested_j, m.decoded_bits)

    # -- event handlers -------------------------------------------------------

    def _strongest_decode_link(self, n: _NodeRuntime) -> _LinkRuntime | None:
        best = None
        for link in n.links:
            if link.in_decode and link.active:
                if best is None or link.power_now() > best.power_now():
                    best = link
        return best

    def _handle_tx_power_change(self, t: float, tx_id: str, turn_on: bool):
        for node_id, n in self.nodes.items():
            touched = False
            for link in n.links:
                if link.tx_id != tx_id:
                    continue
                touched = True
                link.active = turn_on
                if turn_on and link.rng is not None:
                    link.fade = sample_fading(link.params.turbulence, link.rng)
            if not touched:
                continue
            self._advance(n, t)
            was_lit = n.lit
            self._refresh(n, t)
            kind = "timer_expiry:tx_on" if turn_on else "timer_expiry:tx_off"
            if (turn_on and not was_lit and n.lit
                    and n.cfg.policy.protocol
                    and n.state.phase is Phase.SLEEP):
                self._deliver(n, Stimulus.LIGHT_DETECTED, t)
                self._refresh(n, t)
            self._emit(t, node_id, kind, n)

    def _handle_slot_boundary(self, t: float, node_id: str):
        n = self.nodes[node_id]
        self._advance(n, t)
        target = mode_at(n.schedule, t)
        ready = n.cell.switch_mode(target, t)
        if ready > t:
            self._schedule(ready, "timer_expiry", action="cell_ready", node_id=node_id)
        for link in n.links:  # fading coherence is tied to the slot length
            if link.active and link.rng is not None:
                link.fade = sample_fading(link.params.turbulence, link.rng)
        self._refresh(n, t)
        n.slot_index += 1
        self._schedule_next_slot(n, node_id)
        self._emit(t, node_id, "slot_boundary", n)

    def _handle_charge_check(self, t: float, node_id: str, gen: int, flavor: str):
        n = self.nodes[node_id]
        if gen != n.timer_gen:
            return  # stale timer from an earlier power level
        self._advance(n, t)
        self._refresh(n, t)
        self._emit(t, node_id, f"charge_check:{flavor}", n)

    def _handle_sense_tick(self, t: float, node_id: str, sensor_id: int | None):
        n = self.nodes[node_id]
        self._advance(n, t)
        if sensor_id is not None:
            value = self._sensor_value(n, sensor_id, t)
            n.state.record_sensor(sensor_id, value, t)
            self._refresh(n, t)
            self._emit(t, node_id, f"sense_tick:{sensor_id}", n)
            return
        if n.state.phase is Phase.SENSE_SAVE:
            self._deliver(n, Stimulus.SENSE_COMPLETE, t)
        self._refresh(n, t)
        self._emit(t, node_id, "sense_tick:complete", n)

    def _handle_frame_arrival(self, t: float, node_id: str, index: int):
        n = self.nodes[node_id]
        self._advance(n, t)
        ok = (n.state.phase is Phase.COMMAND_RX
              and n.decoding and n.decode_in >= n.cell.sensitivity)
        if not ok:
            link = self._strongest_decode_link(n)
            key = f"{link.tx_id}->{node_id}" if link else f"?->{node_id}"
            self.metrics.frame_errors[key] = self.metrics.frame_errors.get(key, 0) + 1
            kind = "frame_arrival:error"
        else:
            cmd = decode_command(encode_command(n.session_commands[index]))
            batch = n.state.execute_command(cmd)
            if batch and cmd.opcode in (Opcode.SEND_DATA, Opcode.RETRANSMIT):
                tx_s = len(batch) * n.cfg.record_bits / n.cfg.uplink_rate
                start = max(t, n.uplink_until)
                n.uplink_until = start + tx_s
                self._schedule(n.uplink_until, "timer_expiry",
                               action="uplink_done", node_id=node_id, batch=batch)
            kind = f"frame_arrival:{cmd.opcode.name.lower()}"
        if index == n.session_last_frame:
            done = max(t, n.uplink_until)
            self._schedule(done, "timer_expiry", action="commands_complete",
                           node_id=node_id)
        self._refresh(n, t)
        self._emit(t, node_id, kind, n)

    def _handle_timer(self, t: float, action: str, payload: dict):
        if action in ("tx_on", "tx_off"):
            self._handle_tx_power_change(t, payload["tx_id"], action == "tx_on")
            return
        node_id = payload["node_id"]
        n = self.nodes[node_id]
        self._advance(n, t)
        if action == "commands_complete":
            if n.state.phase is Phase.COMMAND_RX:
                self._deliver(n, Stimulus.COMMANDS_COMPLETE, t)
        elif action == "uplink_done":
            batch = payload["batch"]
            n.state.ack_transmission(batch)
            n.metrics.delivered_records += len(batch)
        # cell_ready needs no state change: the refresh below re-enables power
        self._refresh(n, t)
        self._emit(t, node_id, f"timer_expiry:{action}", n)

    def _handle_custom(self, t: float, node_id: str, stimulus: Stimulus):
        n = self.nodes[node_id]
        self._advance(n, t)
        self._deliver(n, stimulus, t)
        self._refresh(n, t)
        self._emit(t, node_id, f"custom:{stimulus.value}", n)

    # -- main loop ------------------------------------------------------------

    def run(self) -> "tuple[Metrics, TraceSink]":
        """Simulate to the end, close the sink and return it with the metrics."""
        duration = self.scenario.duration
        while self._heap:
            t, _seq, kind, payload = heapq.heappop(self._heap)
            if t > duration:
                break
            self.now = t
            self.metrics.events_processed += 1
            if kind == "timer_expiry":
                self._handle_timer(t, payload.pop("action"), payload)
            elif kind == "slot_boundary":
                self._handle_slot_boundary(t, payload["node_id"])
            elif kind == "charge_check":
                self._handle_charge_check(t, payload["node_id"], payload["gen"],
                                          payload["flavor"])
            elif kind == "sense_tick":
                self._handle_sense_tick(t, payload["node_id"], payload["sensor_id"])
            elif kind == "frame_arrival":
                self._handle_frame_arrival(t, payload["node_id"], payload["index"])
            elif kind == "custom":
                self._handle_custom(t, payload["node_id"], payload["stimulus"])
        self.now = duration
        for node_id, n in self.nodes.items():
            self._advance(n, duration)
            if (not n.was_full
                    and n.store.stored >= n.store.capacity * (1.0 - _FULL_REL_TOL)):
                n.was_full = True
                n.metrics.charge_completions.append(duration)
            n.metrics.stored_final_j = n.store.stored
            self._emit(duration, node_id, "end", n)
        self.metrics.end_time = duration
        self.trace.close()
        return self.metrics, self.trace


def run(scenario: Scenario, seed_override: int | None = None,
        sink: "TraceSink | None" = None) -> "tuple[Metrics, TraceSink]":
    """Validate nothing, just simulate: build a Simulation and run it."""
    return Simulation(scenario, seed_override, sink).run()


# -- trace sinks and serialization ---------------------------------------------

CSV_HEADER = ",".join(TRACE_FIELDS) + "\n"


def _csv_row(values) -> str:
    """One CSV line: floats as repr, which round-trips exactly; the rest as str."""
    return ",".join([repr(v) if isinstance(v, float) else str(v) for v in values]) + "\n"


def _jsonl_row(values) -> str:
    return json.dumps(dict(zip(TRACE_FIELDS, values)), separators=(",", ":")) + "\n"


def _row_values(record):
    """A row's values in TRACE_FIELDS order: MemorySink rows are dicts,
    FileSink chunks hold the value tuples as written."""
    return [record[k] for k in TRACE_FIELDS] if isinstance(record, dict) else record


def trace_to_csv(records) -> str:
    return CSV_HEADER + "".join([_csv_row(_row_values(r)) for r in records])


def trace_to_jsonl(records) -> str:
    return "".join([_jsonl_row(_row_values(r)) for r in records])


class TraceSink(Protocol):
    """Where the engine sends trace rows.

    write() takes one row's values in TRACE_FIELDS order; a sink whose
    builds_rows is False is called with no values, and the engine skips
    building the row.  The engine calls close() once, after the last
    row of a run that finished; len() is the number of rows produced.
    """

    builds_rows: bool

    def write(self, *values) -> None: ...

    def close(self) -> None: ...

    def __len__(self) -> int: ...


class MemorySink(list):
    """Keeps every row as a dict keyed by TRACE_FIELDS (the default)."""

    builds_rows = True

    def write(self, time, node_id, event_kind, phase, stored_j, v_b,
              harvested_j_cum, decoded_bits_cum):
        self.append({
            "time": time,
            "node_id": node_id,
            "event_kind": event_kind,
            "phase": phase,
            "stored_J": stored_j,
            "V_B": v_b,
            "harvested_J_cum": harvested_j_cum,
            "decoded_bits_cum": decoded_bits_cum,
        })

    def close(self):
        pass


class NullSink:
    """Counts rows and keeps none."""

    builds_rows = False

    def __init__(self):
        self.rows = 0

    def write(self, *values):
        self.rows += 1

    def close(self):
        pass

    def __len__(self) -> int:
        return self.rows


class FileSink:
    """Streams rows to `path` through `serialize` (trace_to_csv or
    trace_to_jsonl), `chunk_rows` rows at a time, so memory stays flat
    however long the run; the CSV header goes out once.

    Rows go to `<path>.tmp`, which close() renames to `path`.  Used as a
    context manager, an exception in the block (or in close) removes the
    temp file and leaves `path` as it was.
    """

    builds_rows = True
    chunk_rows = 4096

    def __init__(self, path, serialize):
        self._path = path
        self._tmp = os.fspath(path) + ".tmp"
        self._serialize = serialize
        self._chunk: list[tuple] = []
        self._written = 0
        self._file = open(self._tmp, "w")

    def write(self, *values):
        self._chunk.append(values)
        if len(self._chunk) >= self.chunk_rows:
            self._flush()

    def _flush(self):
        text = self._serialize(self._chunk)
        if self._written and text.startswith(CSV_HEADER):
            text = text[len(CSV_HEADER):]
        self._file.write(text)
        self._written += len(self._chunk)
        self._chunk = []

    def close(self):
        try:
            if self._chunk or not self._written:
                self._flush()
            self._file.close()
            os.replace(self._tmp, self._path)
        except BaseException:
            self._discard()
            raise

    def _discard(self):
        """Close and remove the temp file; `path` is not touched."""
        self._file.close()
        try:
            os.remove(self._tmp)
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return self._written + len(self._chunk)

    def __enter__(self) -> "FileSink":
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._file.closed:
            if exc_type is None:
                self.close()
            else:
                self._discard()
