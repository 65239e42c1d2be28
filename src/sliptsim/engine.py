"""Deterministic discrete-event simulation core.

The engine owns a single event queue ordered by (time, insertion
sequence).  An entry is (time, seq, handler name, args), and the loop
calls the handler method of that name with (time, *args).  Between
events every per-node power flow is constant, so energy is integrated
in closed form when a node is next touched (lazy per-node
advancement), and charge/depletion instants are scheduled as exact
timer events instead of being polled.

A node's new power level supersedes the timer it armed before: the
timer stays queued and its handler returns at the gen check.  Once the
superseded timers are more than half the queue, one sweep takes them
out.  Each one due within the run is dispatched and counted in
events_processed as its pop would be; the ones due after the end are
never reached, so they are dropped.  The live entries are sorted again
(a sorted list is a heap), and since (time, seq) is a total order the
pop order, the trace and the metrics are those of a run with no sweep.

Each refresh sums a node's light pools (harvest, decode and total
optical power) over its lit links only, kept in link order whenever a
transmitter toggles.  A dark link would add +0.0, and s + 0.0 == s bit
for bit for every partial sum s >= 0, so the pools are the same floats
as a sum over every link.

Whatever cannot change during a run is resolved when the Simulation is
built: each link's mean power, from its transmitter's own beam over the
link's distance (a `distances` entry changes only that range), each
transmitter's links (in node order, so a toggle touches only its own
targets), each node's load watts, and the command each frame carries,
which a frame hands to the node as built (the frame codec round-trips
every command exactly).

Randomness: every random stream is derived from the master seed as

    random.Random(master_seed << 32 | crc32(purpose))

where `purpose` is a string such as "fading:tx0:node0".  Adding a node
or link therefore never perturbs the streams of existing ones, and a
fixed (scenario, seed) pair reproduces traces byte for byte.  Only links
with a non-zero scintillation index draw from a stream, so only those
get one.  Each link builds its own stream, even when two links name the
same one, and draws nothing else from it, so two such links take the
same fades and the order in which links draw moves no fade.  A fade is
one channel.sample_fading call, looked up as this module's global so
that a wrapper installed on engine.sample_fading sees every draw.
"""

import heapq
import itertools
import math
import random
import zlib
from operator import attrgetter

from sliptsim.channel import (LinkParams, TurbulenceModel, attenuate, geometric_capture,
                              sample_fading)
from sliptsim.energy_store import EnergyStore
from sliptsim.errors import ConfigError
from sliptsim.harvester import CellMode, SolarCell
from sliptsim.node import NodeState, Opcode, Stimulus, load_power
from sliptsim.node import (_COMMAND_RX, _COMMANDS_COMPLETE,  # members as globals: see node.py
                           _FULL_CHARGE, _HARVEST, _LIGHT_DETECTED, _PC, _PV,
                           _SENSE_COMPLETE, _SENSE_SAVE, _SLEEP)
from sliptsim.node import decode_command, encode_command  # noqa: F401 - bench/traced.py times them
from sliptsim.policy import TimeSwitchSchedule, TxRole, assign_spatial, mode_at
from sliptsim.policy import split  # noqa: F401 - bench/traced.py times engine.split
from sliptsim.scenario import NodeDef, Scenario, TransmitterDef
from sliptsim.trace import MemorySink, TraceSink

FRAME_BITS = 32  # 4-byte command frame
_FULL_REL_TOL = 1e-12
_node_id_of = attrgetter("node_id")
_RESTING_PHASES = (_SLEEP, _HARVEST)
_FRAME_KINDS = {op: f"frame_arrival:{op.name.lower()}" for op in Opcode}


def rng_stream(master_seed: int, purpose: str) -> random.Random:
    """Derive the deterministic random stream for a named purpose."""
    return random.Random(master_seed << 32 | zlib.crc32(purpose.encode("utf-8")))


def _mean_power(beam: LinkParams, distance: float) -> float:
    """A link's optical power at `distance` with the fade excluded:
    P_t * capture * exp(-alpha z)."""
    return attenuate(beam.tx_power, beam.water.total_attenuation,
                     distance) * geometric_capture(beam.geometry, distance)


def _is_full(store: EnergyStore) -> bool:
    return store.stored >= store.capacity * (1.0 - _FULL_REL_TOL)


def _boundary_time(sched: TimeSwitchSchedule, k: int) -> float:
    """Slot boundary k of a schedule whose t1 and t2 are both > 0."""
    period_idx, half = divmod(k, 2)
    return (sched.phase_offset + period_idx * sched.period
            + (sched.t1 if half == 0 else sched.period))


# -- Metrics ------------------------------------------------------------------


class NodeMetrics:
    __slots__ = ("harvested_j", "consumed_j", "spilled_j", "decoded_bits", "delivered_records",
                 "outage_s", "protocol_errors", "phase_occupancy", "charge_completions",
                 "stored_initial_j", "stored_final_j")

    def __init__(self, stored_initial_j: float):
        self.harvested_j, self.consumed_j, self.spilled_j = 0.0, 0.0, 0.0
        self.decoded_bits, self.delivered_records = 0.0, 0
        self.outage_s, self.protocol_errors = 0.0, 0
        self.phase_occupancy: dict[str, float] = {}
        self.charge_completions: list[float] = []
        self.stored_initial_j, self.stored_final_j = stored_initial_j, 0.0

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


class Metrics:
    def __init__(self, seed: int, scenario_hash: str):
        self.nodes: dict[str, NodeMetrics] = {}
        self.frame_errors: dict[str, int] = {}  # "tx->node" -> count
        self.events_processed, self.end_time, self.seed = 0, 0.0, seed
        self.scenario_hash = scenario_hash
        self.spatial_assignment: dict | None = None

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


class _LinkRuntime:
    __slots__ = ("tx_id", "node_id", "in_harvest", "in_decode", "active", "fade", "base_power",
                 "rng", "turbulence")

    def __init__(self, tx_id: str, node_id: str,
                 in_harvest: bool,  # contributes to the harvest pool
                 in_decode: bool,  # contributes to the decode pool
                 base_power: float,  # tx_power * capture * exp(-alpha z), fade excluded
                 # both None on a calm link, whose fade stays 1; a turbulent link
                 # owns its stream and redraws its fade from turbulence
                 rng: random.Random | None, turbulence: TurbulenceModel | None):
        self.tx_id, self.node_id = tx_id, node_id
        self.in_harvest, self.in_decode = in_harvest, in_decode
        self.active, self.fade, self.base_power = False, 1.0, base_power
        self.rng, self.turbulence = rng, turbulence


class _NodeRuntime:
    __slots__ = ("cfg", "cell", "store", "state", "metrics", "links", "lit_links", "loads",
                 "schedule", "last_t", "harvest_elec", "load_elec", "decode_in",
                 "decoding", "lit", "was_full", "timer_gen", "timer_queued", "uplink_until",
                 "slot_index")

    def __init__(self, cfg: NodeDef, cell: SolarCell, store: EnergyStore, state: NodeState,
                 metrics: NodeMetrics,
                 loads: tuple[float, float, float],  # (sleep, active, uplink) W
                 schedule: TimeSwitchSchedule | None):
        self.cfg, self.cell, self.store = cfg, cell, store
        self.state, self.metrics = state, metrics
        self.links: list[_LinkRuntime] = []
        self.lit_links: list[_LinkRuntime] = []  # the active links, in links order
        self.loads, self.schedule = loads, schedule
        # piecewise-constant snapshot, valid since last_t
        self.last_t = 0.0
        self.harvest_elec = 0.0  # W into the store
        self.load_elec = 0.0  # W out of the store
        self.decode_in = 0.0  # optical W at the decoder
        self.decoding, self.lit, self.was_full = False, False, False
        self.timer_gen = 0
        self.timer_queued = False  # the timer of gen timer_gen is in the heap
        # command session bookkeeping (frame i carries cfg.commands[i]): the uplink's end
        self.uplink_until = 0.0
        self.slot_index = 0  # slot grid: the index k of the next boundary (_boundary_time)


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
        self._heap: list = []
        self._superseded = 0  # charge timers in _heap that a later gen superseded
        self._seq = itertools.count()
        self.trace: TraceSink = MemorySink() if sink is None else sink
        self.metrics = Metrics(seed=self.seed, scenario_hash=scenario.scenario_hash)
        self.nodes: dict[str, _NodeRuntime] = {}
        self._build_nodes()
        self._build_links()
        # each transmitter's links in node order; a dual transmitter's two
        # links to a node sit next to each other
        self._tx_links: dict[str, list[_LinkRuntime]] = {
            tx.tx_id: [] for tx in scenario.transmitters}
        for n in self.nodes.values():
            for link in n.links:
                self._tx_links[link.tx_id].append(link)
        self._prime_events()

    # -- construction --------------------------------------------------------

    def _build_nodes(self):
        # each run gets its own cell and store, so a run leaves the scenario's as built
        for nd in self.scenario.nodes:
            n = _NodeRuntime(
                cfg=nd,
                cell=nd.cell.copy(),
                store=nd.store.copy(),
                state=NodeState(v_threshold=nd.v_threshold,
                                enabled_sensors=set(nd.enabled_sensors)),
                metrics=NodeMetrics(stored_initial_j=nd.store.stored),
                loads=(load_power(nd.sleep_load), load_power(nd.active_load),
                       load_power(nd.uplink_load)),
                schedule=nd.policy.schedule,
            )
            self.metrics.nodes[nd.node_id] = n.metrics
            self.nodes[nd.node_id] = n

    def _link_for(self, tx: TransmitterDef, node_id: str, beam: LinkParams,
                  tag: str, in_harvest: bool, in_decode: bool) -> _LinkRuntime:
        turbulence, rng = beam.turbulence, None
        if turbulence.scintillation_index > 0.0:
            # streams are keyed by name, so skipping calm links moves no draw
            rng = rng_stream(self.seed, turbulence.rng_stream_id or f"fading:{tag}:{node_id}")
        else:
            turbulence = None
        return _LinkRuntime(tx.tx_id, node_id, in_harvest, in_decode,
                            _mean_power(beam, tx.distances.get(node_id, beam.geometry.distance)),
                            rng, turbulence)

    def _build_links(self):
        if any(nd.policy.spatial for nd in self.scenario.nodes):
            self._build_spatial_links()
            return
        for i, tx in enumerate(self.scenario.transmitters):
            targets = tx.targets if tx.targets is not None else list(self.nodes)
            for node_id in targets:
                if node_id not in self.nodes:
                    raise ConfigError(f"transmitters[{i}].targets",  # the loader's path
                                      f"unknown node {node_id!r}")
                n = self.nodes[node_id]
                if tx.dual_data is not None:
                    n.links.append(self._link_for(
                        tx, node_id, tx.beam, f"{tx.tx_id}:energy", True, False))
                    n.links.append(self._link_for(
                        tx, node_id, tx.dual_data, f"{tx.tx_id}:data", False, True))
                else:
                    n.links.append(self._link_for(tx, node_id, tx.beam, tx.tx_id, True, True))

    def _build_spatial_links(self):
        """Compute the Energy/Data role assignment, then wire one link per
        transmitter to the receiver its beam is pointed at."""
        tx_ids = [tx.tx_id for tx in self.scenario.transmitters]
        node_ids = list(self.nodes)
        link_power = {(tx.tx_id, node_id): _mean_power(
                          tx.beam, tx.distances.get(node_id, tx.beam.geometry.distance))
                      for tx in self.scenario.transmitters for node_id in node_ids}
        demands = {nid: self.nodes[nid].cfg.data_demand for nid in node_ids}
        sensitivity = {nid: self.nodes[nid].cell.sensitivity for nid in node_ids}
        assignment = assign_spatial(tx_ids, node_ids, demands, link_power, sensitivity)
        tx_by_id = {tx.tx_id: tx for tx in self.scenario.transmitters}
        for tx_id, rx_id in assignment.target.items():
            is_data = assignment.roles[tx_id] is TxRole.DATA
            tx = tx_by_id[tx_id]
            self.nodes[rx_id].links.append(self._link_for(
                tx, rx_id, tx.beam, tx_id, in_harvest=True, in_decode=is_data))
        self.metrics.spatial_assignment = {
            "roles": {t: r.value for t, r in sorted(assignment.roles.items())},
            "target": dict(sorted(assignment.target.items())),
            "infeasible": list(assignment.infeasible),
        }

    def _prime_events(self):
        for tx in self.scenario.transmitters:
            self._schedule(tx.on_time, "_handle_timer", "tx_on", tx.tx_id)
            if tx.off_time is not None:
                self._schedule(tx.off_time, "_handle_timer", "tx_off", tx.tx_id)
        for node_id, n in self.nodes.items():
            if n.schedule is not None:
                n.cell.mode = mode_at(n.schedule, 0.0)
                if n.schedule.t1 != 0 and n.schedule.t2 != 0:  # else one mode forever
                    self._schedule_next_slot(n, node_id, 0.0)
            self._refresh(n, 0.0)

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, t: float, handler: str, *args):
        # the handler's name, not a bound method: the heap keeps no
        # reference to the simulation, so it forms no reference cycle
        heapq.heappush(self._heap, (t, next(self._seq), handler, args))

    def _sweep(self):
        """Take the superseded charge timers out of the heap: see the module docstring."""
        duration = self.scenario.duration
        live = []
        for entry in self._heap:
            t, _seq, handler, args = entry
            if handler != "_handle_charge_check" or args[1] == self.nodes[args[0]].timer_gen:
                live.append(entry)
            elif not t > duration:  # the loop's own test: it pops all these
                self.metrics.events_processed += 1
                self._handle_charge_check(t, *args)
        live.sort()  # not heapq.heapify: tests stand in a heapq of push and pop only
        self._heap[:] = live
        self._superseded = 0

    def _schedule_next_slot(self, n: _NodeRuntime, node_id: str, now: float):
        sched = n.schedule
        # Boundary k covers: even k -> start of decode slot, odd k -> start of
        # a new period (harvest slot).  Times are recomputed from k each time
        # so the slot grid never accumulates floating-point drift, and the
        # walk steps over every boundary at or before `now`, the time of the
        # event scheduling this one.
        k = n.slot_index
        t = _boundary_time(sched, k)
        while t <= now:
            k += 1
            t = _boundary_time(sched, k)
        n.slot_index = k
        self._schedule(t, "_handle_slot_boundary", node_id)

    # -- power bookkeeping ----------------------------------------------------

    def _sensor_value(self, n: _NodeRuntime, sensor_id: int, t: float) -> float:
        value = 0.0
        for t_k, v_k in n.cfg.sensor_values.get(sensor_id, ()):  # last step at or before t
            if t_k <= t:
                value = v_k
            else:
                break
        return value

    def _load(self, n: _NodeRuntime, t: float) -> float:
        """Watts draining the store: a protocol node draws sleep_load in Sleep
        and Harvest, uplink_load while it uplinks, and active_load in the
        other awake phases (SenseSave, CommandRx)."""
        sleep_w, active_w, uplink_w = n.loads
        if not n.cfg.policy.protocol:
            return active_w  # policy nodes draw one constant load
        phase = n.state.phase
        if phase in _RESTING_PHASES:
            return sleep_w
        if t < n.uplink_until and phase is _COMMAND_RX:
            return uplink_w
        return active_w

    def _refresh(self, n: _NodeRuntime, t: float):
        """Recompute the piecewise-constant power snapshot at time t and
        (re)arm the node's charge / depletion timer."""
        harvest_pool = 0.0
        decode_pool = 0.0
        total = 0.0
        for link in n.lit_links:  # a dark link adds +0.0: see the module docstring
            p = link.base_power * link.fade
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
        n.load_elec = self._load(n, t)

        # Arm the charge/depletion timer for the new power level, then handle
        # a not-full -> full transition.  Delivering FullCharge re-enters
        # _refresh with was_full already set, so the recursion terminates.
        store = n.store
        is_full = _is_full(store)
        n.timer_gen += 1
        if n.timer_queued:
            self._superseded += 1
            if 2 * self._superseded > len(self._heap):
                self._sweep()
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
            self._schedule(at, "_handle_charge_check", n.cfg.node_id, n.timer_gen, flavor)
        n.timer_queued = flavor is not None
        if is_full and not n.was_full:
            self._record_full(n, t)
            if n.cfg.policy.protocol and n.state.phase is _HARVEST:
                self._deliver(n, _FULL_CHARGE, t)
                self._refresh(n, t)
        else:
            n.was_full = is_full

    def _record_full(self, n: _NodeRuntime, t: float):
        """The one record of a not-full -> full transition at t."""
        n.was_full = True
        n.metrics.charge_completions.append(t)

    def _advance(self, n: _NodeRuntime, t: float):
        """Integrate the node's current power snapshot from n.last_t to t.

        Bookkeeping keeps harvested - consumed identically equal to the
        change in stored energy: harvest beyond what the full store and
        the load can take is counted as spilled, and load the empty
        store cannot serve simply goes unserved.
        """
        dt = t - n.last_t
        n.last_t = t
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
        phase = n.state.phase._value_  # skips Enum.value's Python-level descriptor
        m.phase_occupancy[phase] = m.phase_occupancy.get(phase, 0.0) + dt

    # -- stimulus delivery ----------------------------------------------------

    def _deliver(self, n: _NodeRuntime, stimulus: Stimulus, t: float):
        """Step the node's protocol, then start what the entered phase does;
        a stimulus the phase has no transition for is a protocol error."""
        node_id = n.cfg.node_id
        if not n.state.step(stimulus, n.store):
            n.metrics.protocol_errors += 1
            self._emit(t, node_id, "protocol_error", n)
            return
        phase = n.state.phase
        if phase is _SENSE_SAVE:
            sensors = sorted(n.state.enabled_sensors)
            per = n.cfg.sense_seconds_per_sensor
            for i, sensor_id in enumerate(sensors):
                self._schedule(t + (i + 1) * per, "_handle_sense_tick", node_id, sensor_id)
            self._schedule(t + len(sensors) * per, "_handle_sense_tick", node_id, None)
        elif phase is _COMMAND_RX:
            self._switch_cell(n, _PC, t)
            start = max(t, n.cell.ready_at)
            if not n.cfg.commands:
                self._schedule(start, "_handle_timer", "commands_complete", node_id)
            frame_s = FRAME_BITS / n.cell.decode_rate
            for i in range(len(n.cfg.commands)):
                self._schedule(start + (i + 1) * frame_s, "_handle_frame_arrival", node_id, i)
        elif phase is _HARVEST:
            self._switch_cell(n, _PV, t)

    def _switch_cell(self, n: _NodeRuntime, target: CellMode, t: float):
        """Switch the cell; while its relay settles, arm cell_ready."""
        ready = n.cell.switch_mode(target, t)
        if ready > t:
            self._schedule(ready, "_handle_timer", "cell_ready", n.cfg.node_id)

    # -- trace ----------------------------------------------------------------

    def _emit(self, t: float, node_id: str, event_kind: str, n: _NodeRuntime):
        sink = self.trace
        if not sink.builds_rows:
            sink.write()
            return
        m = n.metrics
        store = n.store
        sink.write(t, node_id, event_kind, n.state.phase._value_, store.stored,
                   store.terminal_voltage(), m.harvested_j, m.decoded_bits)

    # -- event handlers -------------------------------------------------------

    def _strongest_decode_link(self, n: _NodeRuntime) -> _LinkRuntime | None:
        """The lit decode link with the most power, the first in link order on a tie."""
        best, most = None, -1.0  # every power is >= 0: the first decode link is taken
        for link in n.lit_links:
            p = link.base_power * link.fade
            if link.in_decode and p > most:
                best, most = link, p
        return best

    def _handle_tx_power_change(self, t: float, tx_id: str, turn_on: bool):
        links = self._tx_links[tx_id]
        for link in links:  # each link owns its stream: the draw order moves no fade
            link.active = turn_on
            if turn_on and link.rng is not None:
                link.fade = sample_fading(link.turbulence, link.rng)
        kind = "timer_expiry:tx_on" if turn_on else "timer_expiry:tx_off"
        # one group per node: a dual transmitter's two links to it sit together
        for node_id, group in itertools.groupby(links, _node_id_of):
            n = self.nodes[node_id]
            if not turn_on:
                n.lit_links = [lit for lit in n.lit_links if lit.active]
            elif n.lit_links:
                n.lit_links = [lit for lit in n.links if lit.active]
            else:
                n.lit_links = list(group)  # the node's only lit links, in order
            self._advance(n, t)
            was_lit = n.lit
            self._refresh(n, t)
            if (turn_on and not was_lit and n.lit
                    and n.cfg.policy.protocol
                    and n.state.phase is _SLEEP):
                self._deliver(n, _LIGHT_DETECTED, t)
                self._refresh(n, t)
            self._emit(t, node_id, kind, n)

    def _handle_slot_boundary(self, t: float, node_id: str):
        n = self.nodes[node_id]
        self._advance(n, t)
        self._switch_cell(n, mode_at(n.schedule, t), t)
        for link in n.lit_links:  # fading coherence is tied to the slot length
            if link.rng is not None:
                link.fade = sample_fading(link.turbulence, link.rng)
        self._refresh(n, t)
        n.slot_index += 1
        self._schedule_next_slot(n, node_id, t)
        self._emit(t, node_id, "slot_boundary", n)

    def _handle_charge_check(self, t: float, node_id: str, gen: int, flavor: str):
        n = self.nodes[node_id]
        if gen != n.timer_gen:
            self._superseded -= 1
            return  # stale timer from an earlier power level
        n.timer_queued = False
        self._advance(n, t)
        self._refresh(n, t)
        self._emit(t, node_id, f"charge_check:{flavor}", n)

    def _handle_sense_tick(self, t: float, node_id: str, sensor_id: int | None):
        n = self.nodes[node_id]
        self._advance(n, t)
        if sensor_id is not None:
            value = self._sensor_value(n, sensor_id, t)
            n.state.record_sensor(sensor_id, value, t)
            kind = f"sense_tick:{sensor_id}"
        else:
            if n.state.phase is _SENSE_SAVE:
                self._deliver(n, _SENSE_COMPLETE, t)
            kind = "sense_tick:complete"
        self._refresh(n, t)
        self._emit(t, node_id, kind, n)

    def _handle_frame_arrival(self, t: float, node_id: str, index: int):
        n = self.nodes[node_id]
        self._advance(n, t)
        ok = (n.state.phase is _COMMAND_RX
              and n.decoding and n.decode_in >= n.cell.sensitivity)
        if not ok:
            link = self._strongest_decode_link(n)
            key = f"{link.tx_id}->{node_id}" if link else f"?->{node_id}"
            self.metrics.frame_errors[key] = self.metrics.frame_errors.get(key, 0) + 1
            kind = "frame_arrival:error"
        else:
            cmd = n.cfg.commands[index]
            batch = n.state.execute_command(cmd)
            if batch:  # only send_data and retransmit hand over records
                tx_s = len(batch) * n.cfg.record_bits / n.cfg.uplink_rate
                start = max(t, n.uplink_until)
                n.uplink_until = start + tx_s
                self._schedule(n.uplink_until, "_handle_timer", "uplink_done", node_id, batch)
            kind = _FRAME_KINDS[cmd.opcode]
        if index == len(n.cfg.commands) - 1:
            done = max(t, n.uplink_until)
            self._schedule(done, "_handle_timer", "commands_complete", node_id)
        self._refresh(n, t)
        self._emit(t, node_id, kind, n)

    def _handle_timer(self, t: float, action: str, target_id: str, batch=()):
        """A timed action: tx_on/tx_off name a transmitter; cell_ready,
        commands_complete and uplink_done (with its batch) name a node."""
        if action in ("tx_on", "tx_off"):
            self._handle_tx_power_change(t, target_id, action == "tx_on")
            return
        n = self.nodes[target_id]
        self._advance(n, t)
        if action == "commands_complete":
            if n.state.phase is _COMMAND_RX:
                self._deliver(n, _COMMANDS_COMPLETE, t)
        elif action == "uplink_done":
            n.state.ack_transmission(batch)
            n.metrics.delivered_records += len(batch)
        # cell_ready needs no state change: the refresh below re-enables power
        self._refresh(n, t)
        self._emit(t, target_id, f"timer_expiry:{action}", n)

    # no scenario schedules it; kept because bench/traced.py wraps it by name
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
            t, _seq, handler, args = heapq.heappop(self._heap)
            if t > duration:
                break
            self.metrics.events_processed += 1
            getattr(self, handler)(t, *args)
        for node_id, n in self.nodes.items():
            self._advance(n, duration)
            if not n.was_full and _is_full(n.store):
                self._record_full(n, duration)
            n.metrics.stored_final_j = n.store.stored
            self._emit(duration, node_id, "end", n)
        for i, n in enumerate(self.nodes.values()):  # in the scenario's node order
            for key in ("harvested_J", "consumed_J", "spilled_J", "decoded_bits", "outage_s"):
                total = getattr(n.metrics, key.lower())  # the metrics.json key's attribute
                if not math.isfinite(total):
                    raise ConfigError(f"nodes[{i}]", f"{key} is {total}: the scenario's power "
                                      "or rates overflow the float range over its duration")
        self.metrics.end_time = duration
        self.trace.close()
        return self.metrics, self.trace
