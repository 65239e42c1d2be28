import json
import math
import random
from pathlib import Path

import pytest

import sliptsim.engine as engine
from sliptsim.channel import BeamGeometry, LinkParams, attenuate, geometric_capture
from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.engine import FRAME_BITS, Simulation, _LinkRuntime, rng_stream
from sliptsim.errors import ConfigError, DomainError
from sliptsim.harvester import CellMode
from sliptsim.node import Phase, Stimulus
from sliptsim.policy import TimeSwitchSchedule
from sliptsim.scenario import build_scenario, load_scenario
from sliptsim.trace import TRACE_FIELDS, NullSink, trace_to_csv, trace_to_jsonl

from test_golden import GOLDEN, INLINE, _attrs, _scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# pure_sea: 0.053 absorption + 0.003 scattering
_PURE_SEA_ATT = 0.056


def _beam(power, **over):
    tx = {
        "power": power,
        "wavelength": "450nm",
        "water": "pure_sea",
        "beam_waist": "1mm",
        "divergence": "0rad",
        "distance": "1m",
        "receiver_radius": "1mm",
    }
    tx.update(over)
    return tx


def _battery(capacity, stored):
    return {"type": "battery", "capacity": capacity, "stored": stored}


def test_rng_stream_is_deterministic_and_independent():
    def first(seed, purpose):
        rng = rng_stream(seed, purpose)
        assert type(rng) is random.Random
        return [rng.random() for _ in range(5)]

    a = first(42, "fading:tx0:n0")
    assert first(42, "fading:tx0:n0") == a
    assert first(42, "fading:tx0:n1") != a
    assert first(43, "fading:tx0:n0") != a
    # the seed is master_seed << 32 | crc32(purpose)
    same = random.Random(42 << 32 | 0xC097AA55)  # zlib.crc32(b"fading:tx0:n0")
    assert a == [same.random() for _ in range(5)]


def test_step_energy_units():
    # 20 mW in, 25.9 mW out, 10 s: the store loses 59 mJ
    cfg = {
        "duration": "2s",
        "seed": 1,
        "nodes": [{"id": "n0", "store": _battery("20J", "8J")}],
    }
    sim = Simulation(build_scenario(cfg))
    n = sim.nodes["n0"]
    n.store.stored = 1.0
    n.harvest_elec = 0.020
    n.load_elec = 0.0259
    n.last_t = 0.0
    sim._advance(n, 10.0)
    assert n.store.stored == pytest.approx(0.941, rel=1e-12)
    assert n.metrics.consumed_j == pytest.approx(0.259, rel=1e-12)
    # harvested = consumed + stored delta, so 0.259 - 0.059
    assert n.metrics.harvested_j == pytest.approx(0.200, rel=1e-12)
    assert n.metrics.spilled_j == 0.0


def test_simulation_requires_a_seed():
    cfg = {
        "duration": "1s",
        "nodes": [{"id": "n0", "store": _battery("1J", "0J")}],
    }
    sc = build_scenario(cfg)
    with pytest.raises(ConfigError):
        Simulation(sc)
    metrics, _ = Simulation(sc, seed_override=7).run()
    assert metrics.seed == 7


@pytest.mark.parametrize("key", ["sleep_load", "active_load", "uplink_load"])
def test_unknown_load_fails_when_the_simulation_is_built(key):
    # the loader refuses an unknown load name; a hand-built NodeDef used to
    # pass until the node first drew that load (its uplink, for uplink_load)
    sc = build_scenario({"duration": "1s", "seed": 1, "policy": {"kind": "protocol"},
                         "nodes": [{"id": "n0", "store": _battery("1J", "0.5J")}]})
    setattr(sc.nodes[0], key, "toaster")
    with pytest.raises(DomainError, match=r"^unknown load profile 'toaster' \(have: "):
        Simulation(sc)


def test_loads_are_resolved_to_watts_at_build():
    sc = build_scenario({"duration": "1s", "seed": 1, "policy": {"kind": "protocol"},
                         "nodes": [{"id": "n0", "store": _battery("1J", "0.5J"),
                                    "load": "soc_mcu_3mhz",
                                    "uplink": {"load": "wifi_bluetooth"}}]})
    n = Simulation(sc).nodes["n0"]
    assert n.loads == (0.0, 3.7 * 11e-3, 3.7 * 102e-3)


def test_full_charge_while_asleep_is_a_protocol_error():
    # no scenario schedules _handle_custom; bench/traced.py still wraps it by name
    cfg = {"duration": "2s", "seed": 1, "nodes": [{"id": "n0", "store": _battery("20J", "8J")}]}
    sim = Simulation(build_scenario(cfg))
    sim._schedule(1.0, "_handle_custom", "n0", Stimulus.FULL_CHARGE)
    metrics, trace = sim.run()
    assert metrics.nodes["n0"].protocol_errors == 1
    kinds = [r.event_kind for r in trace]
    assert "protocol_error" in kinds
    assert "custom:full_charge" in kinds
    assert all(r.phase == "sleep" for r in trace)


def _protocol_node(stored: str, **node):
    """A built one-node protocol Simulation with an empty event queue."""
    cfg = {"duration": "100s", "seed": 1,
           "nodes": [{"id": "n0", "cell": {"switch_latency": "5ms"},
                      "store": _battery("20J", stored), **node}]}
    sim = Simulation(build_scenario(cfg))
    sim._heap.clear()
    return sim, sim.nodes["n0"]


def _queued(sim):
    return [(t, handler, args) for t, _, handler, args in sorted(sim._heap)]


def test_a_charged_wake_switches_the_cell_and_times_frames_from_ready_at():
    # 15 J of 20 J reads 3.9 V, at or above the 3.6 V threshold
    sim, n = _protocol_node("15J", commands=[{"op": "sensor_on", "sensor": 3},
                                             {"op": "send_data"}])
    sim._deliver(n, Stimulus.LIGHT_DETECTED, 10.0)
    assert n.state.phase is Phase.COMMAND_RX
    assert n.cell.mode is CellMode.PHOTOCONDUCTIVE
    ready = n.cell.ready_at
    assert ready > 10.0
    frame_s = FRAME_BITS / n.cell.decode_rate
    assert _queued(sim) == [(ready, "_handle_timer", ("cell_ready", "n0")),
                            (ready + frame_s, "_handle_frame_arrival", ("n0", 0)),
                            (ready + 2 * frame_s, "_handle_frame_arrival", ("n0", 1))]

    sim, n = _protocol_node("15J")  # no commands: the session ends once the cell is ready
    sim._deliver(n, Stimulus.LIGHT_DETECTED, 10.0)
    ready = n.cell.ready_at
    assert _queued(sim) == [(ready, "_handle_timer", ("cell_ready", "n0")),
                            (ready, "_handle_timer", ("commands_complete", "n0"))]


def test_a_low_wake_schedules_sense_ticks_in_sorted_sensor_order():
    # 2 J of 20 J reads 3.12 V; the set {9, 1} iterates as 9, 1
    sim, n = _protocol_node("2J", sensors={"enabled": [9, 1], "seconds_per_sensor": "1.5s"})
    sim._deliver(n, Stimulus.LIGHT_DETECTED, 10.0)
    assert n.state.phase is Phase.SENSE_SAVE
    assert n.cell.mode is CellMode.PHOTOVOLTAIC
    assert _queued(sim) == [(11.5, "_handle_sense_tick", ("n0", 1)),
                            (13.0, "_handle_sense_tick", ("n0", 9)),
                            (13.0, "_handle_sense_tick", ("n0", None))]


def test_commands_complete_switches_the_cell_back_to_harvest():
    sim, n = _protocol_node("15J")
    sim._deliver(n, Stimulus.LIGHT_DETECTED, 10.0)
    sim._heap.clear()
    sim._deliver(n, Stimulus.COMMANDS_COMPLETE, 20.0)
    assert n.state.phase is Phase.HARVEST
    assert n.cell.mode is CellMode.PHOTOVOLTAIC
    assert _queued(sim) == [(n.cell.ready_at, "_handle_timer", ("cell_ready", "n0"))]
    assert n.cell.ready_at > 20.0


def test_an_invalid_stimulus_keeps_the_phase_and_writes_one_error_row():
    sim, n = _protocol_node("15J")
    rows = len(sim.trace)
    sim._deliver(n, Stimulus.FULL_CHARGE, 10.0)
    assert n.state.phase is Phase.SLEEP
    assert n.metrics.protocol_errors == 1
    assert [(r.time, r.event_kind, r.phase) for r in sim.trace[rows:]] == [
        (10.0, "protocol_error", "sleep")]
    assert sim._heap == []


@pytest.mark.parametrize("name", ["golden_broadcast_protocol", "protocol_demo"])
def test_only_a_wake_reads_the_store_voltage(name, monkeypatch):
    reads = []
    for cls in (Battery, Supercapacitor):
        monkeypatch.setattr(cls, "terminal_voltage",
                            lambda self, _v=cls.terminal_voltage: reads.append(1) or _v(self))
    deliveries, wakes = [], []
    deliver = Simulation._deliver

    def counting(self, n, stimulus, t):
        deliveries.append(t)
        if stimulus is Stimulus.LIGHT_DETECTED and n.state.phase is Phase.SLEEP:
            wakes.append(t)
        deliver(self, n, stimulus, t)

    monkeypatch.setattr(Simulation, "_deliver", counting)
    Simulation(_scenario(name), sink=NullSink()).run()  # a NullSink reads no voltage
    assert 0 < len(wakes) < len(deliveries)
    assert len(reads) == len(wakes)


def test_protocol_walk_end_to_end():
    """Low-voltage wake senses and saves; the charged wake takes commands,
    uplinks the saved record, harvests to full, and goes back to sleep."""
    cfg = {
        "name": "walk",
        "duration": "200s",
        "seed": 11,
        "transmitters": [
            {"id": "tx1", **_beam("0.4W"), "off": "30s"},
            {"id": "tx2", **_beam("0.4W"), "on": "40s"},
        ],
        "nodes": [{
            "id": "n0",
            "store": _battery("20J", "8J"),
            "sensors": {"enabled": [2], "values": {"2": 21.5}},
            "commands": [{"op": "sensor_on", "sensor": 3}, {"op": "send_data"}],
        }],
    }
    sim = Simulation(build_scenario(cfg))
    metrics, trace = sim.run()
    m = metrics.nodes["n0"]

    received = 0.4 * math.exp(-_PURE_SEA_ATT)
    frame_s = FRAME_BITS / 500e3

    assert m.protocol_errors == 0
    assert metrics.frame_errors == {}
    assert m.delivered_records == 1
    assert sim.nodes["n0"].state.enabled_sensors == {2, 3}
    assert sim.nodes["n0"].state.storage == []  # delivered, then cleared
    assert sim.nodes["n0"].state.last_sent[0].value == 21.5

    # decoder ran from cell-ready to commands_complete (two frames + uplink)
    assert m.decoded_bits == pytest.approx(500e3 * (2 * frame_s + 128 / 500e3), rel=1e-6)
    assert m.outage_s == 0.0

    # fills once, then spills for the rest of the run
    assert len(m.charge_completions) == 1
    assert 160.0 < m.charge_completions[0] < 175.0
    assert m.stored_final_j == 20.0
    assert m.spilled_j == pytest.approx(
        0.2 * received * (200.0 - m.charge_completions[0]), rel=1e-9)

    milestones = [
        "timer_expiry:tx_on", "sense_tick:2", "sense_tick:complete",
        "timer_expiry:tx_off", "timer_expiry:tx_on", "timer_expiry:cell_ready",
        "frame_arrival:sensor_on", "frame_arrival:send_data",
        "timer_expiry:uplink_done", "timer_expiry:commands_complete",
        "timer_expiry:cell_ready", "charge_check:full", "end",
    ]
    seen = [r.event_kind for r in trace if r.event_kind in set(milestones)]
    assert seen == milestones
    assert trace[-1].phase == "sleep"


def test_energy_closure_identity():
    for name in ("walk", "turbulent"):
        if name == "turbulent":
            sc = load_scenario(SCENARIOS / "turbulent_demo.json")
        else:
            sc = build_scenario({
                "duration": "50s",
                "seed": 3,
                "transmitters": [{"id": "tx1", **_beam("0.4W")}],
                "nodes": [{"id": "n0", "store": _battery("20J", "8J"),
                           "sensors": {"enabled": [1]}}],
            })
        metrics, _ = Simulation(sc).run()
        for node_id, m in metrics.nodes.items():
            assert m.harvested_j - m.consumed_j == pytest.approx(
                m.stored_final_j - m.stored_initial_j, rel=1e-9, abs=1e-9), node_id
            assert m.spilled_j >= 0.0


def test_weak_signal_frames_fail_and_count():
    # received power lands below the 1 uW sensitivity: every frame errors
    cfg = {
        "duration": "1s",
        "seed": 2,
        "transmitters": [{"id": "weak", **_beam("1uW")}],
        "nodes": [{
            "id": "n0",
            "store": _battery("20J", "10J"),  # exactly 3.6 V: charged path
            "commands": [{"op": "sensor_on", "sensor": 1}, {"op": "send_data"}],
        }],
    }
    metrics, trace = Simulation(build_scenario(cfg)).run()
    m = metrics.nodes["n0"]
    assert metrics.frame_errors == {"weak->n0": 2}
    assert m.decoded_bits == 0.0
    assert m.delivered_records == 0
    # decoder armed at cell-ready, starved until commands_complete
    assert m.outage_s == pytest.approx(2 * FRAME_BITS / 500e3, rel=1e-6)
    kinds = [r.event_kind for r in trace]
    assert kinds.count("frame_arrival:error") == 2


def _weak_links(*beams) -> dict:
    """One charged protocol node whose two command frames arrive under the
    given (id, beam) links, none of them strong enough to decode."""
    return {
        "duration": "1s",
        "seed": 2,
        "transmitters": [{"id": tx_id, **beam} for tx_id, beam in beams],
        "nodes": [{
            "id": "n0",
            "store": _battery("20J", "10J"),  # exactly 3.6 V: charged path
            "commands": [{"op": "sensor_on", "sensor": 1}, {"op": "send_data"}],
        }],
    }


def test_a_frame_error_goes_to_the_strongest_decode_link_first_on_a_tie():
    # 0.1 + 0.2 + 0.2 uW (less the water's loss) stays below the 1 uW
    # sensitivity; faint comes first but is weaker, and tied ties weak
    cfg = _weak_links(("faint", _beam("0.1uW")), ("weak", _beam("0.2uW")),
                      ("tied", _beam("0.2uW")))
    metrics, _ = Simulation(build_scenario(cfg)).run()
    assert metrics.frame_errors == {"weak->n0": 2}


def test_a_frame_after_its_transmitter_went_off_has_no_link():
    # the cell settles 5 ms after the light, so both frames come after tx_off
    cfg = _weak_links(("weak", _beam("1uW", on="0s", off="1ms")))
    metrics, _ = Simulation(build_scenario(cfg)).run()
    assert metrics.frame_errors == {"?->n0": 2}


def test_the_engine_refuses_a_hand_built_target_that_names_no_node():
    sc = build_scenario(_weak_links(("weak", _beam("1uW"))))
    sc.transmitters[0].targets = ["ghost"]  # the loader refuses this in a file
    with pytest.raises(ConfigError) as info:
        Simulation(sc)
    assert (info.value.path, info.value.message) == (
        "transmitters[0].targets", "unknown node 'ghost'")


@pytest.mark.parametrize("name", ["turbulent_demo", "tank_1m5"])
def test_no_run_reads_the_node_keys_its_policy_refuses(name):
    # the loader refuses v_threshold, sleep_load and uplink on a non-protocol
    # node and data_demand off spatial: setting them by hand moves no byte
    def outputs(set_unread_fields: bool):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        for nd in sc.nodes if set_unread_fields else ():
            nd.data_demand = True
            if not nd.policy.protocol:
                nd.v_threshold, nd.sleep_load = 0.0, "laser_uplink"
                nd.uplink_rate, nd.uplink_load, nd.record_bits = 1.0, "soc_mcu_3mhz", 1
        metrics, trace = Simulation(sc).run()
        return metrics.to_dict(), list(trace)

    assert outputs(True) == outputs(False)


def test_charge_completion_matches_closed_form():
    cfg = {
        "duration": "120s",
        "seed": 5,
        "policy": {"kind": "time_switch", "t1": "1s", "t2": "0s"},
        "transmitters": [{"id": "tx1", **_beam("0.5W")}],
        "nodes": [{"id": "n0", "store": _battery("10J", "0J")}],
    }
    metrics, _ = Simulation(build_scenario(cfg)).run()
    m = metrics.nodes["n0"]
    net = 0.2 * 0.5 * math.exp(-_PURE_SEA_ATT)  # no load on this node
    assert m.charge_completions == [pytest.approx(10.0 / net, rel=1e-9)]
    assert m.stored_final_j == 10.0
    assert m.spilled_j == pytest.approx((120.0 - 10.0 / net) * net, rel=1e-9)


def test_a_store_full_at_the_end_records_one_completion_there(monkeypatch):
    # 1 J short of a 2 J store at about 1 W net: end the run 5e-13 s before
    # the full timer, where the store is within _FULL_REL_TOL of full
    cfg = {
        "duration": "10s",
        "seed": 1,
        "policy": {"kind": "time_switch", "t1": "1s", "t2": "0s"},
        "transmitters": [{"id": "tx1", **_beam(f"{5 * math.exp(_PURE_SEA_ATT)!r}W")}],
        "nodes": [{"id": "n0", "store": _battery("2J", "1J")}],
    }
    metrics, _ = Simulation(build_scenario(cfg), sink=NullSink()).run()
    [full_at] = metrics.nodes["n0"].charge_completions  # the full timer's instant
    assert full_at == pytest.approx(1.0, rel=1e-9)
    sc = build_scenario(cfg)
    sc.duration = full_at - 5e-13
    records = []
    record_full = Simulation._record_full
    monkeypatch.setattr(Simulation, "_record_full",
                        lambda self, n, t: records.append(t) or record_full(self, n, t))
    metrics, trace = Simulation(sc).run()
    m = metrics.nodes["n0"]
    assert records == m.charge_completions == [sc.duration]
    assert m.stored_final_j < 2.0
    assert "charge_check:full" not in {r.event_kind for r in trace}


def test_a_stepped_sensor_series_records_the_step_in_force():
    # two low-voltage wakes, at 0 s and 60 s, each sense sensor 2 one second
    # later: before and after its step at 40 s
    cfg = {
        "duration": "100s",
        "seed": 1,
        "transmitters": [{"id": "tx1", **_beam("0.01W"), "off": "20s"},
                         {"id": "tx2", **_beam("0.01W"), "on": "60s"}],
        "nodes": [{"id": "n0", "store": _battery("20J", "2J"),
                   "sensors": {"enabled": [2], "seconds_per_sensor": "1s",
                               "values": {"2": [[0, 7.0], [40, 7.5]]}}}],
    }
    sim = Simulation(build_scenario(cfg))
    metrics, _ = sim.run()
    assert metrics.nodes["n0"].protocol_errors == 0
    assert [(r.timestamp, r.sensor_id, r.value) for r in sim.nodes["n0"].state.storage] == [
        (1.0, 2, 7.0), (61.0, 2, 7.5)]


def test_trace_schema_and_serializers():
    metrics, trace = Simulation(load_scenario(SCENARIOS / "turbulent_demo.json")).run()
    phases = {p.value for p in Phase}
    assert trace, "a run must produce trace rows"
    for row in trace:
        assert row._fields == TRACE_FIELDS
        assert row.phase in phases
        assert row.stored_J >= 0.0
    times = [r.time for r in trace]
    assert times == sorted(times)
    assert trace[-1].event_kind == "end"
    assert trace[-1].time == metrics.end_time

    csv_text = trace_to_csv(trace)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(TRACE_FIELDS)
    assert len(lines) == len(trace) + 1

    jsonl = trace_to_jsonl(trace)
    parsed = [json.loads(line) for line in jsonl.strip().split("\n")]
    assert parsed == [row._asdict() for row in trace]


def test_spatial_assignment_reported_in_metrics():
    metrics, _ = Simulation(load_scenario(SCENARIOS / "spatial_demo.json")).run()
    assert metrics.spatial_assignment == {
        "roles": {"txA": "data", "txB": "data", "txC": "energy"},
        "target": {"txA": "rx1", "txB": "rx2", "txC": "rx1"},
        "infeasible": [],
    }


def test_dual_wavelength_splits_pools():
    # 1 W energy beam + 0.5 W data beam: both streams run at once
    cfg = {
        "duration": "10s",
        "seed": 4,
        "policy": {"kind": "dual_wavelength"},
        "transmitters": [{
            "id": "tx1",
            "beam_waist": "1mm", "divergence": "0rad",
            "distance": "1m", "receiver_radius": "1mm",
            "dual": {
                "energy": {"power": "1W", "wavelength": "520nm", "water": "pure_sea"},
                "data": {"power": "0.5W", "wavelength": "450nm", "water": "pure_sea"},
            },
        }],
        "nodes": [{"id": "n0", "store": _battery("100J", "0J")}],
    }
    metrics, _ = Simulation(build_scenario(cfg)).run()
    m = metrics.nodes["n0"]
    att = math.exp(-_PURE_SEA_ATT)
    assert m.harvested_j == pytest.approx(0.2 * 1.0 * att * 10.0, rel=1e-9)
    assert m.decoded_bits == pytest.approx(500e3 * 10.0, rel=1e-9)
    assert m.outage_s == 0.0


def test_depletion_timer_lands_after_now_for_a_tiny_residue():
    # 2e-16 J against a 25.9 mW load: stored / -net is far below the ulp of
    # t = 300 s, so t + stored / -net rounds back to t itself
    cfg = {
        "duration": "10min",
        "seed": 1,
        "policy": {"kind": "time_switch", "t1": "1s", "t2": "0s"},
        "nodes": [{"id": "n0", "store": _battery("10J", "5J"), "load": "sense_and_save"}],
    }
    sim = Simulation(build_scenario(cfg))
    n = sim.nodes["n0"]
    n.store.stored = 2e-16
    sim._refresh(n, 300.0)
    assert n.harvest_elec - n.load_elec == pytest.approx(-0.0259)
    armed = [(t, args[2]) for t, _, handler, args in sim._heap
             if handler == "_handle_charge_check" and args[1] == n.timer_gen]
    assert [flavor for _, flavor in armed] == ["empty"]
    assert armed[0][0] > 300.0


@pytest.mark.parametrize("name", ["tank_1m5", "vertical_supercap", "spatial_demo",
                                  "protocol_demo"])
def test_calm_links_build_no_random_stream(monkeypatch, name):
    calls = []
    monkeypatch.setattr(engine, "rng_stream", lambda *args: calls.append(args))
    sim = Simulation(load_scenario(SCENARIOS / f"{name}.json"))
    sim.run()
    links = [link for n in sim.nodes.values() for link in n.links]
    assert links and all(link.rng is None for link in links)
    assert all(_is_plain(link) for link in links)
    assert calls == []


def _is_plain(link) -> bool:
    """A calm link: a bare _LinkRuntime with no attribute beyond those its
    constructor sets, and neither a stream nor a turbulence model."""
    return (type(link) is _LinkRuntime and link.rng is None and link.turbulence is None
            and _attrs(link).keys() == _attrs(_LinkRuntime("tx", "node", True, True, 0.0,
                                                           None, None)).keys())


def test_only_turbulent_links_get_a_stream(monkeypatch):
    calls = []
    real = engine.rng_stream
    monkeypatch.setattr(engine, "rng_stream",
                        lambda seed, purpose: calls.append(purpose) or real(seed, purpose))
    cfg = {
        "duration": "1s",
        "seed": 3,
        "transmitters": [_beam("1W", id="calm"), _beam("1W", id="wavy", turbulence=0.2)],
        "nodes": [{"id": "n0", "store": _battery("10J", "0J")}],
    }
    sim = Simulation(build_scenario(cfg))
    sim.run()
    calm, wavy = sim.nodes["n0"].links
    assert calm.rng is None and wavy.rng is not None
    assert _is_plain(calm) and wavy.turbulence.scintillation_index == 0.2
    assert calls == ["fading:wavy:n0"]


def _slotted(phase_offset: float, t1: float = 1.0, t2: float = 1.0):
    """turbulent_demo with a hand-built schedule."""
    sc = load_scenario(SCENARIOS / "turbulent_demo.json")
    policy = TimeSwitchSchedule(t1, t2, phase_offset)
    for nd in sc.nodes:
        nd.policy = policy
    return sc


@pytest.mark.parametrize("phase_offset", [-7.3, -5e-324, math.nan])
def test_a_schedule_refuses_a_negative_phase_offset(phase_offset):
    with pytest.raises(DomainError, match="phase_offset must be >= 0"):
        TimeSwitchSchedule(0.25, 0.5, phase_offset)


@pytest.mark.parametrize("phase_offset, t1, t2, now", [
    (0.0, 0.25, 0.5, 0.0),
    (0.0, 0.25, 0.5, 0.75),  # now on a boundary: the next one is taken
    (7.3, 0.25, 0.5, 12.6),
    (0.3, 0.01, 0.03, 50.0),
    (0.0, 3.0, 1e-3, 1e4),
    (123.456, 1e-3, 1e-3, 987.654),
    # t1 far below the ulp of the boundary times: boundary 6 (3 s + t1)
    # rounds onto now = 3.0, where boundary 5 lies, and the walk steps past
    # both to 4.0
    (0.0, 1e-20, 1.0, 3.0),
    (1e6, 1e-12, 1.0, 1e6 + 1.0),
])
def test_catch_up_lands_on_the_first_boundary_after_now(phase_offset, t1, t2, now):
    sim = Simulation(_slotted(phase_offset, t1, t2))
    n = next(iter(sim.nodes.values()))
    sim._heap.clear()
    n.slot_index = 0
    sim._schedule_next_slot(n, n.cfg.node_id, now)
    [(t, _, handler, args)] = sim._heap
    k = n.slot_index
    assert (handler, args) == ("_handle_slot_boundary", (n.cfg.node_id,))
    assert t == engine._boundary_time(n.schedule, k) > now
    assert engine._boundary_time(n.schedule, k - 1) <= now


def _calm_slots(t1: str, t2: str, duration: str, phase_offset: str = "0s") -> dict:
    """One time_switch node on a calm link far above its sensitivity, so it
    decodes 500 kbit/s in every decode slot."""
    return {
        "duration": duration,
        "seed": 1,
        "policy": {"kind": "time_switch", "t1": t1, "t2": t2, "phase_offset": phase_offset},
        "transmitters": [_beam("1.5W", water="clear_ocean", beam_waist="2mm",
                               divergence="1mrad", distance="1.5m",
                               receiver_radius="35mm", on="0s")],
        "nodes": [{"id": "n0", "cell": {"decode_rate": "500kbit/s", "sensitivity": "1uW",
                                        "switch_latency": "0s"},
                   "store": _battery("2J", "1.9J")}],
    }


# The slot boundary handler takes the new mode from mode_at(schedule, t), a
# float modulo, not from the boundary's index k.  At t = 0.015 s with 5 ms
# slots, 0.015 % 0.01 = 0.004999999999999999 < t1 keeps the node harvesting
# through a decode slot.
@pytest.mark.xfail(strict=True, reason="slot mode comes from a float modulo, not from k")
def test_every_decode_slot_decodes():
    metrics, _ = Simulation(build_scenario(_calm_slots("5ms", "5ms", "3s"))).run()
    # half of 3 s at 500 kbit/s; the float modulo gives 655,000 bits
    assert metrics.nodes["n0"].decoded_bits == pytest.approx(750_000, rel=1e-9)


# The period start at phase_offset (boundary index -1) is never scheduled,
# so the node decodes from 0 to 0.8 s, and at 2.3 s (2.3 - 0.3) % 1.0 =
# 0.9999999999999998 keeps it decoding through a harvest slot.
@pytest.mark.xfail(strict=True, reason="the first period start after 0 is never scheduled")
def test_an_offset_schedule_harvests_in_every_harvest_slot():
    metrics, _ = Simulation(build_scenario(_calm_slots("0.5s", "0.5s", "3s", "0.3s"))).run()
    # decode on [0, 0.3), [0.8, 1.3), [1.8, 2.3) and [2.8, 3): 1.5 s, so
    # harvest the other 1.5 s; the run decodes for 2.5 s
    assert metrics.nodes["n0"].decoded_bits == pytest.approx(1.5 * 500e3, rel=1e-9)


def _moved_beam_power(beam: LinkParams, d: float) -> float:
    """The link power as links were once built: the beam moved to the
    link's distance (a new geometry and LinkParams), then evaluated at it."""
    g = beam.geometry
    moved = LinkParams(beam.tx_power, beam.wavelength, beam.water,
                       BeamGeometry(g.initial_radius, g.half_angle_divergence,
                                    g.receiver_aperture_radius, d), beam.turbulence)
    return (attenuate(moved.tx_power, moved.water.total_attenuation, moved.geometry.distance)
            * geometric_capture(moved.geometry))


def _reference_powers(tx, node_id: str) -> list[float]:
    beams = (tx.beam, tx.dual_data) if tx.dual_data is not None else (tx.beam,)
    return [_moved_beam_power(b, tx.distances.get(node_id, b.geometry.distance))
            for b in beams]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_link_power_equals_the_beam_moved_to_its_distance(name, monkeypatch):
    link_power = {}
    assign_spatial = engine.assign_spatial

    def recording(tx_ids, node_ids, demands, powers, sensitivity):
        link_power.update(powers)
        return assign_spatial(tx_ids, node_ids, demands, powers, sensitivity)

    monkeypatch.setattr(engine, "assign_spatial", recording)
    sc = _scenario(name)
    sim = Simulation(sc)
    checked = 0
    for tx in sc.transmitters:
        for node_id, n in sim.nodes.items():
            expected = _reference_powers(tx, node_id)
            built = [link.base_power for link in n.links if link.tx_id == tx.tx_id]
            if built:
                assert built == expected, (tx.tx_id, node_id)
                checked += 1
            if link_power:  # the spatial role assignment weighs every pair
                assert link_power[(tx.tx_id, node_id)] == expected[0], (tx.tx_id, node_id)
    assert checked > 0
    if name == "golden_targeted_protocol":  # a dual pair at overridden ranges
        assert sc.transmitters[2].dual_data is not None and sc.transmitters[2].distances
    if name == "spatial_demo":  # every pair weighed, some at overridden ranges
        assert len(link_power) == 6 and sc.transmitters[0].distances


def test_building_a_simulation_constructs_no_link_params_or_geometry(monkeypatch):
    scenarios = [_scenario(name) for name in sorted(GOLDEN)]
    constructed = []
    for cls in (LinkParams, BeamGeometry):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            constructed.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    build_scenario(INLINE["golden_targeted_protocol"])
    assert constructed  # the counter sees what the loader builds
    constructed.clear()
    for sc in scenarios:
        Simulation(sc)
    assert constructed == []
