"""Golden digests: same-seed runs must reproduce these bytes exactly.

The digests are SHA-256 of trace.csv and metrics.json as the CLI writes
them.  They were computed once and are only ever changed by a change
that says why its traces differ; a refactor that reorders a float sum
shows up here.  Two inline configs cover the power_split and
dual_wavelength policies, which no bundled scenario runs; a third has
several broadcast transmitters take turns over a protocol fleet, so
links toggle and fades are redrawn on many nodes; a fourth redraws the
fades of three turbulent links every 5 ms slot for 30 s, thousands of
draws per link, two of the links naming the same random stream; a fifth
aims transmitters at subsets of a protocol fleet, one listing its targets
out of node order and one a dual-wavelength pair, with windows that
overlap, so frames are decoded and records uplinked under both.  Every
file in scenarios/ is pinned too.  Each case is checked twice:
serialized from the in-memory trace, and as `sliptsim run` streams it
to its output directory.
"""

import hashlib
import heapq
import json
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import sliptsim.engine as engine
from sliptsim.cli import main
from sliptsim.engine import Simulation
from sliptsim.scenario import build_scenario, load_scenario, read_config, scenario_hash
from sliptsim.trace import trace_to_csv, trace_to_jsonl

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_BEAM = {
    "wavelength": "450nm", "water": "pure_sea", "beam_waist": "1mm",
    "divergence": "0rad", "distance": "1m", "receiver_radius": "1mm",
}

POWER_SPLIT_CFG = {
    "name": "golden_power_split",
    "duration": "60s",
    "seed": 11,
    "policy": {"kind": "power_split", "alpha": 0.7},
    "transmitters": [
        {"id": "tx0", "power": "1W", **_BEAM, "turbulence": {"sigma2": 0.3},
         "on": "0s", "off": "20s"},
        {"id": "tx1", "power": "0.3W", **_BEAM, "turbulence": 0.1,
         "on": "5s", "off": "40s", "targets": ["n0"]},
    ],
    "nodes": [
        {"id": "n0", "cell": {"sensitivity": "50mW"},
         "store": {"type": "battery", "capacity": "2J", "stored": "1J"},
         "load": "sense_and_save"},
        {"id": "n1", "store": {"type": "supercapacitor", "capacitance": "0.1F",
                               "rated_voltage": "5V", "stored": "0.5J"},
         "load": "sense_and_save"},
    ],
}

DUAL_WAVELENGTH_CFG = {
    "name": "golden_dual_wavelength",
    "duration": "40s",
    "seed": 12,
    "policy": {"kind": "dual_wavelength"},
    "transmitters": [{
        "id": "tx0",
        "beam_waist": "1mm", "divergence": "0rad",
        "distance": "1m", "receiver_radius": "1mm",
        "turbulence": {"sigma2": 0.2},
        "on": "2s", "off": "25s",
        "dual": {
            "energy": {"power": "1W", "wavelength": "520nm", "water": "pure_sea"},
            "data": {"power": "0.2W", "wavelength": "450nm", "water": "pure_sea",
                     "turbulence": {"sigma2": 0.5}},
        },
    }],
    "nodes": [{
        "id": "n0",
        "cell": {"sensitivity": "30mW"},
        "store": {"type": "battery", "capacity": "3J", "stored": "0.2J"},
        "load": "sense_and_save",
    }],
}

_SLOT_BEAM = {
    "wavelength": "450nm", "water": "clear_ocean", "beam_waist": "2mm",
    "divergence": "1mrad", "distance": "1.5m", "receiver_radius": "35mm",
}

_NODE_IDS = [f"b{i}" for i in range(6)]


def _broadcast_tx(tx_id: str, power: str, on: str, off: str, spread: float, **extra) -> dict:
    return {"id": tx_id, "power": power, **_BEAM, "water": "clear_ocean",
            "divergence": "20deg", "receiver_radius": "35mm", "on": on, "off": off,
            "distances": {nid: f"{0.25 + spread * i:.3f}m"
                          for i, nid in enumerate(_NODE_IDS)},
            **extra}


# Broadcast transmitters taking turns over a protocol fleet (tx0 and tx1
# overlap for 2 s); tx1 draws a fade at its tx_on.  Initial charges sit on
# both sides of the 3.6 V wake threshold (0.5 J of 1 J).
BROADCAST_PROTOCOL_CFG = {
    "name": "golden_broadcast_protocol",
    "duration": "70s",
    "seed": 13,
    "policy": {"kind": "protocol"},
    "transmitters": [
        _broadcast_tx("tx0", "0.3W", "2s", "12s", 0.01),
        _broadcast_tx("tx1", "0.25W", "10s", "25s", 0.02, turbulence={"sigma2": 0.3}),
        _broadcast_tx("tx2", "0.35W", "35s", "55s", -0.005),
    ],
    "nodes": [{
        "id": nid,
        "cell": {"efficiency": 0.2, "switch_latency": "5ms"},
        "store": {"type": "battery", "capacity": "1J", "stored": stored},
        "sensors": {"enabled": [1], "values": {"1": 20.0}, "seconds_per_sensor": "2s"},
        "commands": [{"op": "sensor_on", "sensor": 2}, {"op": "send_data"},
                     {"op": "retransmit"}],
    } for nid, stored in zip(_NODE_IDS, ["0.35J", "0.45J", "0.49J",
                                         "0.52J", "0.6J", "0.7J"])],
}

# Time switching in 5 ms slots under three turbulent transmitters: every
# slot boundary redraws each lit link's fade, so each link takes 5500-6000
# fades.  tx0 and tx2 name the same stream, so each draws the same sequence
# from its own generator.  The store sits near full: it tops up in most
# periods (charge_check:full) and leaves superseded depletion timers.
FAST_SLOTS_CFG = {
    "name": "golden_fast_slots",
    "duration": "30s",
    "seed": 14,
    "policy": {"kind": "time_switch", "t1": "5ms", "t2": "5ms"},
    "transmitters": [
        {"id": "tx0", "power": "1W", **_SLOT_BEAM,
         "turbulence": {"sigma2": 0.25, "stream": "fading:shared"}, "on": "0s"},
        {"id": "tx1", "power": "0.6W", **_SLOT_BEAM, "turbulence": {"sigma2": 1.0},
         "on": "0.5s", "off": "28s"},
        {"id": "tx2", "power": "0.3W", **_SLOT_BEAM,
         "turbulence": {"sigma2": 0.25, "stream": "fading:shared"}, "on": "2s"},
    ],
    "nodes": [{
        "id": "buoy",
        "cell": {"sensitivity": "1uW", "switch_latency": "1ms"},
        "store": {"type": "battery", "capacity": "2J", "stored": "1.9J"},
        "load": "sense_and_save",
    }],
}

_TARGETED_IDS = ["n0", "n1", "n2", "n3"]


def _targeted_tx(tx_id: str, on: str, off: str, **extra) -> dict:
    aimed = extra.get("targets", _TARGETED_IDS)
    return {"id": tx_id, **_BEAM, "water": "clear_ocean", "divergence": "20deg",
            "receiver_radius": "35mm", "on": on, "off": off,
            "distances": {nid: f"{0.3 + 0.01 * i:.2f}m"
                          for i, nid in enumerate(_TARGETED_IDS) if nid in aimed},
            **extra}


_DUAL_TX = _targeted_tx("tx2", "25s", "50s", targets=["n3", "n1"], turbulence={"sigma2": 0.2})
del _DUAL_TX["wavelength"], _DUAL_TX["water"]
_DUAL_TX["dual"] = {
    "energy": {"power": "0.4W", "wavelength": "520nm", "water": "clear_ocean"},
    "data": {"power": "0.1W", "wavelength": "450nm", "water": "clear_ocean",
             "turbulence": {"sigma2": 0.5}},
}

# Transmitters aimed at subsets of a protocol fleet: tx1 lists its targets
# out of node order and comes on before tx0, so n0 and n2 have two lit
# links, the later one lit first; the dual tx2 wakes n3 at 25 s, which
# decodes its frames through the data beam and uplinks a record; tx3
# wakes n0 again at 40 s.
TARGETED_PROTOCOL_CFG = {
    "name": "golden_targeted_protocol",
    "duration": "60s",
    "seed": 15,
    "policy": {"kind": "protocol"},
    "transmitters": [
        _targeted_tx("tx0", "8s", "20s", power="0.45W"),
        _targeted_tx("tx1", "2s", "30s", power="0.25W", targets=["n2", "n0"],
                     turbulence={"sigma2": 0.3}),
        _DUAL_TX,
        _targeted_tx("tx3", "40s", "55s", power="0.3W", targets=["n1", "n0", "n3"]),
    ],
    "nodes": [{
        "id": nid,
        "cell": {"efficiency": 0.2, "switch_latency": "5ms"},
        "store": {"type": "battery", "capacity": "1J", "stored": stored},
        "sensors": {"enabled": [1], "values": {"1": 20.0, "2": [[0, 1.0], [30, 2.0]]},
                    "seconds_per_sensor": "2s"},
        "commands": [{"op": "sensor_on", "sensor": 2}, {"op": "send_data"}],
    } for nid, stored in zip(_TARGETED_IDS, ["0.45J", "0.52J", "0.6J", "0.49J"])],
}

GOLDEN = {
    "golden_broadcast_protocol": (
        "43b9474f51eb22a8fdf1c596f980ad4d3095570f57a5755f2b18940392f7defd",
        "ccf96cfceee6bdf839c062cc3be8c0c3b556ee5e0c873c1f19edea33b8cc0316",
    ),
    "golden_dual_wavelength": (
        "1f70c44232a8a38918ddaa76cfa75dba9d027705938295f5a6b241f446b5f840",
        "9a030fdd31d687c828ed4faeb91585d89ec47a07773151cadc8b07fe7ada9baa",
    ),
    "golden_fast_slots": (
        "d3007d5921fae40786d31965bbf5453afa3c879a7ffbb63043f344a0327ef7eb",
        "2da1c78998fca9f55d4053da0f85953c5d479546a60f6c8333a07810e5a549a9",
    ),
    "golden_power_split": (
        "74daa5f88b2249633217a9e373f91518f4c5cc5ca741d6c9e4e15ee1764d13ef",
        "c41aeaa39af837de0e7b341bfc937df507afa633bba66a89d99ae45d794dc9c5",
    ),
    "golden_targeted_protocol": (
        "85d1b2327a6e57e55ed4e99d12cd17b782f3049a13202514710db430b903b842",
        "a2928b874e7b09b4ec76f6e76e610e52179a9c05c9fab91ba7263b55d2a6b614",
    ),
    "protocol_demo": (
        "56fa9b29889fb2efab33d3a71d7e525f56f6700d2f36197972c036d44de9d61f",
        "26e4c2d893e4254ceffb7ecaaf9e39a9a4af3a55f45b4df1f270da9d50828092",
    ),
    "spatial_demo": (
        "edb90ab80d3da0b4ec0206852ad992757bf385e2248e2143ce48df37fa68b345",
        "84dacd1e9867552f8573d95d8b5d9c0d73848d782a22549c58220edba5b4364f",
    ),
    "tank_1m5": (
        "df1ce5b28078fca94f872d77f86d930ad4c63cf3d90deaedba62dd2f64e31739",
        "260dd16c02ebdb31f5703b136d66844903f967b66b1a3747b72fd55109d4e211",
    ),
    "turbulent_demo": (
        "a27b155d1cc4f90907adfdb5b8b2a7e14aff95ec6ada5f49a5b9e047f8fb40c5",
        "a828141181b578b4dd29fcb44228cbcb6646ee0d916903d58a15776132e0c5b2",
    ),
    "vertical_supercap": (
        "7d57a17b23a68800797b285eae4eb18fe9fd1114e1c6f9d3e72309452af413da",
        "8b5940767f85fff47bb8561d3ed9d4fc6c12ce4e03d266f98be3aa58c284a321",
    ),
}


# The six cases with a turbulent link, as they ran while every stream was
# numpy's default_rng(SeedSequence(seed, spawn_key=(crc32(name),))) and every
# fade one Generator.lognormal(mu, sigma) draw.  Only the stream and the
# draw changed when fades moved to random.Random, which
# test_the_numpy_stream_gives_the_numpy_era_digests shows by putting both back.
NUMPY_ERA_GOLDEN = {
    "golden_broadcast_protocol": (
        "5e9faf5575b2210112e45cf6741ff4152437a3a7c8f05d3ad13d9766a31f5a58",
        "cef3641f822175e739880b2b20c2d408c86791afaec845f5b36f1e3354b31fd6",
    ),
    "golden_dual_wavelength": (
        "cba4614e84c7a2ab4b3780dc19b2a6e43fffb80817d0d93b919f3cb80322fe69",
        "da734d3f234a5b816a834017926152bdfc93ebcde207ce1326e97625fadc4dbc",
    ),
    "golden_fast_slots": (
        "3943d388c8a30d0c441d6f09ec175fe987989b0e0f3f6a56191651bf05c96951",
        "e0d24acd4969a796f7c90c7ba0af9beca4c7a283683acdf672694e6f804fc444",
    ),
    "golden_power_split": (
        "e97c572f3632df5bfa8a7b1cd850277d54d28c0d8428966d0d0f6d02795d0873",
        "43500a9a84a17f787a54008a21a7b6cd1226989bb08b65c02ce0e163a536e1a9",
    ),
    "golden_targeted_protocol": (
        "9fab6ec4cf6eb870a191f5607d994e1a92e41ed3a444c638dc0bd891bda7e4d4",
        "946dfce1d35ebfd7862e06519f91d1fbae5f2d52e61bbd172d45f13815df6f22",
    ),
    "turbulent_demo": (
        "75c982954e95f7ef43f9dfbe489ca6ae59dd16f61c7b11c3a7036a440749818c",
        "08f9b83c7c48410bd2a8895d9612c05bfa10e72461081074632abf40f80eae0f",
    ),
}

INLINE = {cfg["name"]: cfg
          for cfg in (POWER_SPLIT_CFG, DUAL_WAVELENGTH_CFG, BROADCAST_PROTOCOL_CFG,
                      FAST_SLOTS_CFG, TARGETED_PROTOCOL_CFG)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenario_path(name: str, tmp_path: Path) -> Path:
    if name not in INLINE:
        return SCENARIOS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INLINE[name]))
    return path


def _scenario(name: str):
    if name in INLINE:
        return build_scenario(INLINE[name])
    return load_scenario(SCENARIOS / f"{name}.json")


def _attrs(obj) -> dict:
    """Every attribute an instance holds, by name: the __slots__ of its
    class and its bases that are set, then its __dict__, if it has one."""
    names = [name for cls in type(obj).__mro__ for name in cls.__dict__.get("__slots__", ())]
    held = {name: getattr(obj, name) for name in names if hasattr(obj, name)}
    return {**held, **getattr(obj, "__dict__", {})}


def _digests_of(metrics, trace) -> tuple[str, str]:
    metrics_text = json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
    return (_sha256(trace_to_csv(trace).encode("utf-8")),
            _sha256(metrics_text.encode("utf-8")))


def digests(name: str) -> tuple[str, str]:
    """(trace.csv sha256, metrics.json sha256) as `sliptsim run` writes them."""
    return _digests_of(*Simulation(_scenario(name)).run())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_built_scenario_runs_twice_to_the_same_bytes(name):
    # each run works on its own copy of every node's cell and store, so the
    # built scenario comes out of a run as it went in
    sc = _scenario(name)
    before = [(nd.cell.mode, nd.cell.ready_at, nd.store.stored) for nd in sc.nodes]
    assert _digests_of(*Simulation(sc).run()) == GOLDEN[name]
    assert _digests_of(*Simulation(sc).run()) == GOLDEN[name]
    assert [(nd.cell.mode, nd.cell.ready_at, nd.store.stored) for nd in sc.nodes] == before


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_objects_built_per_item_hold_no_instance_dict(name):
    # one per transmitter, node, link, command or record: each keeps its
    # attributes in __slots__, so a fleet's memory grows by those alone
    sim = Simulation(_scenario(name))
    sim.run()  # records are appended as the run goes
    per_item = list(sim.scenario.transmitters)
    for tx in sim.scenario.transmitters:
        per_item += [beam for beam in (tx.beam, tx.dual_data) if beam is not None]
        per_item.append(tx.beam.geometry)
    for nd in sim.scenario.nodes:
        per_item += [nd, nd.cell, nd.store, *nd.commands]
    for n in sim.nodes.values():
        per_item += [n, n.cell, n.store, n.state, n.metrics, *n.links,
                     *n.state.storage, *n.state.last_sent]
    assert sim.nodes and any(n.links for n in sim.nodes.values())
    assert [type(obj).__name__ for obj in per_item if hasattr(obj, "__dict__")] == []


def test_every_bundled_scenario_is_pinned():
    bundled = {path.stem for path in SCENARIOS.glob("*.json")}
    assert len(bundled) >= 5
    assert sorted(bundled - set(GOLDEN)) == []


def test_protocol_demo_walks_the_whole_protocol():
    # near senses on its first wake, charges past 3.6 V while lit, and on
    # the second wake takes both commands and uplinks its record; far,
    # farther from the LEDs, stays below the threshold and senses twice
    metrics, trace = Simulation(_scenario("protocol_demo")).run()
    near, far = metrics.nodes["near"], metrics.nodes["far"]
    assert near.decoded_bits > 0 and near.delivered_records == 1
    assert near.phase_occupancy.keys() == {"sleep", "sense_save", "command_rx", "harvest"}
    assert len(near.charge_completions) == 1
    assert far.decoded_bits == 0 and far.phase_occupancy.keys() == {"sleep", "sense_save"}
    kinds = {(r.node_id, r.event_kind) for r in trace}
    assert {("near", "frame_arrival:sensor_on"), ("near", "frame_arrival:send_data"),
            ("near", "timer_expiry:uplink_done"), ("near", "timer_expiry:tx_off")} <= kinds
    assert [r.event_kind for r in trace if r.node_id == "far"].count("sense_tick:complete") == 2


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_streams_the_golden_bytes(name, fmt, tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(_scenario_path(name, tmp_path)),
            "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    trace_digest, metrics_digest = GOLDEN[name]
    if fmt == "csv":
        assert _sha256((out / "trace.csv").read_bytes()) == trace_digest
    else:
        expected = trace_to_jsonl(Simulation(_scenario(name)).run()[1])
        assert (out / "trace.jsonl").read_bytes() == expected.encode("utf-8")
    assert _sha256((out / "metrics.json").read_bytes()) == metrics_digest
    assert sorted(p.name for p in out.iterdir()) == ["metrics.json", f"trace.{fmt}"]


def _light_pools(links, power) -> tuple[float, float, float]:
    """(harvest, decode, total) optical W, summed in link order as the
    engine sums them, each link adding power(link)."""
    harvest_pool = decode_pool = total = 0.0
    for link in links:
        p = power(link)
        total += p
        if link.in_harvest:
            harvest_pool += p
        if link.in_decode:
            decode_pool += p
    return harvest_pool, decode_pool, total


class _CheckedPools(Simulation):
    """Checks, before each refresh, that the light pools summed over the
    node's lit links equal a sum over every link, dark ones included."""

    checks = 0

    def _refresh(self, n, t):
        lit = _light_pools(n.lit_links, lambda link: link.base_power * link.fade)
        every = _light_pools(n.links,
                             lambda link: link.base_power * link.fade if link.active else 0.0)
        assert lit == every, (n.cfg.node_id, t)
        self.checks += 1
        super()._refresh(n, t)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cached_light_pools_equal_a_sum_over_all_links(name):
    sim = _CheckedPools(_scenario(name))
    assert _digests_of(*sim.run()) == GOLDEN[name]
    assert sim.checks > 0  # every refresh sums the pools, turbulent_demo's included


class _CheckedToggles(Simulation):
    """Checks that each transmitter toggle emits one row for every node
    with a link of that transmitter and none for any other node."""

    def __init__(self, scenario):
        self.emitted = []
        self.toggles = 0
        super().__init__(scenario)

    def _emit(self, t, node_id, event_kind, n):
        self.emitted.append(node_id)
        super()._emit(t, node_id, event_kind, n)

    def _handle_tx_power_change(self, t, tx_id, turn_on):
        start = len(self.emitted)
        super()._handle_tx_power_change(t, tx_id, turn_on)
        targets = [node_id for node_id, n in self.nodes.items()
                   if any(link.tx_id == tx_id for link in n.links)]
        assert sorted(self.emitted[start:]) == sorted(targets), (tx_id, t)
        self.toggles += 1


def _assert_lit_links_are_the_active_links(sim, t: float):
    """t: the time of the last event handled, for the failure message."""
    for n in sim.nodes.values():
        active = [link for link in n.links if link.active]
        assert len(n.lit_links) == len(active), (n.cfg.node_id, t)
        assert all(a is b for a, b in zip(n.lit_links, active)), (n.cfg.node_id, t)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lit_links_and_the_transmitter_index(name, monkeypatch):
    sim = _CheckedToggles(_scenario(name))
    # each transmitter's links, in node order and then link order
    for tx in sim.scenario.transmitters:
        expected = [link for n in sim.nodes.values() for link in n.links
                    if link.tx_id == tx.tx_id]
        assert [id(link) for link in sim._tx_links[tx.tx_id]] == list(map(id, expected))
    pops = []  # the time of each popped entry
    swept = []  # entries each sweep took out of the heap
    sweep = sim._sweep

    def checking_pop(heap):
        # after the event before
        _assert_lit_links_are_the_active_links(sim, pops[-1] if pops else 0.0)
        entry = heapq.heappop(heap)
        pops.append(entry[0])
        return entry

    def counting_sweep():
        before = len(sim._heap)
        sweep()
        swept.append(before - len(sim._heap))

    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=heapq.heappush,
                                                         heappop=checking_pop))
    monkeypatch.setattr(sim, "_sweep", counting_sweep)
    assert _digests_of(*sim.run()) == GOLDEN[name]
    _assert_lit_links_are_the_active_links(sim, sim.scenario.duration)
    # a swept entry is counted without a pop, and so is not checked here:
    # its handler returns at the gen check, so it changes no link
    assert len(pops) + sum(swept) >= sim.metrics.events_processed > 0
    assert sim.toggles > 0
    if name == "golden_targeted_protocol":
        assert [link.node_id for link in sim._tx_links["tx1"]] == ["n0", "n2"]
        assert [(link.node_id, link.in_harvest) for link in sim._tx_links["tx2"]] == [
            ("n1", True), ("n1", False), ("n3", True), ("n3", False)]


# Each golden case's most entries in the heap at once while superseded
# charge timers stayed in it until popped (or, past the end, for good).
UNSWEPT_HEAP_HIGH_WATER = {
    "golden_broadcast_protocol": 48,
    "golden_dual_wavelength": 3,
    "golden_fast_slots": 5132,
    "golden_power_split": 7,
    "golden_targeted_protocol": 34,
    "protocol_demo": 15,
    "spatial_demo": 25,
    "tank_1m5": 4,
    "turbulent_demo": 62,
    "vertical_supercap": 2,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweeping_superseded_timers_keeps_the_heap_small(name, monkeypatch):
    # the stand-in heapq has only heappush and heappop, as engine.py may use
    most = [0]

    def measuring_push(heap, entry):
        heapq.heappush(heap, entry)
        most[0] = max(most[0], len(heap))

    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=measuring_push,
                                                         heappop=heapq.heappop))
    assert _digests_of(*Simulation(_scenario(name)).run()) == GOLDEN[name]
    assert 0 < most[0] <= UNSWEPT_HEAP_HIGH_WATER[name]
    if name == "golden_fast_slots":  # a timer superseded every 5 ms slot
        assert most[0] < 64


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_numpy_stream_gives_the_numpy_era_digests(name, monkeypatch):
    # engine.rng_stream and engine.sample_fading are the only two names a
    # fade goes through; with numpy's put back every case, calm ones too,
    # gives its pinned pair from before the move, byte for byte
    np = pytest.importorskip("numpy")

    def numpy_stream(master_seed, purpose):
        key = zlib.crc32(purpose.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(key,)))

    def numpy_fade(model, rng):
        if model.scintillation_index == 0.0:
            return 1.0
        return float(rng.lognormal(model.log_mean, model.log_sigma))

    monkeypatch.setattr(engine, "rng_stream", numpy_stream)
    monkeypatch.setattr(engine, "sample_fading", numpy_fade)
    assert digests(name) == NUMPY_ERA_GOLDEN.get(name, GOLDEN[name])


@pytest.mark.parametrize("name", ["golden_fast_slots", "turbulent_demo"])
def test_every_fade_is_the_next_draw_of_its_links_own_stream(name, monkeypatch):
    # every fade a link takes, in order, against a fresh copy of its stream
    taken: dict[int, list[float]] = {}
    draw = engine.sample_fading

    def recording(model, rng):
        fade = draw(model, rng)
        taken.setdefault(id(rng), []).append(fade)
        return fade

    monkeypatch.setattr(engine, "sample_fading", recording)
    sim = Simulation(_scenario(name))
    assert _digests_of(*sim.run()) == GOLDEN[name]
    links = [link for n in sim.nodes.values() for link in n.links]
    assert sorted(taken) == sorted(id(link.rng) for link in links)
    by_tx = {}
    for link in links:
        fades = by_tx[link.tx_id] = taken[id(link.rng)]
        turbulence = link.turbulence
        rng = engine.rng_stream(sim.seed, turbulence.rng_stream_id
                                or f"fading:{link.tx_id}:{link.node_id}")
        assert fades == [draw(turbulence, rng) for _ in fades]
        assert all(type(fade) is float for fade in fades)
    if name == "golden_fast_slots":
        assert min(map(len, by_tx.values())) > 5000
        # tx0 and tx2 name one stream, and each draws it from the start
        assert by_tx["tx2"] == by_tx["tx0"][:len(by_tx["tx2"])]


@pytest.mark.parametrize("name", ["tank_1m5", "golden_broadcast_protocol"])
def test_removed_cell_keys_are_refused_at_the_cell(name, tmp_path, capsys):
    # cell.area and cell.decode_bandwidth were parsed but read by no model;
    # a file that still sets either is refused, at every node that does
    for key, value in (("area", "1cm2"), ("decode_bandwidth", "2MHz")):
        cfg = json.loads(_scenario_path(name, tmp_path).read_text())
        for node in cfg["nodes"]:
            node.setdefault("cell", {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["validate", "--scenario", str(bad)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" (allowed")[0] for line in lines[:-1]] == [
            f"nodes[{i}].cell: unknown key(s) {key}" for i in range(len(cfg["nodes"]))]
        assert main(["run", "--scenario", str(bad)]) == 1
        assert f"error: nodes[0].cell: unknown key(s) {key}" in capsys.readouterr().err


def test_tank_1m5_moved_only_through_its_scenario_hash():
    # tank_1m5.json dropped "decode_bandwidth": "30kHz", a key no model
    # read; with the old file's hash put back, its metrics are the old bytes
    cfg = read_config(SCENARIOS / "tank_1m5.json")
    metrics, trace = Simulation(build_scenario(cfg)).run()
    cfg["nodes"][0]["cell"]["decode_bandwidth"] = "30kHz"
    metrics.scenario_hash = scenario_hash(cfg)
    assert _digests_of(metrics, trace) == (
        GOLDEN["tank_1m5"][0],
        "e7115f7338ba241e3912e7cab3840f15b9c30b8fa56a2ad3dcfff6c3835b5149",
    )
