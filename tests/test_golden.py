"""Golden cases: same-seed runs must reproduce the committed bytes exactly.

Each case's pinned output is a directory, tests/golden/<case>/, holding
metrics.json and trace.csv as `sliptsim run --out` writes them; GOLDEN
is the SHA-256 of those files.  golden_fast_slots' 9,826-row trace is
pinned by its digest alone (TRACE_DIGEST_ONLY).  The files change
only with a change that says why its traces differ; a refactor that
reorders a float sum shows up here, as each metrics.json key that moved
and the first trace.csv line that did.  Two inline configs cover the
power_split and dual_wavelength policies, which no bundled scenario runs;
a third has several broadcast transmitters take turns over a protocol
fleet, so links toggle and fades are redrawn on many nodes; a fourth
redraws the fades of three turbulent links every 5 ms slot for 30 s,
thousands of draws per link, two of the links naming the same random
stream; a fifth aims transmitters at subsets of a protocol fleet, one
listing its targets out of node order and one a dual-wavelength pair,
with windows that overlap, so frames are decoded and records uplinked
under both.  Every file in scenarios/ is pinned too.  Each case is
checked twice: serialized from the in-memory trace, and as `sliptsim run`
streams it to its output directory.

To re-pin a case, run it into its directory and commit what `git diff`
then shows, with the reason:

    sliptsim run --scenario scenarios/<case>.json --out tests/golden/<case>

An inline case runs the same way from a file holding json.dumps(INLINE[case]).
For golden_fast_slots, put the SHA-256 of the trace.csv it writes into
TRACE_DIGEST_ONLY and delete the file.
"""

import hashlib
import heapq
import itertools
import json
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

INLINE = {cfg["name"]: cfg
          for cfg in (POWER_SPLIT_CFG, DUAL_WAVELENGTH_CFG, BROADCAST_PROTOCOL_CFG,
                      FAST_SLOTS_CFG, TARGETED_PROTOCOL_CFG)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# a case whose trace is too long to commit: golden_fast_slots' 9,826 rows, 954 KB
TRACE_DIGEST_ONLY = {
    "golden_fast_slots": "d3007d5921fae40786d31965bbf5453afa3c879a7ffbb63043f344a0327ef7eb",
}


def _file_sha256(path: Path) -> str | None:
    return _sha256(path.read_bytes()) if path.is_file() else None


# (trace.csv sha256, metrics.json sha256) of each case directory
GOLDEN = {case.name: (_file_sha256(case / "trace.csv") or TRACE_DIGEST_ONLY.get(case.name),
                      _file_sha256(case / "metrics.json"))
          for case in sorted(GOLDEN_DIR.iterdir()) if case.is_dir()}


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


def _texts(metrics, trace) -> tuple[str, str]:
    """(trace.csv, metrics.json) as `sliptsim run` writes them."""
    return trace_to_csv(trace), json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"


def _digests_of(metrics, trace) -> tuple[str, str]:
    return tuple(_sha256(text.encode("utf-8")) for text in _texts(metrics, trace))


def _leaves(doc, prefix: str = "") -> dict:
    """Each value of a JSON document that is not a non-empty object, by its
    dotted key path, e.g. nodes.node0.spilled_J."""
    if not isinstance(doc, dict) or not doc:
        return {prefix: doc}
    return {path: value for key, item in doc.items()
            for path, value in _leaves(item, f"{prefix}.{key}" if prefix else key).items()}


def _moved(name: str, metrics, trace) -> list[str]:
    """What a run changed against tests/golden/<name>/: each metrics.json
    key path whose value differs, then the first trace.csv line that does."""
    case = GOLDEN_DIR / name
    trace_text, metrics_text = _texts(metrics, trace)
    got = _leaves(json.loads(metrics_text))
    pinned = _leaves(json.loads((case / "metrics.json").read_bytes()))
    moved = sorted(path for path in got.keys() | pinned.keys()
                   if path not in got or path not in pinned or got[path] != pinned[path])
    if (case / "trace.csv").is_file():
        lines = trace_text.split("\n")
        pinned_lines = (case / "trace.csv").read_bytes().decode("utf-8").split("\n")
        for i, (line, want) in enumerate(itertools.zip_longest(lines, pinned_lines), 1):
            if line != want:
                moved.append(f"trace.csv line {i}: pinned {want!r}, run {line!r}")
                break
    return moved


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    metrics, trace = Simulation(_scenario(name)).run()
    moved = _moved(name, metrics, trace)
    assert not moved, f"{name} moved: {moved}"
    assert _digests_of(metrics, trace) == GOLDEN[name]  # and byte for byte


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
    assert sorted(bundled - set(GOLDEN)) == []  # GOLDEN: one case per directory


def test_every_golden_directory_is_a_case_with_its_files():
    # each names a bundled scenario or an inline config and holds its
    # metrics.json, and its trace.csv unless only the trace's digest is pinned
    cases = {path.stem for path in SCENARIOS.glob("*.json")} | set(INLINE)
    assert sorted(set(GOLDEN) - cases) == []
    for name in GOLDEN:
        files = sorted(path.name for path in (GOLDEN_DIR / name).iterdir())
        assert files == ["metrics.json"] + ["trace.csv"] * (name not in TRACE_DIGEST_ONLY), name


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
    # read; with the old file's hash put back, the run differs from the
    # pinned files in that hash alone
    cfg = read_config(SCENARIOS / "tank_1m5.json")
    metrics, trace = Simulation(build_scenario(cfg)).run()
    cfg["nodes"][0]["cell"]["decode_bandwidth"] = "30kHz"
    metrics.scenario_hash = scenario_hash(cfg)
    assert _moved("tank_1m5", metrics, trace) == ["scenario_hash"]
