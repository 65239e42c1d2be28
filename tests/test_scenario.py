import copy
import hashlib
import importlib.util
import json
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliptsim.scenario as scenario
from sliptsim.channel import TurbulenceModel
from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.errors import ConfigError
from sliptsim.harvester import SolarCell
from sliptsim.node import Command, Opcode
from sliptsim.policy import NodeProtocol, SpatialSplit, TimeSwitchSchedule
from sliptsim.scenario import (
    build_scenario,
    load_scenario,
    read_config,
    scenario_hash,
    validate_scenario,
)

from test_golden import GOLDEN, INLINE, _attrs

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _minimal(**over):
    cfg = {
        "duration": "10s",
        "seed": 1,
        "nodes": [{"id": "n0", "store": {"type": "battery", "capacity": "10J"}}],
    }
    cfg.update(over)
    return cfg


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_bundled_scenarios_load_and_validate(name):
    path = SCENARIOS / f"{name}.json"
    sc = load_scenario(path)
    assert sc.duration > 0
    assert sc.seed is not None
    assert validate_scenario(json.loads(path.read_text())) == []


def test_tank_scenario_contents():
    sc = load_scenario(SCENARIOS / "tank_1m5.json")
    assert sc.duration == pytest.approx(130 * 60)
    assert sc.seed == 42
    (tx,) = sc.transmitters
    assert tx.beam.geometry.distance == pytest.approx(1.5)
    (node,) = sc.nodes
    assert type(node.policy) is NodeProtocol  # a policy with no fields
    assert node.v_threshold == pytest.approx(3.6)
    assert node.store.capacity == pytest.approx(3024.0)  # 840 mWh


def test_unknown_keys_are_rejected_with_a_path():
    with pytest.raises(ConfigError, match="scenario"):
        build_scenario(_minimal(gravity="9.8"))
    cfg = _minimal()
    cfg["nodes"][0]["store"]["capacty"] = "1J"
    with pytest.raises(ConfigError, match=r"nodes\[0\].store"):
        build_scenario(cfg)


def test_wrong_unit_kind_names_the_path():
    cfg = _minimal(transmitters=[{
        "power": "5kg", "water": "pure_sea",
        "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m",
    }])
    with pytest.raises(ConfigError, match=r"transmitters\[0\].power"):
        build_scenario(cfg)


def test_duration_and_seed_validation():
    with pytest.raises(ConfigError, match="duration"):
        build_scenario(_minimal(duration="0s"))
    with pytest.raises(ConfigError, match="seed"):
        build_scenario(_minimal(seed=True))
    with pytest.raises(ConfigError, match="seed"):
        build_scenario(_minimal(seed="42"))
    sc = build_scenario(_minimal(seed=None))  # allowed; engine demands one later
    assert sc.seed is None
    assert build_scenario(_minimal(seed=0)).seed == 0
    with pytest.raises(ConfigError, match=r"scenario\.seed: must be >= 0"):
        build_scenario(_minimal(seed=-1))
    assert validate_scenario(_minimal(seed=-1)) == ["scenario.seed: must be >= 0, got -1"]


def test_transmitter_off_before_on_rejected():
    tx = {"power": "1W", "water": "pure_sea", "beam_waist": "1mm",
          "receiver_radius": "1mm", "distance": "1m", "on": "5s"}
    assert build_scenario(_minimal(transmitters=[{**tx, "off": "5s"}]))
    issues = validate_scenario(_minimal(transmitters=[{**tx, "off": "4s"}]))
    assert len(issues) == 1 and issues[0].startswith("transmitters[0].off: must be >= on")


@pytest.mark.parametrize("edit, where, message", [
    ({"transmitters": [{"on": "-2s"}]}, "transmitters[0].on", "must be >= 0, got -2.0 s"),
    ({"stimuli": [{"time": "-1s"}]}, "stimuli[0].time", "must be >= 0, got -1.0 s"),
    ({"stimuli": [{"time": "10.5s"}]}, "stimuli[0].time",
     "must be <= duration (10.0 s), got 10.5 s"),
])
def test_event_times_outside_the_run_rejected(edit, where, message):
    tx = {"power": "1W", "water": "pure_sea", "beam_waist": "1mm",
          "receiver_radius": "1mm", "distance": "1m"}
    stimulus = {"node": "n0", "stimulus": "light_detected"}
    edges = _minimal(transmitters=[{**tx, "on": "0s"}],
                     stimuli=[{**stimulus, "time": "0s"}, {**stimulus, "time": "10s"}])
    assert validate_scenario(edges) == [] and build_scenario(edges)
    key, (over,) = next(iter(edit.items()))
    cfg = _minimal(**{key: [{**(tx if key == "transmitters" else stimulus), **over}]})
    assert validate_scenario(cfg) == [f"{where}: {message}"]
    with pytest.raises(ConfigError, match=re.escape(f"{where}: {message}")):
        build_scenario(cfg)


@pytest.mark.parametrize("tx_edit, node_edit, where, message", [
    ({"water": {"absorption": "-0.1/m", "scattering": "0/m"}}, {}, "transmitters[0].water",
     "absorption and scattering coefficients must be >= 0"),
    ({"receiver_radius": "-35mm"}, {}, "transmitters[0]",
     "receiver_aperture_radius must be >= 0"),
    ({"beam_waist": "-1mm"}, {}, "transmitters[0]", "initial_radius must be >= 0"),
    ({"distance": "-1m"}, {}, "transmitters[0]", "distance must be >= 0"),
    ({"divergence": "-1mrad"}, {}, "transmitters[0]", "half_angle_divergence must be >= 0"),
    ({"power": "-1W"}, {}, "transmitters[0]", "tx_power must be >= 0"),
    ({}, {"store": {"type": "supercapacitor", "capacitance": "5F", "rated_voltage": "5V",
                    "stored": "100J"}},
     "nodes[0].store", "stored must be within [0, 0.5*C*V_rated^2]"),
], ids=["negative_absorption", "negative_receiver_radius", "negative_beam_waist",
        "negative_distance", "negative_divergence", "negative_power", "overfull_supercap"])
def test_model_refusals_are_reported_at_their_config_path(tx_edit, node_edit, where, message):
    # the model raises the DomainError; the loader names the path it came from
    cfg = _minimal(transmitters=[{**_TX, **tx_edit}])
    cfg["nodes"][0].update(node_edit)
    assert validate_scenario(cfg) == [f"{where}: {message}"]
    with pytest.raises(ConfigError) as e:
        build_scenario(cfg)
    assert (e.value.path, e.value.message) == (where, message)


def test_non_finite_numbers_rejected_with_path():
    tx = {"power": math.nan, "water": "pure_sea", "beam_waist": "1mm",
          "receiver_radius": "1mm", "distance": "1m"}
    assert validate_scenario(_minimal(transmitters=[tx])) == [
        "transmitters[0].power: expected a finite power quantity"]
    assert validate_scenario(_minimal(duration=math.inf)) == [
        "scenario.duration: expected a finite time quantity"]
    # fields outside parse_quantity: a JSON 1e999 reads as inf, a sweep "NaN" as nan
    for path, cfg in [
        ("transmitters[0].turbulence",
         _minimal(transmitters=[{**tx, "power": "1W", "turbulence": 1e999}])),
        ("scenario.policy.alpha", _minimal(policy={"kind": "power_split", "alpha": math.nan})),
        ("nodes[0].cell.efficiency",
         _minimal(nodes=[{"id": "n0", "cell": {"efficiency": 10**400},
                          "store": {"type": "battery", "capacity": "10J"}}])),
    ]:
        with pytest.raises(ConfigError, match=re.escape(path)):
            build_scenario(cfg)


@pytest.mark.parametrize("edit, path, message", [
    (lambda cfg: cfg.update(duration=math.inf), "scenario.duration",
     "expected a finite time quantity"),
    (lambda cfg: cfg.update(policy={"kind": "power_split", "alpha": math.nan}),
     "scenario.policy.alpha", "expected a number in [0, 1]"),
    (lambda cfg: cfg.update(transmitters=[_TX, {**_TX, "power": -math.inf}]),
     "transmitters[1].power", "expected a finite power quantity"),
    (lambda cfg: cfg["nodes"][0].update(sensors={"values": {"0": [[0, 1], [1, math.nan]]}}),
     "nodes[0].sensors.values.0[1]", "value must be a finite number"),
], ids=["top_level", "nested_object", "list_item", "series_point"])
def test_reader_refuses_nan_and_infinity_literals(tmp_path, edit, path, message):
    # Python's JSON reader takes the NaN, Infinity and -Infinity literals;
    # the field checks that refuse 1e999 refuse them, at the same paths
    cfg = _minimal()
    edit(cfg)
    f = tmp_path / "s.json"
    f.write_text(json.dumps(cfg))
    assert re.search(r"\b(NaN|Infinity)\b", f.read_text())
    assert validate_scenario(read_config(f)) == [f"{path}: {message}"]
    with pytest.raises(ConfigError) as e:
        load_scenario(f)
    assert (e.value.path, e.value.message) == (path, message)


def test_duplicate_ids_rejected():
    cfg = _minimal()
    cfg["nodes"].append({"id": "n0", "store": {"type": "battery", "capacity": "1J"}})
    with pytest.raises(ConfigError, match="duplicate node ids"):
        build_scenario(cfg)
    cfg = _minimal(transmitters=[
        {"id": "t", "power": "1W", "water": "pure_sea",
         "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m"},
        {"id": "t", "power": "1W", "water": "pure_sea",
         "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m"},
    ])
    with pytest.raises(ConfigError, match="duplicate transmitter ids"):
        build_scenario(cfg)


def test_dangling_references_rejected():
    tx = {"id": "t", "power": "1W", "water": "pure_sea",
          "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m"}
    with pytest.raises(ConfigError, match="ghost"):
        build_scenario(_minimal(transmitters=[{**tx, "targets": ["ghost"]}]))
    with pytest.raises(ConfigError, match="ghost"):
        build_scenario(_minimal(transmitters=[{**tx, "distances": {"ghost": "1m"}}]))
    with pytest.raises(ConfigError, match="ghost"):
        build_scenario(_minimal(
            stimuli=[{"time": "1s", "node": "ghost", "stimulus": "light_detected"}]))


def test_spatial_constraints():
    cfg = _minimal(policy={"kind": "spatial", "t1": "1s", "t2": "1s"})
    with pytest.raises(ConfigError, match="at least one transmitter"):
        build_scenario(cfg)
    cfg = _minimal(
        policy={"kind": "spatial", "t1": "1s", "t2": "1s"},
        transmitters=[{"power": "1W", "water": "pure_sea",
                       "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m"}],
    )
    cfg["nodes"].append({
        "id": "n1",
        "store": {"type": "battery", "capacity": "1J"},
        "policy": {"kind": "protocol"},
    })
    with pytest.raises(ConfigError, match="every node"):
        build_scenario(cfg)


def test_a_refused_scenario_policy_judges_no_node_key_unread():
    # a refused policy leaves the nodes checked as protocol nodes, which read
    # every key but data_demand; that key is not refused for it
    cfg = json.loads((SCENARIOS / "spatial_demo.json").read_text())
    cfg["policy"]["phase_offset"] = "-1s"
    assert validate_scenario(cfg) == ["scenario.policy.phase_offset: must be >= 0"]
    cfg["policy"] = {"kind": "protocol"}
    assert validate_scenario(cfg)[0] == (
        "nodes[0].data_demand: data_demand is used only in spatial assignment, "
        f"which node {cfg['nodes'][0]['id']!r} does not run")


def test_policy_validation():
    with pytest.raises(ConfigError, match="kind"):
        build_scenario(_minimal(policy={"kind": "osmotic"}))
    with pytest.raises(ConfigError, match="t2"):
        build_scenario(_minimal(policy={"kind": "time_switch", "t1": "1s"}))
    with pytest.raises(ConfigError, match="alpha"):
        build_scenario(_minimal(policy={"kind": "power_split", "alpha": 1.2}))
    with pytest.raises(ConfigError, match="alpha"):
        build_scenario(_minimal(policy={"kind": "power_split", "alpha": "half"}))


def test_dual_wavelengths_must_differ():
    cfg = _minimal(transmitters=[{
        "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m",
        "dual": {
            "energy": {"power": "1W", "wavelength": "450nm", "water": "pure_sea"},
            "data": {"power": "1W", "wavelength": "450nm", "water": "pure_sea"},
        },
    }])
    with pytest.raises(ConfigError, match="distinct wavelengths"):
        build_scenario(cfg)


def test_water_and_turbulence_forms():
    tx = {"power": "1W", "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m"}
    with pytest.raises(ConfigError, match="water"):
        build_scenario(_minimal(transmitters=[{**tx, "water": "lemonade"}]))
    with pytest.raises(ConfigError, match="scattering"):
        build_scenario(_minimal(transmitters=[{**tx, "water": {"absorption": "0.1/m"}}]))
    sc = build_scenario(_minimal(transmitters=[{
        **tx,
        "water": {"absorption": "0.1/m", "scattering": "0.05/m"},
        "turbulence": {"sigma2": 0.3, "stream": "fading:custom"},
    }]))
    beam = sc.transmitters[0].beam
    assert beam.water.total_attenuation == pytest.approx(0.15)
    assert beam.turbulence.scintillation_index == 0.3
    assert beam.turbulence.rng_stream_id == "fading:custom"
    with pytest.raises(ConfigError, match="turbulence"):
        build_scenario(_minimal(transmitters=[{
            **tx, "water": "pure_sea", "turbulence": -0.5}]))


def test_load_defaults_depend_on_policy():
    sc = build_scenario(_minimal())
    assert sc.nodes[0].active_load == "sense_and_save"  # protocol default
    sc = build_scenario(_minimal(policy={"kind": "power_split", "alpha": 0.5}))
    assert sc.nodes[0].active_load == "sleep"  # policy nodes idle by default
    cfg = _minimal()
    cfg["nodes"][0]["load"] = "soc_mcu_3mhz"
    assert build_scenario(cfg).nodes[0].active_load == "soc_mcu_3mhz"
    cfg["nodes"][0]["load"] = "antimatter"
    with pytest.raises(ConfigError, match="unknown load profile") as err:
        build_scenario(cfg)
    assert err.value.path == "nodes[0].load"
    assert err.value.message.startswith("unknown load profile 'antimatter' (have: ")


def test_omitted_keys_build_to_the_defaults():
    # a model gets only the keys a file sets, so each omitted one takes the
    # constructor's own default; the records take the values README states
    tx = {"power": "1W", "water": "pure_sea", "beam_waist": "1mm",
          "receiver_radius": "1cm", "distance": "1m"}
    cfg = _minimal(transmitters=[tx])
    cfg["nodes"].append({"id": "n1", "cell": None, "store": {"type": "supercapacitor"}})
    sc = build_scenario(cfg)
    battery_node, supercap_node = sc.nodes
    for node in sc.nodes:
        assert _attrs(node.cell) == _attrs(SolarCell())
    assert _attrs(battery_node.store) == _attrs(Battery(10.0))
    assert _attrs(supercap_node.store) == _attrs(Supercapacitor())
    assert _attrs(sc.transmitters[0].beam.turbulence) == _attrs(TurbulenceModel())
    for kind, cls in (("time_switch", TimeSwitchSchedule), ("spatial", SpatialSplit)):
        policy = {"kind": kind, "t1": "1s", "t2": "2s"}
        built = build_scenario(_minimal(policy=policy, transmitters=[tx])).nodes[0].policy
        assert type(built) is cls and _attrs(built) == _attrs(cls(1.0, 2.0))
    with_command = _minimal()
    with_command["nodes"][0]["commands"] = [{"op": "sensor_on"}]
    [command] = build_scenario(with_command).nodes[0].commands
    assert _attrs(command) == _attrs(Command(Opcode.SENSOR_ON))

    cell, battery, supercap = battery_node.cell, battery_node.store, supercap_node.store
    assert (cell.conversion_efficiency, cell.decode_rate, cell.sensitivity,
            cell.switch_latency) == (0.2, 500e3, 1e-6, 5e-3)
    assert (battery.stored, battery.v_empty, battery.v_full) == (0.0, 3.0, 4.2)
    assert (supercap.capacitance, supercap.rated_voltage, supercap.stored) == (5.0, 5.0, 0.0)
    assert sc.transmitters[0].beam.turbulence.scintillation_index == 0.0
    assert built.phase_offset == 0.0 and command.sensor_id == 0
    expected_tx = {"on_time": 0.0, "off_time": None, "targets": None, "dual_data": None,
                   "distances": {}}
    assert {key: _attrs(sc.transmitters[0])[key] for key in expected_tx} == expected_tx
    assert sc.transmitters[0].beam.wavelength == 450.0
    expected_node = {
        "v_threshold": 3.6, "enabled_sensors": set(), "active_load": "sense_and_save",
        "sleep_load": "sleep", "sense_seconds_per_sensor": 2.0, "sensor_values": {},
        "uplink_rate": 500e3, "uplink_load": "laser_uplink", "record_bits": 128,
        "data_demand": False, "commands": [],
    }
    for node in sc.nodes:
        assert {key: _attrs(node)[key] for key in expected_node} == expected_node
    assert sc.stimuli == []


def test_command_and_sensor_validation():
    cfg = _minimal()
    cfg["nodes"][0]["commands"] = [{"op": "self_destruct"}]
    with pytest.raises(ConfigError, match="unknown op"):
        build_scenario(cfg)
    cfg["nodes"][0]["commands"] = [{"op": "sensor_on", "sensor": 256}]
    with pytest.raises(ConfigError, match="one byte"):
        build_scenario(cfg)
    cfg = _minimal()
    cfg["nodes"][0]["sensors"] = {"enabled": [1], "values": {"1": [[2, 5.0], [1, 6.0]]}}
    with pytest.raises(ConfigError, match="sorted"):
        build_scenario(cfg)
    cfg["nodes"][0]["sensors"] = {"enabled": [1], "values": {"one": 5.0}}
    with pytest.raises(ConfigError, match="sensor ids must be integers"):
        build_scenario(cfg)


@pytest.mark.parametrize("op", ["send_data", "retransmit"])
def test_a_sensor_on_a_command_that_reads_none_is_refused(op):
    # NodeState.execute_command reads sensor_id only for sensor_on and sensor_off
    cfg = _minimal()
    cfg["nodes"][0]["commands"] = [{"op": "sensor_on", "sensor": 9}, {"op": op, "sensor": 9}]
    where = "nodes[0].commands[1].sensor"
    message = f"{op} reads no sensor id; only sensor_on and sensor_off do"
    assert validate_scenario(cfg) == [f"{where}: {message}"]
    with pytest.raises(ConfigError) as e:
        build_scenario(cfg)
    assert (e.value.path, e.value.message) == (where, message)
    cfg["nodes"][0]["commands"][1] = {"op": "sensor_off", "sensor": 9}
    assert validate_scenario(cfg) == []


def test_unknown_stimulus_rejected():
    # "timeout" was a stimulus no phase has a transition for
    for name in ("earthquake", "timeout"):
        cfg = _minimal(stimuli=[{"time": "1s", "node": "n0", "stimulus": name}])
        message = (rf"^stimuli\[0\]\.stimulus: unknown stimulus '{name}' \(have: "
                   r"light_detected, sense_complete, commands_complete, full_charge\)$")
        with pytest.raises(ConfigError, match=message):
            build_scenario(cfg)


def test_hash_is_canonical():
    a = {"duration": "10s", "seed": 1, "nodes": []}
    b = {"seed": 1, "nodes": [], "duration": "10s"}  # same content, new order
    assert scenario_hash(a) == scenario_hash(b)
    assert scenario_hash({**a, "seed": 2}) != scenario_hash(a)
    assert len(scenario_hash(a)) == 64


def test_built_scenario_carries_its_hash():
    cfg = _minimal()
    sc = build_scenario(cfg)
    assert sc.scenario_hash == scenario_hash(cfg)


_CONFIG_NAMES = sorted(set(GOLDEN) | {p.stem for p in SCENARIOS.glob("*.json")})


def _config(name: str) -> dict:
    """A golden or bundled config, as a fresh copy."""
    if name in INLINE:
        return copy.deepcopy(INLINE[name])
    return read_config(SCENARIOS / f"{name}.json")


def _scenario_module_on_hashlib(monkeypatch):
    """A second copy of sliptsim.scenario, loaded where neither built-in
    SHA-256 module can be imported, so it falls back to hashlib."""
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("scenario_on_hashlib", scenario.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("on_hashlib", [False, True], ids=["builtin", "hashlib"])
def test_scenario_hash_is_the_sha256_of_the_canonical_json(on_hashlib, monkeypatch):
    module = _scenario_module_on_hashlib(monkeypatch) if on_hashlib else scenario
    if on_hashlib:
        assert module.sha256 is hashlib.sha256
    else:
        assert module.sha256.__module__ in {"_sha2", "_sha256"}
    for name in _CONFIG_NAMES:
        cfg = _config(name)
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert module.scenario_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest(), name


_TEXT = st.text(max_size=6)  # any code point but a lone surrogate
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-10**40, max_value=10**40)
                 | st.floats() | _TEXT)  # floats take in NaN and +-inf
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8)


@settings(max_examples=100)
@given(st.dictionaries(_TEXT, _JSON_VALUES | st.lists(_JSON_VALUES, max_size=4), max_size=5))
def test_the_hash_pieces_are_the_canonical_json(cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert scenario_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


def _fleet_cfg() -> dict:
    """The shape of the benchmark's fleet: 200 protocol nodes, and 20
    transmitters taking turns, each with a distance to every node."""
    rng = random.Random(1)
    node_ids = [f"n{i:03d}" for i in range(200)]
    return {
        "name": "fleet",
        "duration": "300s",
        "seed": 1,
        "policy": {"kind": "protocol"},
        "transmitters": [{
            "id": f"tx{k:02d}", "power": f"{rng.uniform(1.8, 2.2):.4f}W",
            "wavelength": "450nm", "water": "clear_ocean", "beam_waist": "5mm",
            "divergence": "20deg", "distance": "1m", "receiver_radius": "35mm",
            "on": f"{k * 15 + 5}s", "off": f"{k * 15 + 15}s",
            "distances": {nid: f"{rng.uniform(0.25, 0.35):.4f}m" for nid in node_ids},
        } for k in range(20)],
        "nodes": [{
            "id": nid,
            "cell": {"efficiency": 0.2, "switch_latency": "5ms"},
            "store": {"type": "battery", "capacity": "1J",
                      "stored": f"{rng.uniform(0.3, 0.7):.4f}J"},
            "sensors": {"enabled": [1], "values": {"1": 20.0}, "seconds_per_sensor": "2s"},
            "commands": [{"op": "sensor_on", "sensor": 2}, {"op": "send_data"}],
        } for nid in node_ids],
    }


def test_hashing_a_fleet_holds_no_whole_json_text():
    cfg = _fleet_cfg()
    assert validate_scenario(cfg) == []
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    tracemalloc.start()
    try:
        digest = scenario_hash(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(canonical).hexdigest()
    # json.dumps held every piece of the text and then the text, about ten times its length
    assert peak < len(canonical) / 2, (peak, len(canonical))


@pytest.mark.parametrize("name", _CONFIG_NAMES)
def test_build_scenario_leaves_its_config_unchanged(name):
    cfg = _config(name)
    before = copy.deepcopy(cfg)
    build_scenario(cfg)
    assert cfg == before


def _places(value, path: str = "scenario", at: tuple = ()):
    """(config path, key sequence) of value and of everything within it."""
    yield path, at
    if isinstance(value, dict):
        children = ((f"{path}.{k}", k, v) for k, v in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{i}]", i, v) for i, v in enumerate(value))
    else:
        return
    for child_path, key, child in children:
        yield from _places(child, child_path, (*at, key))


def _related(a: str, b: str) -> bool:
    """Whether one config path is the other, or within it ("scenario.nodes"
    and "nodes[0]" name the same list)."""
    a, b = (re.sub(r"^scenario\.?", "", p) for p in (a, b))
    short, long = sorted((a, b), key=len)
    return short in ("", long) or long.startswith((f"{short}.", f"{short}["))


@pytest.mark.parametrize("name", _CONFIG_NAMES)
def test_every_non_finite_literal_is_refused_where_it_stands(name):
    # json reads NaN, Infinity and -Infinity as these floats, and only the
    # field checks refuse them, so each must fail at its own place
    base = _config(name)
    places = list(_places(base))
    for value in (math.nan, math.inf, -math.inf):
        for path, at in places:
            cfg = copy.deepcopy(base)
            if at:
                target = cfg
                for key in at[:-1]:
                    target = target[key]
                target[at[-1]] = value
            else:
                cfg = value
            issues = validate_scenario(cfg)
            assert issues, (path, value)
            for issue in issues:
                assert _related(issue.split(": ", 1)[0], path), (path, value, issue)


def test_validate_collects_multiple_issues():
    cfg = _minimal(transmitters=[{
        "power": "5kg", "water": "pure_sea",
        "beam_waist": "1mm", "receiver_radius": "1mm", "distance": "1m",
    }])
    cfg["nodes"][0]["store"]["capacty"] = "1J"
    issues = validate_scenario(cfg)
    assert len(issues) == 2
    assert any("transmitters[0].power" in i for i in issues)
    assert any("nodes[0].store" in i for i in issues)


def test_validate_surfaces_cross_references_last():
    cfg = _minimal(stimuli=[{"time": "1s", "node": "ghost", "stimulus": "light_detected"}])
    issues = validate_scenario(cfg)
    assert issues == ["stimuli[0].node: unknown node 'ghost'"]
    assert validate_scenario("not a dict") == ["scenario: expected an object, got str"]
    assert validate_scenario(_minimal()) == []


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(bad)
    top = tmp_path / "list.json"
    top.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="^scenario: expected an object, got list$"):
        load_scenario(top)
    for name, text in [("deep.json", "[" * 100_000), ("long.json", "1" * 5000)]:
        (tmp_path / name).write_text(text)  # past the parser's nesting / digit limits
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(tmp_path / name)


_TX = {"power": "1W", "water": "pure_sea", "beam_waist": "1mm",
       "receiver_radius": "1mm", "distance": "1m"}


def _first_issue_is_raised(cfg):
    """build_scenario raises the first issue validate_scenario reports."""
    issues = validate_scenario(cfg)
    with pytest.raises(ConfigError) as e:
        build_scenario(cfg)
    assert str(e.value) == issues[0]
    return issues


def test_validate_builds_each_item_once(monkeypatch):
    calls = {}
    for name in ("_build_transmitter", "_build_node", "_build_stimulus"):
        def counting(*args, _build=getattr(scenario, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(*args)

        monkeypatch.setattr(scenario, name, counting)
    stimulus = {"time": "1s", "node": "n0", "stimulus": "light_detected"}
    cfg = _minimal(transmitters=[{**_TX, "id": "a"}, {**_TX, "id": "b"}],
                   stimuli=[stimulus, stimulus])
    cfg["nodes"].append({"id": "n1", "store": {"type": "battery", "capacity": "1J"}})
    assert validate_scenario(cfg) == []
    assert calls == {"_build_transmitter": 2, "_build_node": 2, "_build_stimulus": 2}


def test_validate_reports_every_field_in_build_order():
    cfg = _minimal(name=5, duration="0s", seed=-1,
                   transmitters=[{**_TX, "power": "5kg"}])
    assert _first_issue_is_raised(cfg) == [
        "scenario.name: expected a string",
        "scenario.duration: must be > 0",
        "scenario.seed: must be >= 0, got -1",
        "transmitters[0].power: unit 'kg' is not a power unit "
        "(expected one of: W, kW, mW, uW, µW)",
    ]


def test_validate_reports_every_cross_reference():
    cfg = _minimal(transmitters=[{**_TX, "targets": ["ghost"]}],
                   stimuli=[{"time": "1s", "node": "phantom", "stimulus": "light_detected"}])
    assert _first_issue_is_raised(cfg) == [
        "transmitters[0].targets: unknown node 'ghost'",
        "stimuli[0].node: unknown node 'phantom'",
    ]
