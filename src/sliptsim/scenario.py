"""Scenario files: parsing, validation, canonical hashing.

A scenario is a JSON object with unit-suffixed quantities ("840mWh",
"1.5m", "500kbit/s").  This module defines the runtime Scenario the
engine consumes, and the records it holds, and turns a file into one,
strictly: unknown keys, missing required fields, bad units and dangling
references are all ConfigErrors that name the config path they occurred
at.  One pass (_build) walks the config and collects every such issue:
build_scenario raises the first, and validate_scenario reports them all.
Every number must be finite: a NaN or Infinity literal fails the same
field checks as 1e999.  Files are read as UTF-8, whatever the locale.
The scenario hash is the SHA-256 of the config's canonical JSON, fed in
pieces so that the whole text is never built.
"""

import json
import math
from pathlib import Path

# The interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto,
# about 3.7 MB of resident memory, and no other module needs it, so no
# command loads it.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from sliptsim.channel import (BeamGeometry, LinkParams, TurbulenceModel, WaterProperties,
                              geometric_capture)
from sliptsim.energy_store import Battery, EnergyStore, Supercapacitor
from sliptsim.errors import ConfigError, DomainError
from sliptsim.harvester import SolarCell
from sliptsim.node import Command, Opcode, load_power
from sliptsim.policy import (DualWavelength, NodeProtocol, Policy, PowerSplit,
                             SpatialSplit, TimeSwitchSchedule)
from sliptsim.units import parse_quantity


# -- Scenario records (built here, run by the engine) -------------------------


# No field has a default: the loader states every value a file leaves out.
# A class built once per transmitter, node, link or record declares its
# attributes in __slots__: an instance then holds them in one fixed-size
# block, with no per-instance dict, and assigning any other name raises
# AttributeError.
class TransmitterDef:
    __slots__ = ("tx_id", "beam", "on_time", "off_time", "targets", "dual_data", "distances")

    def __init__(self, tx_id: str, beam: LinkParams, on_time: float, off_time: float | None,
                 targets: list[str] | None,  # None = every node
                 dual_data: LinkParams | None,  # a dual pair's data beam; beam is its energy
                 distances: dict[str, float]):  # per-node range [m]
        self.tx_id, self.beam, self.on_time, self.off_time = tx_id, beam, on_time, off_time
        self.targets, self.dual_data, self.distances = targets, dual_data, distances


class NodeDef:
    __slots__ = ("node_id", "cell", "store", "policy", "v_threshold", "enabled_sensors",
                 "active_load", "sleep_load", "sense_seconds_per_sensor", "sensor_values",
                 "uplink_rate", "uplink_load", "record_bits", "data_demand", "commands")

    def __init__(self, node_id: str, cell: SolarCell, store: EnergyStore, policy: Policy,
                 v_threshold: float, enabled_sensors: set[int], active_load: str,
                 sleep_load: str, sense_seconds_per_sensor: float,
                 sensor_values: dict[int, list[tuple[float, float]]],  # [(t, v)] steps
                 uplink_rate: float, uplink_load: str, record_bits: int,
                 data_demand: bool, commands: list[Command]):
        self.node_id, self.cell, self.store, self.policy = node_id, cell, store, policy
        self.v_threshold, self.enabled_sensors = v_threshold, enabled_sensors
        self.active_load, self.sleep_load = active_load, sleep_load
        self.sense_seconds_per_sensor, self.sensor_values = sense_seconds_per_sensor, sensor_values
        self.uplink_rate, self.uplink_load = uplink_rate, uplink_load
        self.record_bits, self.data_demand, self.commands = record_bits, data_demand, commands


class Scenario:
    def __init__(self, duration: float, seed: int | None,
                 transmitters: list[TransmitterDef], nodes: list[NodeDef], scenario_hash: str):
        self.duration, self.seed = duration, seed
        self.transmitters, self.nodes = transmitters, nodes
        self.scenario_hash = scenario_hash


_OPCODES = {
    "sensor_on": Opcode.SENSOR_ON,
    "sensor_off": Opcode.SENSOR_OFF,
    "send_data": Opcode.SEND_DATA,
    "retransmit": Opcode.RETRANSMIT,
}

_TOP_KEYS = {"name", "duration", "seed", "policy", "transmitters", "nodes"}
_TX_KEYS = {
    "id", "power", "wavelength", "water", "beam_waist", "divergence", "distance",
    "distances", "receiver_radius", "turbulence", "on", "off", "targets", "dual",
}
_DUAL_BEAM_KEYS = {"power", "wavelength", "water", "turbulence"}
_NODE_KEYS = {
    "id", "cell", "store", "policy", "v_threshold", "sensors", "load",
    "sleep_load", "uplink", "data_demand", "commands",
}
_CELL_KEYS = {"efficiency", "decode_rate", "sensitivity", "switch_latency"}
_BATTERY_KEYS = {"type", "capacity", "stored", "v_empty", "v_full"}
_SUPERCAP_KEYS = {"type", "capacitance", "rated_voltage", "stored"}
_SENSORS_KEYS = {"enabled", "values", "seconds_per_sensor"}
_UPLINK_KEYS = {"rate", "load", "record_bits"}
_COMMAND_KEYS = {"op", "sensor"}
# node key -> (the Policy flag a node needs to read it, what reads it): the
# key is refused on any other node
_NODE_KEY_READERS = {
    "sensors": ("protocol", "sensors are used only in the protocol's SenseSave phase"),
    "commands": ("protocol", "commands are used only in the protocol's CommandRx phase"),
    "v_threshold": ("protocol", "v_threshold is used only in the protocol's wake check"),
    "sleep_load": ("protocol",
                   "sleep_load is used only in the protocol's Sleep and Harvest phases"),
    "uplink": ("protocol", "uplink is used only in the protocol's CommandRx phase"),
    "data_demand": ("spatial", "data_demand is used only in spatial assignment"),
}


def scenario_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-key, no-whitespace) JSON form.

    The text is hashed in pieces, a top-level list one item at a time, so
    no more than one item's JSON is alive at once: json.dumps would hold
    every small string of the whole text before joining them.  Each piece
    comes from the C encoder; iterencode runs in pure Python, about 4x slower.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    digest = sha256(b"{")
    for n, key in enumerate(sorted(cfg)):
        digest.update(f"{',' if n else ''}{encode(key)}:".encode("utf-8"))
        value = cfg[key]
        if isinstance(value, list):
            digest.update(b"[")
            for i, item in enumerate(value):
                digest.update(f"{',' if i else ''}{encode(item)}".encode("utf-8"))
            digest.update(b"]")
        else:
            digest.update(encode(value).encode("utf-8"))
    digest.update(b"}")
    return digest.hexdigest()


# -- low-level helpers --------------------------------------------------------


def _check_keys(obj: dict, allowed: set, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            path,
            f"unknown key(s) {', '.join(unknown)} (allowed: {', '.join(sorted(allowed))})",
        )


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


def _qty(obj: dict, key: str, kind: str, path: str, default=None) -> float:
    if key not in obj and default is not None:
        return default
    return parse_quantity(_require(obj, key, path), kind, f"{path}.{key}")


def _given(obj: dict, path: str, **kinds: str) -> dict:
    """{key: quantity} for each key=kind that obj sets, in that order: a
    key obj leaves out takes the model constructor's own default."""
    return {key: parse_quantity(obj[key], kind, f"{path}.{key}")
            for key, kind in kinds.items() if key in obj}


def _model(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), a model refusing its arguments refused at path:
    the one place a DomainError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except DomainError as e:
        raise ConfigError(path, str(e)) from None


def _finite(value) -> float | None:
    """value as a float if it is a finite number (a bool is not), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


def _mapping(obj: dict, key: str, path: str, what: str) -> dict:
    """obj[key] as a dict, {} when absent or null."""
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}", f"expected an object of {what}")
    return value


def _str_field(obj: dict, key: str, path: str, default: str) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}", "expected a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which JSON spells as "\ud800"
        raise ConfigError(f"{path}.{key}", "must be text UTF-8 can encode: ids are written "
                                           "and stream names hashed as UTF-8") from None
    return value


def _load_name(obj: dict, key: str, path: str, default: str) -> str:
    name = _str_field(obj, key, path, default)
    _model(f"{path}.{key}", load_power, name)  # the catalog refuses an unknown name
    return name


def _water(value, path: str) -> WaterProperties:
    if isinstance(value, str):
        return _model(path, WaterProperties.preset, value)
    if isinstance(value, dict):
        _check_keys(value, {"absorption", "scattering"}, path)
        return _model(path, WaterProperties, _qty(value, "absorption", "per_length", path),
                      _qty(value, "scattering", "per_length", path))
    raise ConfigError(path, "expected a water preset name or an object with "
                            "absorption/scattering")


def _turbulence(value, path: str) -> TurbulenceModel:
    given = {}  # without a stream, the engine names the link's own
    if isinstance(value, dict):
        _check_keys(value, {"sigma2", "stream"}, path)
        if "stream" in value:
            given["rng_stream_id"] = _str_field(value, "stream", path, "")
            if not given["rng_stream_id"]:
                raise ConfigError(f"{path}.stream", "expected a non-empty string")
        path = f"{path}.sigma2"
        if "sigma2" not in value:
            raise ConfigError(path, "missing: the scintillation index is required")
        value = value["sigma2"]
    sigma2 = _finite(value)
    if sigma2 is None:
        raise ConfigError(path, "scintillation index must be a finite number")
    return _model(path, TurbulenceModel, sigma2, **given)


# -- section builders ---------------------------------------------------------


def _slots(cls):
    def build(obj: dict, path: str) -> TimeSwitchSchedule:
        offset = _given(obj, path, phase_offset="time")
        if offset and offset["phase_offset"] < 0:
            raise ConfigError(f"{path}.phase_offset", "must be >= 0")
        return _model(path, cls, _qty(obj, "t1", "time", path), _qty(obj, "t2", "time", path),
                      **offset)

    return build


def _power_split(obj: dict, path: str) -> PowerSplit:
    alpha = _finite(obj.get("alpha"))
    if alpha is None:
        raise ConfigError(f"{path}.alpha", "expected a number in [0, 1]")
    return _model(f"{path}.alpha", PowerSplit, alpha)


_SLOT_KEYS = {"kind", "t1", "t2", "phase_offset"}
# JSON policy kind -> (allowed keys, builder of the policy object)
_POLICIES = {
    "protocol": ({"kind"}, lambda obj, path: NodeProtocol()),
    "time_switch": (_SLOT_KEYS, _slots(TimeSwitchSchedule)),
    "power_split": ({"kind", "alpha"}, _power_split),
    "dual_wavelength": ({"kind"}, lambda obj, path: DualWavelength()),
    "spatial": (_SLOT_KEYS, _slots(SpatialSplit)),
}


def _build_policy(obj, path: str) -> Policy:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a policy object with a 'kind'")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _POLICIES:
        raise ConfigError(
            f"{path}.kind",
            f"unknown policy kind {kind!r} (have: {', '.join(sorted(_POLICIES))})",
        )
    keys, build = _POLICIES[kind]
    _check_keys(obj, keys, path)
    return build(obj, path)


def _build_beam(beam_obj: dict, path: str, geometry: BeamGeometry,
                default_turbulence: TurbulenceModel) -> LinkParams:
    return _model(
        path, LinkParams,
        tx_power=_qty(beam_obj, "power", "power", path),
        wavelength=_qty(beam_obj, "wavelength", "wavelength", path, default=450.0),
        water=_water(_require(beam_obj, "water", path), f"{path}.water"),
        geometry=geometry,
        turbulence=(_turbulence(beam_obj["turbulence"], f"{path}.turbulence")
                    if "turbulence" in beam_obj else default_turbulence),
    )


def _build_transmitter(obj, index: int) -> TransmitterDef:
    path = f"transmitters[{index}]"
    _check_keys(obj, _TX_KEYS, path)
    tx_id = _str_field(obj, "id", path, f"tx{index}")
    geometry = _model(
        path, BeamGeometry,
        initial_radius=_qty(obj, "beam_waist", "length", path, default=0.0),
        half_angle_divergence=_qty(obj, "divergence", "angle", path, default=0.0),
        receiver_aperture_radius=_qty(obj, "receiver_radius", "length", path),
        distance=_qty(obj, "distance", "length", path),
    )
    _model(path, geometric_capture, geometry)  # refuses a zero-width beam
    turbulence = (_turbulence(obj["turbulence"], f"{path}.turbulence")
                  if "turbulence" in obj else TurbulenceModel())

    dual_data = None  # a dual pair's beam is its energy beam
    if "dual" in obj:
        dual = obj["dual"]
        _check_keys(dual, {"energy", "data"}, f"{path}.dual")
        e_obj = _require(dual, "energy", f"{path}.dual")
        d_obj = _require(dual, "data", f"{path}.dual")
        _check_keys(e_obj, _DUAL_BEAM_KEYS, f"{path}.dual.energy")
        _check_keys(d_obj, _DUAL_BEAM_KEYS, f"{path}.dual.data")
        beam = _build_beam(e_obj, f"{path}.dual.energy", geometry, turbulence)
        dual_data = _build_beam(d_obj, f"{path}.dual.data", geometry, turbulence)
        if beam.wavelength == dual_data.wavelength:
            raise ConfigError(f"{path}.dual",
                              "energy and data beams must use distinct wavelengths")
    else:
        beam = _build_beam(obj, path, geometry, turbulence)

    targets = obj.get("targets")
    if targets is not None:
        if not isinstance(targets, list) or not all(isinstance(x, str) for x in targets):
            raise ConfigError(f"{path}.targets", "expected a list of node ids")
        if len(set(targets)) != len(targets):  # a repeated id would build its link twice
            raise ConfigError(f"{path}.targets", "duplicate node ids")

    distances = {}
    for node_id, d in _mapping(obj, "distances", path, "node id -> distance").items():
        d = distances[node_id] = parse_quantity(d, "length", f"{path}.distances.{node_id}")
        if d < 0:
            raise ConfigError(f"{path}.distances.{node_id}", "distance must be >= 0")
    # BeamGeometry refuses a divergence of 90 deg or more, so every accepted
    # beam widens with distance: a zero-width check at the nearest is exact
    if distances:
        nearest = min(distances, key=distances.get)
        _model(f"{path}.distances.{nearest}", geometric_capture, geometry, distances[nearest])

    on_time = _qty(obj, "on", "time", path, default=0.0)
    if on_time < 0:
        raise ConfigError(f"{path}.on", f"must be >= 0, got {on_time} s")
    off_time = None if obj.get("off") is None else _qty(obj, "off", "time", path)
    if off_time is not None and off_time < on_time:
        raise ConfigError(f"{path}.off", f"must be >= on ({on_time} s), got {off_time} s")
    return TransmitterDef(
        tx_id=tx_id,
        beam=beam,
        on_time=on_time,
        off_time=off_time,
        targets=targets,
        dual_data=dual_data,
        distances=distances,
    )


def _build_cell(obj, path: str) -> SolarCell:
    if obj is None:
        obj = {}
    _check_keys(obj, _CELL_KEYS, path)
    given = {}
    if "efficiency" in obj:
        given["conversion_efficiency"] = _finite(obj["efficiency"])
        if given["conversion_efficiency"] is None:
            raise ConfigError(f"{path}.efficiency", "expected a number in (0, 1]")
    given.update(_given(obj, path, decode_rate="rate", sensitivity="power",
                        switch_latency="time"))
    return _model(path, SolarCell, **given)


def _build_store(obj, path: str):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(path, "expected a store object with a 'type'")
    kind = obj["type"]
    if kind == "battery":
        _check_keys(obj, _BATTERY_KEYS, path)
        return _model(path, Battery, _qty(obj, "capacity", "energy", path),
                      **_given(obj, path, stored="energy", v_empty="voltage", v_full="voltage"))
    if kind == "supercapacitor":
        _check_keys(obj, _SUPERCAP_KEYS, path)
        return _model(path, Supercapacitor, **_given(obj, path, capacitance="capacitance",
                                                     rated_voltage="voltage", stored="energy"))
    raise ConfigError(f"{path}.type",
                      f"unknown store type {kind!r} (have: battery, supercapacitor)")


def _build_commands(obj, path: str) -> list[Command]:
    if obj is None:
        return []
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of command objects")
    commands = []
    for i, c in enumerate(obj):
        cpath = f"{path}[{i}]"
        _check_keys(c, _COMMAND_KEYS, cpath)
        op = _require(c, "op", cpath)
        if not isinstance(op, str) or op not in _OPCODES:
            raise ConfigError(f"{cpath}.op",
                              f"unknown op {op!r} (have: {', '.join(sorted(_OPCODES))})")
        given = {}
        if "sensor" in c:
            if op not in ("sensor_on", "sensor_off"):  # execute_command reads no other's
                raise ConfigError(f"{cpath}.sensor",
                                  f"{op} reads no sensor id; only sensor_on and sensor_off do")
            given["sensor_id"] = c["sensor"]
            if isinstance(c["sensor"], bool) or not isinstance(c["sensor"], int):
                raise ConfigError(f"{cpath}.sensor", "expected an integer sensor id")
        commands.append(_model(cpath, Command, _OPCODES[op], **given))
    return commands


def _build_sensors(obj, path: str):
    """Returns (enabled_ids, values, seconds_per_sensor)."""
    if obj is None:
        obj = {}
    _check_keys(obj, _SENSORS_KEYS, path)
    enabled = obj.get("enabled", [])
    # a command names its sensor in one payload byte, so no other id can be switched off
    if (not isinstance(enabled, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= 255 for x in enabled)):
        raise ConfigError(f"{path}.enabled", "expected a list of integer sensor ids in [0, 255]")
    if len(set(enabled)) != len(enabled):
        raise ConfigError(f"{path}.enabled", "duplicate sensor ids")
    values = {}
    for key, src in _mapping(obj, "values", path, "sensor id -> value").items():
        vpath = f"{path}.values.{key}"
        try:
            sensor_id = int(key)
        except ValueError:
            sensor_id = None
        # int() also reads "01" and "1_0", which would name sensors 1 and 10
        if sensor_id is None or str(sensor_id) != key:
            raise ConfigError(vpath, "sensor ids must be integers in decimal, as in \"1\"")
        number = _finite(src)
        if number is not None:
            values[sensor_id] = [(0.0, number)]  # a constant is one step from t = 0
        elif isinstance(src, list):
            series = []
            for j, point in enumerate(src):
                if not isinstance(point, list) or len(point) != 2:
                    raise ConfigError(f"{vpath}[{j}]", "expected a [time, value] pair")
                t = parse_quantity(point[0], "time", f"{vpath}[{j}]")
                value = _finite(point[1])
                if value is None:
                    raise ConfigError(f"{vpath}[{j}]", "value must be a finite number")
                if series and t < series[-1][0]:
                    raise ConfigError(f"{vpath}[{j}]", "series times must be sorted")
                series.append((t, value))
            values[sensor_id] = series
        else:
            raise ConfigError(vpath, "expected a number or a [[time, value], ...] series")
    per = _qty(obj, "seconds_per_sensor", "time", path, default=2.0)
    if per < 0:
        raise ConfigError(f"{path}.seconds_per_sensor", f"must be >= 0, got {per} s")
    return set(enabled), values, per


def _build_node(obj, index: int, default_policy: Policy | None) -> NodeDef:
    path = f"nodes[{index}]"
    _check_keys(obj, _NODE_KEYS, path)
    node_id = _str_field(obj, "id", path, f"node{index}")
    if any(c in node_id for c in ',"\r\n'):
        raise ConfigError(f"{path}.id", "must hold no ',', '\"', CR or LF: "
                                         "the CSV trace writes ids unquoted")
    policy = (_build_policy(obj["policy"], f"{path}.policy")
              if "policy" in obj else default_policy)
    if policy is None:  # the scenario's policy was refused: no key is judged unread
        policy = NodeProtocol()
    else:
        for key, (flag, use) in _NODE_KEY_READERS.items():
            if key in obj and not getattr(policy, flag):
                raise ConfigError(f"{path}.{key}", f"{use}, which node {node_id!r} does not run")
    enabled, values, per = _build_sensors(obj.get("sensors"), f"{path}.sensors")

    uplink = {} if obj.get("uplink") is None else obj["uplink"]
    _check_keys(uplink, _UPLINK_KEYS, f"{path}.uplink")
    record_bits = uplink.get("record_bits", 128)
    # an uplink lasts records * record_bits / rate, in floats: up to 2**53 a
    # record's bits are exact, and no batch's product overflows
    if (isinstance(record_bits, bool) or not isinstance(record_bits, int)
            or not 0 < record_bits <= 2**53):
        raise ConfigError(f"{path}.uplink.record_bits", "expected an integer in [1, 2**53]")
    uplink_rate = _qty(uplink, "rate", "rate", f"{path}.uplink", default=500e3)
    if uplink_rate <= 0:
        raise ConfigError(f"{path}.uplink.rate", f"must be > 0, got {uplink_rate} bit/s")
    active_load = _load_name(obj, "load", path, "sense_and_save" if policy.protocol else "sleep")

    data_demand = obj.get("data_demand", False)
    if not isinstance(data_demand, bool):
        raise ConfigError(f"{path}.data_demand", "expected true or false")

    node = NodeDef(
        node_id=node_id,
        cell=_build_cell(obj.get("cell"), f"{path}.cell"),
        store=_build_store(_require(obj, "store", path), f"{path}.store"),
        policy=policy,
        v_threshold=_qty(obj, "v_threshold", "voltage", path, default=3.6),
        enabled_sensors=enabled,
        active_load=active_load,
        sleep_load=_load_name(obj, "sleep_load", path, "sleep"),
        sense_seconds_per_sensor=per,
        sensor_values=values,
        uplink_rate=uplink_rate,
        uplink_load=_load_name(uplink, "load", f"{path}.uplink", "laser_uplink"),
        record_bits=record_bits,
        data_demand=data_demand,
        commands=_build_commands(obj.get("commands"), f"{path}.commands"),
    )
    readable = enabled | {c.sensor_id for c in node.commands if c.opcode is Opcode.SENSOR_ON}
    for sensor_id in values:
        if sensor_id not in readable:
            raise ConfigError(f"{path}.sensors.values.{sensor_id}",
                              "neither enabled nor switched on by a command, so nothing reads it")
    return node


# -- public API ---------------------------------------------------------------


def _duration(cfg: dict) -> float:
    duration = _qty(cfg, "duration", "time", "scenario")
    if duration <= 0:
        raise ConfigError("scenario.duration", "must be > 0")
    return duration


def _seed(cfg: dict) -> int | None:
    seed = cfg.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError("scenario.seed", "expected an integer")
    if seed is not None and seed < 0:
        raise ConfigError("scenario.seed", f"must be >= 0, got {seed}")
    return seed


def _build(cfg, issues: list[ConfigError]) -> Scenario | None:
    """Walk cfg once, in build order, appending every ConfigError to issues.

    Each top-level field and each section item is tried on its own, so
    one bad item hides no other.  Cross-references read the built items,
    so they are checked only once everything else has built; all of them
    are reported.  Returns the Scenario when issues stays empty.
    """

    def attempt(build, *args):
        try:
            return build(*args)
        except ConfigError as e:
            issues.append(e)
            return None

    def section(key: str, build, *extra) -> list:
        items = cfg.get(key, [])
        if not isinstance(items, list):
            issues.append(ConfigError(f"scenario.{key}", "expected a list"))
            return []
        return [attempt(build, item, i, *extra) for i, item in enumerate(items)]

    attempt(_check_keys, cfg, _TOP_KEYS, "scenario")
    if not isinstance(cfg, dict):
        return None
    attempt(_str_field, cfg, "name", "scenario", "")  # a label; no output uses it
    duration = attempt(_duration, cfg)
    seed = attempt(_seed, cfg)
    # a refused policy leaves None, and nodes are still checked as protocol nodes
    default_policy = (attempt(_build_policy, cfg["policy"], "scenario.policy")
                      if "policy" in cfg else NodeProtocol())
    transmitters = section("transmitters", _build_transmitter)
    nodes = section("nodes", _build_node, default_policy)
    if issues:
        return None

    def refuse(path: str, message: str):
        issues.append(ConfigError(path, message))

    node_ids = [n.node_id for n in nodes]
    if len(set(node_ids)) != len(node_ids):
        refuse("scenario.nodes", "duplicate node ids")
    tx_ids = [t.tx_id for t in transmitters]
    if len(set(tx_ids)) != len(tx_ids):
        refuse("scenario.transmitters", "duplicate transmitter ids")
    by_id = {n.node_id: n for n in nodes}
    spatial = any(n.policy.spatial for n in nodes)
    for i, tx in enumerate(transmitters):
        for target in tx.targets or []:
            if target not in by_id:
                refuse(f"transmitters[{i}].targets", f"unknown node {target!r}")
        for node_id in tx.distances:
            if node_id not in by_id:
                refuse(f"transmitters[{i}].distances", f"unknown node {node_id!r}")
            elif not spatial and tx.targets is not None and node_id not in tx.targets:
                refuse(f"transmitters[{i}].distances.{node_id}",
                       "not one of the transmitter's targets, so no link uses it")
        if spatial and tx.dual_data is not None:
            refuse(f"transmitters[{i}].dual",
                   "spatial assignment aims one beam per transmitter, not a dual pair")
        if spatial and tx.targets is not None:
            refuse(f"transmitters[{i}].targets",
                   "spatial assignment chooses each transmitter's node, so targets is unused")
    if spatial:
        if not all(n.policy.spatial for n in nodes):
            refuse("scenario.policy", "spatial assignment requires every node to use it")
        if not transmitters:
            refuse("scenario.transmitters",
                   "spatial assignment needs at least one transmitter")
    if issues:
        return None
    return Scenario(duration, seed, transmitters, nodes, scenario_hash=scenario_hash(cfg))


def build_scenario(cfg: dict) -> Scenario:
    """Turn a parsed config dict into a runtime Scenario (strict): raises
    the first ConfigError validate_scenario would report."""
    issues = []
    scenario = _build(cfg, issues)
    if issues:
        raise issues[0]
    return scenario


def validate_scenario(cfg) -> list[str]:
    """Every config problem as a "path: message" string, in build order
    (empty = valid)."""
    issues = []
    _build(cfg, issues)
    return [str(e) for e in issues]


def read_config(path):
    """Read a scenario JSON file, refusing only what cannot be read: a
    missing file, bad syntax, and digits or nesting past the parser's
    limits.  _build checks the rest, the NaN and Infinity literals included."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(str(path), f"cannot read scenario file: {e}") from None
    try:
        return json.loads(data)  # UTF-8 (RFC 8259) whatever the locale
    except (ValueError, RecursionError) as e:  # also digit and nesting limits
        raise ConfigError(str(path), f"invalid JSON: {e}") from None


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file and build the runtime Scenario."""
    return build_scenario(read_config(path))
