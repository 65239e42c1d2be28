"""Parsing of unit-suffixed quantities from scenario files.

Scenario files carry explicit unit suffixes on every physical quantity
("840mWh", "500kbit/s", "1.5m").  Each config field declares the kind of
quantity it expects; this module converts the string (or a bare number,
taken to be in the kind's base unit) into the base unit used internally.

Base units: watts, joules, volts, seconds, meters, bits per second,
farads, 1/m, radians.  Wavelengths are kept in nanometers because they
act as channel labels, not lengths.
"""

import math
import re

from sliptsim.errors import ConfigError

_QTY_RE = re.compile(r"^\s*([+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*(.*?)\s*$")

# Per kind: map of accepted unit suffix -> factor to the base unit.
_UNIT_TABLES: dict[str, dict[str, float]] = {
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6, "kW": 1e3},
    "energy": {
        "J": 1.0,
        "mJ": 1e-3,
        "kJ": 1e3,
        "Wh": 3600.0,
        "mWh": 3.6,
        "kWh": 3.6e6,
    },
    "voltage": {"V": 1.0, "mV": 1e-3, "kV": 1e3},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "min": 60.0, "h": 3600.0},
    "length": {"m": 1.0, "mm": 1e-3, "cm": 1e-2, "km": 1e3, "um": 1e-6, "µm": 1e-6},
    "rate": {
        "bit/s": 1.0,
        "kbit/s": 1e3,
        "Kbit/s": 1e3,
        "Mbit/s": 1e6,
        "Gbit/s": 1e9,
        "bps": 1.0,
        "kbps": 1e3,
    },
    "capacitance": {"F": 1.0, "mF": 1e-3, "uF": 1e-6, "µF": 1e-6},
    "per_length": {"/m": 1.0, "1/m": 1.0, "/km": 1e-3},
    "angle": {"rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0, "°": math.pi / 180.0},
    "wavelength": {"nm": 1.0, "um": 1e3, "µm": 1e3},
}


def parse_quantity(value, kind: str, path: str = "value") -> float:
    """Convert a config value to the base unit of the given quantity kind.

    Accepts a bare int/float (interpreted as already being in the base
    unit) or a string with a recognized unit suffix.  Raises ConfigError
    naming `path` on anything else, and on a value that is not finite in
    the base unit (NaN, an infinity, or an overflow such as "1e999s").
    """
    table = _UNIT_TABLES.get(kind)
    if table is None:
        raise ValueError(f"unknown quantity kind {kind!r}")
    if isinstance(value, bool):
        raise ConfigError(path, f"expected a {kind} quantity, got a boolean")
    if isinstance(value, (int, float)):
        number, factor = value, 1.0
    elif isinstance(value, str):
        m = _QTY_RE.match(value)
        if not m:
            raise ConfigError(path, f"cannot parse quantity {value!r}")
        number, suffix = m.group(1), m.group(2)
        factor = 1.0 if suffix == "" else table.get(suffix)
        if factor is None:
            expected = ", ".join(sorted(k for k in table if k))
            raise ConfigError(
                path, f"unit {suffix!r} is not a {kind} unit (expected one of: {expected})"
            )
    else:
        raise ConfigError(path, f"expected a {kind} quantity, got {type(value).__name__}")
    try:
        result = float(number) * factor
    except OverflowError:  # an int beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise ConfigError(path, f"expected a finite {kind} quantity")
    return result
