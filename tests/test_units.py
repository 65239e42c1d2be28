import math

import pytest

from sliptsim.errors import ConfigError
from sliptsim.units import parse_quantity


def test_base_units_pass_through():
    assert parse_quantity(2.5, "power") == 2.5
    assert parse_quantity(7, "time") == 7.0
    assert parse_quantity("1.5", "length") == 1.5


@pytest.mark.parametrize(
    "text,kind,expected",
    [
        ("840mWh", "energy", 3024.0),
        ("1Wh", "energy", 3600.0),
        ("2.5mJ", "energy", 2.5e-3),
        ("406.45mW", "power", 0.40645),
        ("1uW", "power", 1e-6),
        ("3.6V", "voltage", 3.6),
        ("124min", "time", 7440.0),
        ("5ms", "time", 5e-3),
        ("1.5h", "time", 5400.0),
        ("35mm", "length", 0.035),
        ("500kbit/s", "rate", 500e3),
        ("115.2kbit/s", "rate", 115.2e3),
        ("5F", "capacitance", 5.0),
        ("0.151/m", "per_length", 0.151),
        ("1mrad", "angle", 1e-3),
        ("430nm", "wavelength", 430.0),
    ],
)
def test_suffix_conversions(text, kind, expected):
    assert parse_quantity(text, kind) == pytest.approx(expected, rel=1e-12)


def test_degrees_to_radians():
    assert parse_quantity("30deg", "angle") == pytest.approx(math.pi / 6, rel=1e-15)


def test_wrong_kind_unit_rejected_with_path():
    with pytest.raises(ConfigError) as e:
        parse_quantity("5V", "power", path="transmitters[0].power")
    assert "transmitters[0].power" in str(e.value)
    assert "'V'" in str(e.value)


def test_garbage_rejected():
    with pytest.raises(ConfigError):
        parse_quantity("watts five", "power")
    with pytest.raises(ConfigError):
        parse_quantity(None, "power")
    with pytest.raises(ConfigError):
        parse_quantity(True, "power")


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 10**400, "1e999s", "1e308h",
], ids=["nan", "inf", "-inf", "huge_int", "1e999s", "1e308h"])
def test_non_finite_rejected_with_path(value):
    with pytest.raises(ConfigError, match=r"scenario\.duration: expected a finite time"):
        parse_quantity(value, "time", path="scenario.duration")


def test_unknown_kind_is_a_programming_error():
    with pytest.raises(ValueError):
        parse_quantity("1x", "no_such_kind")
