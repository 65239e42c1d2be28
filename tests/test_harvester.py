import math

import pytest

from sliptsim.channel import BeamGeometry, LinkParams, WaterProperties
from sliptsim.energy_store import Battery
from sliptsim.engine import Simulation
from sliptsim.errors import DomainError
from sliptsim.harvester import CellMode, SolarCell
from sliptsim.policy import Policy
from sliptsim.scenario import NodeDef, Scenario, TransmitterDef


def _run_cell(cell: SolarCell, light: float, duration: float = 2.0):
    """Metrics of one node whose cell stays in its mode under `light`
    optical watts: clear water and an aperture wider than the beam make
    the link deliver exactly the transmit power."""
    beam = LinkParams(light, 450.0, WaterProperties(0.0, 0.0),
                      BeamGeometry(1e-3, 0.0, 1.0, 1.0))
    node = NodeDef("n0", cell, Battery(capacity=1e3), Policy(), v_threshold=3.6,
                   enabled_sensors=set(), active_load="sleep", sleep_load="sleep",
                   sense_seconds_per_sensor=2.0, sensor_values={}, uplink_rate=500e3,
                   uplink_load="laser_uplink", record_bits=128, data_demand=False,
                   commands=[])
    tx = TransmitterDef("tx0", beam, on_time=0.0, off_time=None, targets=None,
                        dual_data=None, distances={})
    sc = Scenario(duration, 1, [tx], [node], scenario_hash="")
    metrics, _ = Simulation(sc).run()
    return metrics.nodes["n0"]


def test_harvest_applies_conversion_efficiency():
    m = _run_cell(SolarCell(conversion_efficiency=0.2), 0.5, duration=10.0)
    assert m.harvested_j == pytest.approx(0.1 * 10.0, rel=1e-15)
    assert _run_cell(SolarCell(conversion_efficiency=0.2), 0.0).harvested_j == 0.0


def test_modes_are_exclusive():
    pv = _run_cell(SolarCell(), 1e-3)
    assert pv.harvested_j > 0.0
    assert pv.decoded_bits == 0.0 and pv.outage_s == 0.0  # a PV cell never decodes
    pc = _run_cell(SolarCell(mode=CellMode.PHOTOCONDUCTIVE), 1e-3)
    assert pc.harvested_j == 0.0
    assert pc.decoded_bits > 0.0


def test_decode_threshold_behavior():
    cell = SolarCell(sensitivity=1e-6, decode_rate=500e3, mode=CellMode.PHOTOCONDUCTIVE)
    at = _run_cell(cell, 1e-6)  # at sensitivity: full rate
    assert at.decoded_bits == 1_000_000.0
    assert at.outage_s == 0.0
    below = _run_cell(cell, math.nextafter(1e-6, 0.0))  # one ulp below: outage
    assert below.decoded_bits == 0.0
    assert below.outage_s == 2.0


def test_switch_latency_and_noop():
    cell = SolarCell(switch_latency=5e-3)
    # no-op switch completes immediately
    assert cell.switch_mode(CellMode.PHOTOVOLTAIC, now=10.0) == 10.0
    assert cell.ready_at == 0.0
    ready = cell.switch_mode(CellMode.PHOTOCONDUCTIVE, now=10.0)
    assert ready == 10.005
    assert cell.ready_at == 10.005
    back = cell.switch_mode(CellMode.PHOTOVOLTAIC, now=ready)
    assert back == pytest.approx(10.010)


def test_validation():
    with pytest.raises(DomainError):
        SolarCell(conversion_efficiency=0.0)
    with pytest.raises(DomainError):
        SolarCell(conversion_efficiency=1.2)
    with pytest.raises(DomainError):
        SolarCell(switch_latency=-0.1)
    for sensitivity in (0.0, -1e-6):  # at 0 W a cell in the dark would decode
        with pytest.raises(DomainError, match="sensitivity must be > 0"):
            SolarCell(sensitivity=sensitivity)


def test_a_misspelt_attribute_is_refused():
    # __slots__ fixes a cell's attributes, so a typo cannot add a new one
    cell = SolarCell()
    with pytest.raises(AttributeError):
        cell.sensitivty = 1e-3
    assert cell.sensitivity == 1e-6
