"""Discrete-event simulator for underwater optical SLIPT networks.

Simulates simultaneous lightwave information and power transfer over
underwater optical links: light propagation through water, solar-cell
receivers that alternate between energy harvesting and data decoding,
device energy budgets, and the duty-cycled protocol of self-powered
IoUT sensor nodes.

The package builds no dataclasses: importing dataclasses loads inspect,
ast, dis and tokenize, and the decorators with that import cost about
30-40 ms of every CLI process start, so each class writes out its __init__.
"""

from sliptsim.channel import (
    BeamGeometry,
    LinkParams,
    TurbulenceModel,
    WaterProperties,
    attenuate,
    geometric_capture,
    sample_fading,
)
from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.engine import Metrics, run
from sliptsim.errors import (
    ConfigError,
    DomainError,
    FrameError,
    GeometryError,
    NeverFullError,
    SimError,
)
from sliptsim.harvester import CellMode, SolarCell
from sliptsim.node import Command, LoadProfile, NodeState, Opcode, Phase, SensorRecord
from sliptsim.policy import (
    DualWavelength,
    NodeProtocol,
    Policy,
    PowerSplit,
    SpatialAssignment,
    SpatialSplit,
    TimeSwitchSchedule,
    assign_spatial,
    mode_at,
    split,
)
from sliptsim.scenario import load_scenario, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "WaterProperties",
    "BeamGeometry",
    "TurbulenceModel",
    "LinkParams",
    "attenuate",
    "geometric_capture",
    "sample_fading",
    "SolarCell",
    "CellMode",
    "Battery",
    "Supercapacitor",
    "NodeState",
    "Phase",
    "Command",
    "Opcode",
    "SensorRecord",
    "LoadProfile",
    "Policy",
    "NodeProtocol",
    "TimeSwitchSchedule",
    "PowerSplit",
    "DualWavelength",
    "SpatialSplit",
    "SpatialAssignment",
    "mode_at",
    "split",
    "assign_spatial",
    "Metrics",
    "run",
    "load_scenario",
    "validate_scenario",
    "SimError",
    "DomainError",
    "GeometryError",
    "FrameError",
    "ConfigError",
    "NeverFullError",
]
