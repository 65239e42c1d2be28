"""Discrete-event simulator for underwater optical SLIPT networks.

Simulates simultaneous lightwave information and power transfer over
underwater optical links: light propagation through water, solar-cell
receivers that alternate between energy harvesting and data decoding,
device energy budgets, and the duty-cycled protocol of self-powered
IoUT sensor nodes.

The package builds no dataclasses: importing dataclasses loads inspect,
ast, dis and tokenize, and the decorators with that import cost about
30-40 ms of every CLI process start, so each class writes out its __init__.
The names below are imported from their module when first read (PEP 562),
so importing the package, or `python -m sliptsim.cli validate`, loads no
module the command does not use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module of the package that defines it
_EXPORTS = {name: module for module, names in {
    "channel": ("WaterProperties", "BeamGeometry", "TurbulenceModel", "LinkParams",
                "attenuate", "geometric_capture", "sample_fading"),
    "harvester": ("SolarCell", "CellMode"),
    "energy_store": ("Battery", "Supercapacitor"),
    "node": ("NodeState", "Phase", "Command", "Opcode", "SensorRecord", "LoadProfile"),
    "policy": ("Policy", "NodeProtocol", "TimeSwitchSchedule", "PowerSplit", "DualWavelength",
               "SpatialSplit", "SpatialAssignment", "mode_at", "split", "assign_spatial"),
    "engine": ("Metrics", "run"),
    "scenario": ("load_scenario", "validate_scenario"),
    "errors": ("SimError", "DomainError", "GeometryError", "FrameError", "ConfigError",
               "NeverFullError"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
