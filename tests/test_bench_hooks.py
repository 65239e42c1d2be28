"""The traced benchmark run (bench/traced.py) wraps program functions by
name.  These checks fail when a rename breaks one of those names, without
installing any wrapper."""

import importlib.util
import inspect
from pathlib import Path

import sliptsim.cli as cli
import sliptsim.engine as engine
import sliptsim.scenario as scenario
from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.harvester import SolarCell
from sliptsim.node import NodeState

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"

# the owner names install() resolves before its first dot
OWNERS = {"cli": cli, "engine": engine, "scenario": scenario,
          "Battery": Battery, "Supercapacitor": Supercapacitor,
          "SolarCell": SolarCell, "NodeState": NodeState,
          "Simulation": engine.Simulation}


def _traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_names_resolve():
    for name in _traced().TIMED:
        owner, attr = name.split(".", 1)
        assert callable(getattr(OWNERS[owner], attr, None)), name


def test_handlers_and_counted_hooks_resolve():
    sim = engine.Simulation
    for attr in _traced().HANDLERS:
        assert callable(getattr(sim, attr, None)), attr
    for fn in (sim._schedule, cli.run, cli.trace_to_csv, cli.trace_to_jsonl):
        assert callable(fn)
    params = list(inspect.signature(sim._handle_charge_check).parameters)
    assert params == ["self", "t", "node_id", "gen", "flavor"]


def test_node_runtime_has_timer_gen():
    cfg = {"duration": "1s", "seed": 1,
           "nodes": [{"id": "n0", "store": {"type": "battery", "capacity": "1J"}}]}
    sim = engine.Simulation(scenario.build_scenario(cfg))
    assert isinstance(sim.nodes["n0"].timer_gen, int)
