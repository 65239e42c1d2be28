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


def test_cli_run_returns_a_trace_whose_len_counts_the_rows(tmp_path, monkeypatch):
    # bench/traced.py reads trace.rows as len() of what cli.run returns
    scenario_file = Path(__file__).resolve().parents[1] / "scenarios" / "turbulent_demo.json"
    sc = scenario.load_scenario(scenario_file)
    rows = len(cli.run(sc)[1])
    assert rows > 1
    assert len(cli.run(sc, seed_override=3, sink=engine.MemorySink())[1]) == rows
    assert len(cli.run(sc, seed_override=3, sink=engine.NullSink())[1]) == rows
    monkeypatch.setattr(engine.FileSink, "chunk_rows", 7)
    for fmt, serialize in (("csv", cli.trace_to_csv), ("jsonl", cli.trace_to_jsonl)):
        with engine.FileSink(tmp_path / f"trace.{fmt}", serialize) as sink:
            _, trace = cli.run(sc, seed_override=3, sink=sink)
        assert len(trace) == rows
