"""The traced benchmark run (bench/traced.py) wraps program functions by
name.  These checks fail when a rename breaks one of those names, without
installing any wrapper, or when an event could slip past the handlers it
counts."""

import heapq
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

import sliptsim.cli as cli
import sliptsim.engine as engine
import sliptsim.scenario as scenario
from sliptsim.energy_store import Battery, Supercapacitor
from sliptsim.harvester import SolarCell
from sliptsim.node import NodeState
from sliptsim.trace import FileSink, MemorySink, NullSink

from test_golden import GOLDEN, _scenario

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
    params = list(inspect.signature(sim._handle_timer).parameters)
    assert params == ["self", "t", "action", "target_id", "batch"]


def _refers_to(value, sim) -> bool:
    """value is sim, a method bound to it, or a container holding either."""
    if value is sim or getattr(value, "__self__", None) is sim:
        return True
    if isinstance(value, (tuple, list)):
        return any(_refers_to(v, sim) for v in value)
    return False


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_event_names_a_traced_handler(name, monkeypatch):
    # traced.py counts events by wrapping the HANDLERS methods on the class,
    # so each heap entry must name one of them and be dispatched by name
    handlers = _traced().HANDLERS
    calls = []
    entries = []
    schedule = engine.Simulation._schedule

    def recording_schedule(self, t, handler, *args):
        calls.append(handler)
        schedule(self, t, handler, *args)

    def recording_push(heap, entry):
        entries.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(engine.Simulation, "_schedule", recording_schedule)
    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=recording_push,
                                                         heappop=heapq.heappop))
    sim = engine.Simulation(_scenario(name))
    metrics, _ = sim.run()
    assert metrics.events_processed > 0
    assert len(entries) == len(calls) > 0  # _schedule is the only place that pushes
    assert set(calls) <= set(handlers)
    for entry in entries:
        t, seq, handler, args = entry
        assert (type(t), type(seq), type(handler), type(args)) == (float, int, str, tuple)
        assert not _refers_to(entry, sim), entry


# Each golden case's _handle_charge_check calls with a superseded gen,
# counted while every superseded timer was popped in time order.
STALE_CHARGE_CHECKS = {
    "golden_broadcast_protocol": 47,
    "golden_dual_wavelength": 1,
    "golden_fast_slots": 215,
    "golden_power_split": 4,
    "golden_targeted_protocol": 19,
    "protocol_demo": 17,
    "spatial_demo": 0,
    "tank_1m5": 1,
    "turbulent_demo": 0,
    "vertical_supercap": 1,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_handlers_traced_py_counts_are_called_once_per_event(name, monkeypatch):
    # a superseded timer the sweep takes out of the heap still goes to its
    # handler, so traced.py's event and stale counts stay those of popping it
    traced = _traced()
    tracer = traced.Tracer()
    sim = engine.Simulation
    for attr, kind in traced.HANDLERS.items():
        monkeypatch.setattr(sim, attr, tracer.counted(f"engine.events.{kind}",
                                                      getattr(sim, attr)))
    stale = []
    handle_charge_check = sim._handle_charge_check

    def charge_check(self, t, node_id, gen, flavor):
        if gen != self.nodes[node_id].timer_gen:
            stale.append(t)
        return handle_charge_check(self, t, node_id, gen, flavor)

    monkeypatch.setattr(sim, "_handle_charge_check", charge_check)
    metrics, _ = sim(_scenario(name)).run()
    assert sum(tracer.counts.values()) == metrics.events_processed > 0
    assert len(stale) == STALE_CHARGE_CHECKS[name]


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
    assert len(cli.run(sc, seed_override=3, sink=MemorySink())[1]) == rows
    assert len(cli.run(sc, seed_override=3, sink=NullSink())[1]) == rows
    monkeypatch.setattr(FileSink, "chunk_rows", 7)
    for fmt, serialize in (("csv", cli.trace_to_csv), ("jsonl", cli.trace_to_jsonl)):
        with FileSink(tmp_path / f"trace.{fmt}", serialize) as sink:
            _, trace = cli.run(sc, seed_override=3, sink=sink)
        assert len(trace) == rows
