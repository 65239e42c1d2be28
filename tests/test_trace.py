"""Trace sinks: streamed files match the in-memory trace byte for byte,
`sweep` keeps no trace, and a failed run leaves no partial file."""

import json
from pathlib import Path

import pytest

import sliptsim.cli as cli
import sliptsim.engine as engine
from sliptsim.energy_store import Battery
from sliptsim.engine import FileSink, MemorySink, NullSink, trace_to_csv, trace_to_jsonl
from sliptsim.errors import SimError
from sliptsim.scenario import build_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEMO = SCENARIOS / "turbulent_demo.json"
SERIALIZE = {"csv": trace_to_csv, "jsonl": trace_to_jsonl}

# 10 ms slots for 60 s: 6000 slot_boundary rows, more than one 4096-row chunk
SLOTS_CFG = {
    "name": "slots",
    "duration": "60s",
    "seed": 5,
    "policy": {"kind": "time_switch", "t1": "10ms", "t2": "10ms"},
    "transmitters": [{
        "id": "tx0", "power": "2mW", "wavelength": "450nm", "water": "pure_sea",
        "beam_waist": "1mm", "divergence": "0rad", "distance": "1m",
        "receiver_radius": "1mm", "turbulence": {"sigma2": 0.25}, "on": "0s",
    }],
    "nodes": [{"id": "n0", "cell": {"sensitivity": "1mW"},
               "store": {"type": "battery", "capacity": "10J", "stored": "5J"}}],
}


@pytest.fixture(autouse=True)
def _no_ambient_out(monkeypatch):
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)


def _memory_trace(scenario):
    return engine.run(scenario)[1]


@pytest.mark.parametrize("fmt", sorted(SERIALIZE))
@pytest.mark.parametrize("chunk_rows", [1, 5, FileSink.chunk_rows])
def test_file_sink_writes_the_in_memory_bytes(tmp_path, monkeypatch, fmt, chunk_rows):
    scenario = load_scenario(DEMO)
    expected = SERIALIZE[fmt](_memory_trace(scenario))
    path = tmp_path / f"trace.{fmt}"
    monkeypatch.setattr(FileSink, "chunk_rows", chunk_rows)
    with FileSink(path, SERIALIZE[fmt]) as sink:
        _, trace = engine.run(scenario, sink=sink)
    assert trace is sink
    assert path.read_text() == expected
    assert len(sink) == len(expected.splitlines()) - (fmt == "csv")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_file_sink_of_an_empty_trace_holds_the_header(tmp_path):
    for fmt, serialize in SERIALIZE.items():
        path = tmp_path / f"trace.{fmt}"
        with FileSink(path, serialize) as sink:
            sink.close()
        assert path.read_text() == serialize([])
        assert len(sink) == 0


def test_file_sink_serializes_each_chunk_through_the_given_function(tmp_path):
    chunks = []

    def serialize(records):
        chunks.append(len(records))
        return trace_to_csv(records)

    scenario = build_scenario(SLOTS_CFG)
    rows = len(_memory_trace(scenario))
    with FileSink(tmp_path / "trace.csv", serialize) as sink:
        engine.run(scenario, sink=sink)
    size = FileSink.chunk_rows
    assert rows > size and chunks == [size] * (rows // size) + [rows % size]
    text = (tmp_path / "trace.csv").read_text()
    assert text.count("time,node_id") == 1


def test_null_sink_counts_rows_and_builds_none(monkeypatch):
    scenario = load_scenario(DEMO)
    memory_metrics, memory = engine.run(scenario)

    def no_voltage(self):
        raise AssertionError("a row was built for a sink that keeps none")

    monkeypatch.setattr(Battery, "terminal_voltage", no_voltage)
    metrics, trace = engine.run(scenario, sink=NullSink())
    assert len(trace) == len(memory)
    assert metrics.to_dict() == memory_metrics.to_dict()


def test_memory_sink_is_the_default_and_holds_dict_rows():
    _, trace = engine.run(load_scenario(DEMO))
    assert isinstance(trace, MemorySink) and isinstance(trace, list)
    assert list(trace[0]) == list(engine.TRACE_FIELDS)
    assert trace[-1]["event_kind"] == "end"


def _raise_on_slot(monkeypatch, after: int, exc_type: type):
    handle = engine.Simulation._handle_slot_boundary
    calls = [0]

    def failing(self, t, node_id):
        calls[0] += 1
        if calls[0] > after:
            raise exc_type("boom")
        return handle(self, t, node_id)

    monkeypatch.setattr(engine.Simulation, "_handle_slot_boundary", failing)


@pytest.mark.parametrize("exc_type", [SimError, RuntimeError])
def test_run_failing_mid_loop_leaves_no_partial_output(tmp_path, monkeypatch, exc_type):
    scenario_path = tmp_path / "slots.json"
    scenario_path.write_text(json.dumps(SLOTS_CFG))
    out = tmp_path / "out"
    out.mkdir()
    old = b"time,node_id\nkept,from an earlier run\n"
    (out / "trace.csv").write_bytes(old)
    _raise_on_slot(monkeypatch, 5000, exc_type)  # after the first chunk went to disk
    argv = ["run", "--scenario", str(scenario_path), "--out", str(out)]
    if exc_type is SimError:
        assert cli.main(argv) == 1
    else:
        with pytest.raises(RuntimeError):
            cli.main(argv)
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
    assert (out / "trace.csv").read_bytes() == old


def test_failed_rename_removes_the_temp_files(tmp_path):
    (tmp_path / "metrics.json").mkdir()  # os.replace cannot put a file there
    with pytest.raises(OSError):
        cli._write_atomic(tmp_path / "metrics.json", "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]

    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    assert cli.main(["run", "--scenario", str(DEMO), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]


def test_sweep_keeps_no_trace_and_matches_run(tmp_path, monkeypatch):
    values = ["1mW", "4mW"]
    lengths = []
    run = cli.run

    def recording_run(*args, **kwargs):
        metrics, trace = run(*args, **kwargs)
        assert isinstance(trace, NullSink)
        lengths.append(len(trace))
        return metrics, trace

    monkeypatch.setattr(cli, "run", recording_run)
    sweep_out = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", str(DEMO), "--param", "transmitters[0].power",
                     "--values", ",".join(values), "--out", str(sweep_out)]) == 0
    monkeypatch.setattr(cli, "run", run)
    cfg = json.loads(DEMO.read_text())
    for i, value in enumerate(values):
        cfg["transmitters"][0]["power"] = value
        scenario_path = tmp_path / f"demo_{i}.json"
        scenario_path.write_text(json.dumps(cfg))
        run_out = tmp_path / f"run_{i}"
        assert cli.main(["run", "--scenario", str(scenario_path),
                         "--out", str(run_out)]) == 0
        assert ((sweep_out / f"metrics_{i}.json").read_bytes()
                == (run_out / "metrics.json").read_bytes())
        rows = len((run_out / "trace.csv").read_text().splitlines()) - 1
        assert lengths[i] == rows
