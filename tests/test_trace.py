"""Trace sinks: streamed files match the in-memory trace byte for byte,
`sweep` keeps no trace, and a failed run leaves no partial file.  CSV
rows follow one rule, kept here as the reference: floats as repr, which
round-trips exactly, everything else as str; a JSON line is json.dumps of
the row's field dict."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliptsim.cli as cli
import sliptsim.engine as engine
from sliptsim.energy_store import Battery
from sliptsim.errors import SimError
from sliptsim.scenario import build_scenario, load_scenario
from sliptsim.trace import (CSV_HEADER, TRACE_FIELDS, FileSink, MemorySink, NullSink, TraceRow,
                            trace_to_csv, trace_to_jsonl)

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


def _csv_row(values) -> str:
    """One CSV line by the reference rule."""
    return ",".join([repr(v) if isinstance(v, float) else str(v) for v in values]) + "\n"


_NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e22, 0.1 + 0.2, 1.0, 3.0, -2.0, 2.0 ** 53]),
    st.floats(),
    st.integers(),
    st.booleans(),
)
# values that compare equal to another one here but print differently
_LOOKALIKES = [0.0, -0.0, 0, False, True, 1, 1.0, 2, 2.0, 2 ** 53, 2.0 ** 53,
               math.nan, math.inf, -math.inf]


def _equal_to(value):
    """value itself, or one that compares equal to it but prints differently."""
    return st.sampled_from([value] + [v for v in _LOOKALIKES if v == value])


@st.composite
def _rows(draw):
    """Up to 8 rows whose numeric columns often hold the value of the row
    above or of an earlier row, or one equal to it that prints differently
    (-0.0 for 0.0, 1 or True for 1.0), so that reusing the text made for an
    earlier value is put to the test."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(_NUMBERS), draw(st.text()), draw(st.text()), draw(st.text())]
        for col in range(4, 8):
            earlier = [r[col] for r in rows]
            choices = [_NUMBERS]
            if earlier:
                choices += [_equal_to(earlier[-1]), st.sampled_from(earlier).flatmap(_equal_to)]
            row.append(draw(st.one_of(choices)))
        rows.append(tuple(row))
    return rows


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_csv_rows_follow_the_reference_rule(rows):
    expected = CSV_HEADER + "".join([_csv_row(row) for row in rows])
    assert trace_to_csv(rows) == expected


@settings(max_examples=200, deadline=None)
@given(_rows())
def test_jsonl_rows_follow_the_reference_rule(rows):
    expected = "".join([json.dumps(dict(zip(TRACE_FIELDS, row)), separators=(",", ":")) + "\n"
                        for row in rows])
    assert trace_to_jsonl(rows) == expected


def _memory_trace(scenario):
    return engine.Simulation(scenario).run()[1]


@pytest.mark.parametrize("fmt", sorted(SERIALIZE))
@pytest.mark.parametrize("chunk_rows", [1, 5, FileSink.chunk_rows])
def test_file_sink_writes_the_in_memory_bytes(tmp_path, monkeypatch, fmt, chunk_rows):
    scenario = load_scenario(DEMO)
    expected = SERIALIZE[fmt](_memory_trace(scenario))
    path = tmp_path / f"trace.{fmt}"
    monkeypatch.setattr(FileSink, "chunk_rows", chunk_rows)
    with FileSink(path, SERIALIZE[fmt]) as sink:
        _, trace = engine.Simulation(scenario, sink=sink).run()
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


def test_file_sink_closed_by_its_with_block_flushes_and_closes_the_file(tmp_path):
    # rows written by hand, no engine and no close(): leaving the block closes the sink
    rows = [(0.0, "n0", "start", "sleep", 0.5, 3.7, 0.0, 0.0),
            (1.5, "n0", "end", "harvest", 0.75, 3.8, 0.25, 1e3)]
    for fmt, serialize in SERIALIZE.items():
        path = tmp_path / f"trace.{fmt}"
        with FileSink(path, serialize) as sink:
            for row in rows:
                sink.write(*row)
        assert sink._file.closed
        assert path.read_text() == serialize(rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv", "trace.jsonl"]


def test_a_failed_block_closes_the_file(tmp_path):
    # the file is written in place: a failed block closes it, flushing no
    # chunk, and leaves it for the caller (the CLI's staging directory) to remove
    path = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError):
        with FileSink(path, trace_to_csv) as sink:
            sink.write(0.0, "n0", "start", "sleep", 0.5, 3.7, 0.0, 0.0)
            raise RuntimeError("the run failed")
    assert sink._file.closed
    assert path.read_bytes() == b""


def test_file_sink_serializes_each_chunk_through_the_given_function(tmp_path):
    chunks = []

    def serialize(records):
        chunks.append(len(records))
        return trace_to_csv(records)

    scenario = build_scenario(SLOTS_CFG)
    rows = len(_memory_trace(scenario))
    with FileSink(tmp_path / "trace.csv", serialize) as sink:
        engine.Simulation(scenario, sink=sink).run()
    size = FileSink.chunk_rows
    assert rows > size and chunks == [size] * (rows // size) + [rows % size]
    text = (tmp_path / "trace.csv").read_text()
    assert text.count("time,node_id") == 1


def test_null_sink_counts_rows_and_builds_none(monkeypatch):
    scenario = load_scenario(DEMO)
    memory_metrics, memory = engine.Simulation(scenario).run()

    def no_voltage(self):
        raise AssertionError("a row was built for a sink that keeps none")

    monkeypatch.setattr(Battery, "terminal_voltage", no_voltage)
    metrics, trace = engine.Simulation(scenario, sink=NullSink()).run()
    assert len(trace) == len(memory)
    assert metrics.to_dict() == memory_metrics.to_dict()


def test_memory_sink_is_the_default_and_holds_trace_rows():
    _, trace = engine.Simulation(load_scenario(DEMO)).run()
    assert isinstance(trace, MemorySink) and isinstance(trace, list)
    assert all(type(row) is TraceRow for row in trace)
    assert trace[0]._fields == TRACE_FIELDS
    assert trace[-1].event_kind == "end"


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
    (tmp_path / "sweep.csv").write_text("old\n")
    with pytest.raises(OSError):
        with cli._Staging(tmp_path) as staging:
            staging.write("sweep.csv", "new\n")
            staging.write("metrics.json", "{}\n")
            staging.commit()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json", "sweep.csv"]
    assert (tmp_path / "sweep.csv").read_text() == "old\n"

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
