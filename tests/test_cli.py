import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import sliptsim.cli as cli
from sliptsim.cli import main
from sliptsim.engine import Metrics, NodeMetrics

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEMO = str(SCENARIOS / "turbulent_demo.json")


def test_run_writes_metrics_and_trace(tmp_path, capsys):
    rc = main(["run", "--scenario", DEMO, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario " in out and "harvested" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["seed"] == 7
    assert "buoy" in metrics["nodes"]
    trace = (tmp_path / "trace.csv").read_text()
    assert trace.startswith("time,node_id,event_kind,phase,")
    assert not list(tmp_path.glob(".sliptsim-staging-*"))  # committed: no staging left


def test_run_jsonl_format_and_seed_override(tmp_path):
    rc = main(["run", "--scenario", DEMO, "--out", str(tmp_path),
               "--format", "jsonl", "--seed", "123"])
    assert rc == 0
    assert not (tmp_path / "trace.csv").exists()
    rows = [json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert rows and rows[-1]["event_kind"] == "end"
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["seed"] == 123


def test_run_without_out_prints_only(tmp_path, capsys):
    rc = main(["run", "--scenario", DEMO])
    assert rc == 0
    assert "harvested" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_only_out_names_the_output_directory(tmp_path, monkeypatch, capsys):
    # without --out nothing is written, whatever the environment holds
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLIPTSIM_OUT", str(tmp_path / "env"))
    assert main(["run", "--scenario", DEMO]) == 0
    assert main(["sweep", "--scenario", DEMO, "--param", "transmitters[0].power",
                 "--values", "1W"]) == 0
    assert "harvested" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


_LOCALE_PROBE = "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding(False)).name)"


def test_an_ascii_locale_reads_and_writes_the_same_utf8_bytes(tmp_path):
    """Under LC_ALL=C with UTF-8 mode off the locale encoding is ASCII; the
    README's µs, µW and ° units, a node id and a sweep value outside ASCII
    still read and write as UTF-8, byte for byte, with no traceback."""
    cfg = json.loads((SCENARIOS / "vertical_supercap.json").read_text(encoding="utf-8"))
    cfg["duration"] = "60s"
    cfg["transmitters"][0].update(power="1569130.7µW", divergence="30°")
    cfg["nodes"][0]["id"] = "capteur_é"
    cfg["nodes"][0]["cell"]["switch_latency"] = "5000µs"
    scenario = tmp_path / "utf8.json"
    scenario.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
    ascii_env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
    probe = subprocess.run([sys.executable, "-c", _LOCALE_PROBE], env=ascii_env,
                           capture_output=True, text=True)
    assert probe.stdout.strip() == "ascii"
    written = {}
    for name, env in (("ascii", ascii_env), ("utf8", {**os.environ, "PYTHONUTF8": "1"})):
        out = tmp_path / name
        for argv in (["validate"], ["run"], ["run", "--out", str(out / "run")],
                     ["sweep", "--out", str(out / "sweep"), "--param", "nodes[0].id",
                      "--values", "nœud,capteur_é"]):
            proc = subprocess.run([sys.executable, "-m", "sliptsim.cli", *argv,
                                   "--scenario", str(scenario)], env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b""), argv
        written[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.*")}
    assert len(written["ascii"]) == 5  # trace.csv, 3 metrics files and sweep.csv
    assert written["ascii"] == written["utf8"]


def test_sweep_refuses_values_that_are_not_utf8(capsys):
    # a C locale hands a byte it cannot decode (0xe9, a Latin-1 é) to argv
    # as the surrogate escape \udce9
    assert main(["sweep", "--scenario", DEMO, "--param", "transmitters[0].power",
                 "--values", "1W,\udce9"]) == 1
    assert "error: --values: not UTF-8 text" in capsys.readouterr().err


def test_missing_scenario_file_is_a_clean_failure(tmp_path, capsys):
    # main() prints a read error the same way for every command
    missing = str(tmp_path / "nope.json")
    errs = []
    for command in ("run", "validate"):
        assert main([command, "--scenario", missing]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: {missing}: cannot read scenario file: ")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["run"])  # --scenario is required
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["run", "--scenario", DEMO, "--format", "xml"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["explode"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["run", "--scenario", DEMO, "--validate-only"])  # `validate` checks a file
    assert e.value.code == 2


def test_only_run_takes_format(tmp_path, capsys):
    # sweep writes no trace, so a trace format is a usage error there
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--scenario", DEMO, "--param", "seed", "--values", "7",
              "--format", "jsonl"])
    assert e.value.code == 2
    assert "--format" in capsys.readouterr().err
    for fmt in ("csv", "jsonl"):
        out = tmp_path / fmt
        assert main(["run", "--scenario", DEMO, "--out", str(out), "--format", fmt]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["metrics.json", f"trace.{fmt}"]


def test_run_and_sweep_write_the_same_metrics_file(tmp_path):
    # turbulent_demo's own seed is 7: the one-value sweep runs the file as it is
    assert main(["run", "--scenario", DEMO, "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--scenario", DEMO, "--out", str(tmp_path / "sweep"),
                 "--param", "seed", "--values", "7"]) == 0
    assert ((tmp_path / "sweep" / "metrics_0.json").read_bytes()
            == (tmp_path / "run" / "metrics.json").read_bytes())


def test_validate_good_and_bad(tmp_path, capsys):
    assert main(["validate", "--scenario", DEMO]) == 0
    assert "scenario is valid" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    cfg = json.loads(Path(DEMO).read_text())
    cfg["transmitters"][0]["power"] = "5kg"
    cfg["nodes"][0]["store"]["capacty"] = "1J"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "2 issue(s) found" in err
    assert "transmitters[0].power" in err


def test_sweep_table_and_files(tmp_path, capsys):
    rc = main(["sweep", "--scenario", DEMO, "--out", str(tmp_path),
               "--param", "transmitters[0].power", "--values", "1mW,2mW,4mW"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("value,harvested_J,decoded_bits\n")
    table = (tmp_path / "sweep.csv").read_text()
    lines = table.strip().splitlines()
    assert len(lines) == 4
    harvested = [float(line.split(",")[1]) for line in lines[1:]]
    assert harvested[0] < harvested[1] < harvested[2]
    for i in range(3):
        per_run = json.loads((tmp_path / f"metrics_{i}.json").read_text())
        assert per_run["nodes"]["buoy"]["harvested_J"] == pytest.approx(harvested[i])
    assert not list(tmp_path.glob(".sliptsim-staging-*"))


@pytest.mark.parametrize("name, param, values", [
    ("turbulent_demo", "transmitters[0].power", "1mW,2mW,4mW"),
    ("protocol_demo", "nodes[1].store.stored", "0.1J,0.3J,0.45J"),
])
def test_sweep_equals_one_fresh_config_per_value(name, param, values, tmp_path):
    scenario = str(SCENARIOS / f"{name}.json")
    assert main(["sweep", "--scenario", scenario, "--out", str(tmp_path / "all"),
                 "--param", param, "--values", values]) == 0
    rows = ["value,harvested_J,decoded_bits\n"]
    for i, value in enumerate(values.split(",")):
        # a one-value sweep reads its config fresh from the file
        one = tmp_path / f"one_{i}"
        assert main(["sweep", "--scenario", scenario, "--out", str(one),
                     "--param", param, "--values", value]) == 0
        assert ((tmp_path / "all" / f"metrics_{i}.json").read_bytes()
                == (one / "metrics_0.json").read_bytes())
        rows += (one / "sweep.csv").read_text().splitlines(keepends=True)[1:]
    assert (tmp_path / "all" / "sweep.csv").read_text() == "".join(rows)


def test_sweep_holds_one_values_scenario_at_a_time(monkeypatch, capsys, tmp_path):
    built, ran = [], []  # a weak reference to each value's scenario and metrics
    build, run = cli.build_scenario, cli.run

    def tracking_build(cfg):
        assert [ref() for ref in built + ran] == [None] * (len(built) + len(ran)), (
            f"value {len(built) - 1}'s scenario or metrics is alive "
            f"while value {len(built)} builds")
        scenario = build(cfg)
        built.append(weakref.ref(scenario))
        return scenario

    def tracking_run(*args, **kwargs):
        metrics, sink = run(*args, **kwargs)
        ran.append(weakref.ref(metrics))
        return metrics, sink

    monkeypatch.setattr(cli, "build_scenario", tracking_build)
    monkeypatch.setattr(cli, "run", tracking_run)
    assert main(["sweep", "--scenario", DEMO, "--param", "transmitters[0].power",
                 "--values", "1mW,2mW,4mW", "--out", str(tmp_path)]) == 0
    assert len(built) == len(ran) == 3 and len(capsys.readouterr().out.splitlines()) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics_0.json", "metrics_1.json", "metrics_2.json", "sweep.csv"]


def test_sweep_rejects_bad_param_paths(capsys):
    rc = main(["sweep", "--scenario", DEMO,
               "--param", "transmitters[9].power", "--values", "1W"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["sweep", "--scenario", DEMO, "--param", "transmitters[0].power",
               "--values", ""])
    assert rc == 1
    capsys.readouterr()
    # an empty path cannot name itself, so the error names the option
    assert main(["sweep", "--scenario", DEMO, "--param", "", "--values", "1"]) == 1
    assert capsys.readouterr().err == "error: --param: empty parameter path\n"


@pytest.mark.parametrize("param, message", [
    ("nodes[0][3]", "cannot take 3 from dict"),
    ("[0]", "cannot take 0 from dict"),
    ("nodes[0].cell[0]", "cannot take 0 from dict"),
    ("nodes.id", "cannot take 'id' from list"),
], ids=["index_into_a_node", "index_into_the_scenario", "index_into_a_cell", "name_on_a_list"])
def test_sweep_param_indexes_only_lists_and_keys_only_objects(capsys, param, message):
    # an index into an object once stored an int key, which died in the
    # key check with a TypeError
    rc = main(["sweep", "--scenario", DEMO, "--param", param, "--values", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {param}: {message}" in err
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sliptsim.cli", "validate", "--scenario", DEMO],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "scenario is valid" in proc.stdout


TANK = str(SCENARIOS / "tank_1m5.json")

# runs main() in a fresh interpreter, then reports whether numpy got imported
_IMPORT_PROBE = """
import sys
from sliptsim.cli import main
rc = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(rc)
"""


@pytest.mark.parametrize("command, scenario", [
    ("validate", TANK),
    ("run", TANK),
    ("run", DEMO),  # fades come from random.Random, not numpy
], ids=["validate-calm", "run-calm", "run-turbulent"])
def test_no_command_imports_numpy(tmp_path, command, scenario):
    argv = [command, "--scenario", scenario]
    if command == "run":
        argv += ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


def _variant(tmp_path, base: str, edit) -> str:
    cfg = json.loads(Path(base).read_text())
    edit(cfg)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))  # a float nan or inf is written as NaN / Infinity
    return str(path)


@pytest.mark.parametrize("scenario", [TANK, DEMO], ids=["calm", "turbulent"])
def test_negative_seed_exits_1_with_its_path(tmp_path, capsys, scenario):
    assert main(["run", "--scenario", scenario, "--seed", "-1"]) == 1
    assert "error: engine.seed: must be >= 0" in capsys.readouterr().err
    bad = _variant(tmp_path, scenario, lambda cfg: cfg.update(seed=-3))
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad]):
        assert main(argv) == 1
        assert "scenario.seed: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg["transmitters"][0].update(power=float("nan")),
     "transmitters[0].power: expected a finite power quantity"),
    (lambda cfg: cfg.update(duration=float("inf")),
     "scenario.duration: expected a finite time quantity"),
], ids=["nan_power", "infinite_duration"])
def test_non_finite_literals_fail_validate_and_run(tmp_path, capsys, edit, message):
    # the same message as the same value given to sweep --values
    bad = _variant(tmp_path, DEMO, edit)
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad],
                 ["sweep", "--scenario", bad, "--param", "seed", "--values", "1,2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_validate_lists_a_nan_literal_with_the_other_issues(tmp_path, capsys):
    def edit(cfg):
        cfg["transmitters"][0]["power"] = float("nan")
        cfg["seed"] = -3

    bad = _variant(tmp_path, DEMO, edit)
    assert main(["validate", "--scenario", bad]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scenario.seed: must be >= 0, got -3",
        "transmitters[0].power: expected a finite power quantity",
        "2 issue(s) found",
    ]


def test_a_scenario_that_is_not_an_object_exits_1(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    for argv in (["validate", "--scenario", str(bad)], ["run", "--scenario", str(bad)],
                 ["sweep", "--scenario", str(bad), "--param", "transmitters[0].power",
                  "--values", "1mW"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err


def test_sweep_rejects_a_nan_value_at_its_path(capsys):
    rc = main(["sweep", "--scenario", DEMO, "--param", "transmitters[0].power",
               "--values", "1mW,NaN"])
    assert rc == 1
    assert "transmitters[0].power: expected a finite power quantity" in capsys.readouterr().err


@pytest.mark.parametrize("policy_path", ["policy", "nodes[0].policy"])
def test_negative_phase_offset_exits_1_with_its_path(tmp_path, capsys, policy_path):
    def edit(cfg):
        policy = {"kind": "time_switch", "t1": "0.5s", "t2": "0.5s", "phase_offset": "-1000s"}
        if policy_path == "policy":
            cfg["policy"] = policy
        else:
            cfg["nodes"][0]["policy"] = policy

    bad = _variant(tmp_path, DEMO, edit)
    for argv in (["validate", "--scenario", bad],
                 ["run", "--scenario", bad, "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        prefix = "scenario." if policy_path == "policy" else ""
        assert f"{prefix}{policy_path}.phase_offset: must be >= 0" in err
        assert "Traceback" not in err


def _wake_buoy_at(time):
    def edit(cfg):
        cfg["nodes"][0]["policy"] = {"kind": "protocol"}  # a stimulus needs a protocol node
        cfg["stimuli"] = [{"time": time, "node": "buoy", "stimulus": "light_detected"}]

    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg["transmitters"][0].update(on="-2s"), "transmitters[0].on: must be >= 0"),
    (_wake_buoy_at("-1s"), "stimuli[0].time: must be >= 0"),
    (_wake_buoy_at("61s"), "stimuli[0].time: must be <= duration (60.0 s)"),
], ids=["tx_on_negative", "stimulus_negative", "stimulus_after_duration"])
def test_event_times_outside_the_run_exit_1_with_their_path(tmp_path, capsys, edit, message):
    # before the check, a -1 s stimulus wrote rows at t = -1.0 and 61 s of
    # phase occupancy over a 60 s run
    bad = _variant(tmp_path, DEMO, edit)
    out = tmp_path / "out"
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad, "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def _drop_beam_width(tx):
    del tx["beam_waist"], tx["divergence"]  # both default to 0


@pytest.mark.parametrize("edit, where", [
    (lambda cfg: _drop_beam_width(cfg["transmitters"][0]), "transmitters[0]"),
    (lambda cfg: cfg["transmitters"][0].update(beam_waist="0m", divergence="0rad"),
     "transmitters[0]"),
    (lambda cfg: (cfg["transmitters"][0].pop("beam_waist"),
                  cfg["transmitters"][0].update(distances={"node0": "0m"})),
     "transmitters[0].distances.node0"),
], ids=["defaults", "zero_waist_and_divergence", "zero_distance_override"])
def test_zero_width_beam_exits_1_with_its_path(tmp_path, capsys, edit, where):
    # before the check, validate passed these and run failed with a message
    # that named no path
    bad = _variant(tmp_path, TANK, edit)
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{where}: zero-width beam: its radius at the receiver is zero" in err
        assert "Traceback" not in err


def test_negative_distance_override_exits_1_with_its_path(tmp_path, capsys):
    bad = _variant(tmp_path, TANK,
                   lambda cfg: cfg["transmitters"][0].update(distances={"node0": "-1m"}))
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad]):
        assert main(argv) == 1
        assert ("transmitters[0].distances.node0: distance must be >= 0"
                in capsys.readouterr().err)


def test_null_uplink_takes_the_defaults(tmp_path):
    ok = _variant(tmp_path, TANK, lambda cfg: cfg["nodes"][0].update(uplink=None))
    assert main(["validate", "--scenario", ok]) == 0


def _make_dual(tx):
    beam = {"wavelength": "450nm", "water": tx.pop("water")}
    tx["dual"] = {"energy": {**beam, "power": "5W", "wavelength": "520nm"},
                  "data": {**beam, "power": "1mW"}}
    del tx["power"], tx["wavelength"]


@pytest.mark.parametrize("base, edit, message", [
    (TANK, lambda cfg: cfg["transmitters"][0].update(distances=["node0"]),
     "transmitters[0].distances: expected an object of node id -> distance"),
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(values=[1]),
     "nodes[0].sensors.values: expected an object of sensor id -> value"),
    (TANK, lambda cfg: cfg["transmitters"][0].update(divergence="100deg"),
     "transmitters[0]: half_angle_divergence must be < 90 deg"),
    (TANK, lambda cfg: cfg["transmitters"][0].update(divergence="90deg"),
     "transmitters[0]: half_angle_divergence must be < 90 deg"),
    (TANK, lambda cfg: cfg["nodes"][0]["cell"].update(decode_rate=0),
     "nodes[0].cell: decode_rate must be > 0"),
    (TANK, lambda cfg: cfg["nodes"][0].update(uplink={"rate": 0}),
     "nodes[0].uplink.rate: must be > 0"),
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(seconds_per_sensor="-5s"),
     "nodes[0].sensors.seconds_per_sensor: must be >= 0"),
    (str(SCENARIOS / "spatial_demo.json"), lambda cfg: _make_dual(cfg["transmitters"][2]),
     "transmitters[2].dual: spatial assignment aims one beam per transmitter"),
    (TANK, lambda cfg: cfg["nodes"][0].update(active_load="soc_mcu_3mhz"),
     "nodes[0]: unknown key(s) active_load"),  # "load" is the one key for it
    *[(TANK, lambda cfg, v=value: cfg["nodes"][0].update(uplink=v),
       f"nodes[0].uplink: expected an object, got {got}")
      for value, got in (([], "list"), (0, "int"), (False, "bool"), ("", "str"))],
    (DEMO, lambda cfg: cfg.update(stimuli=[{"time": "3s", "node": "buoy",
                                            "stimulus": "light_detected"}]),
     "stimuli[0].node: a stimulus drives the protocol state machine, "
     "which node 'buoy' does not run"),
    (DEMO, lambda cfg: cfg["nodes"][0].update(commands=[{"op": "send_data"}]),
     "nodes[0].commands: commands are used only in the protocol's CommandRx phase, "
     "which node 'buoy' does not run"),
    (DEMO, lambda cfg: cfg["nodes"][0].update(sensors={"enabled": [1]}),
     "nodes[0].sensors: sensors are used only in the protocol's SenseSave phase, "
     "which node 'buoy' does not run"),
    (DEMO, lambda cfg: cfg["nodes"][0].update(policy={"kind": "power_split", "alpha": 1.5}),
     "nodes[0].policy.alpha: must be in [0, 1], got 1.5"),
    (DEMO, lambda cfg: cfg.update(policy={"kind": "power_split", "alpha": -0.5}),
     "scenario.policy.alpha: must be in [0, 1], got -0.5"),
    (DEMO, lambda cfg: cfg["transmitters"][0].update(targets=["buoy", "buoy"]),
     "transmitters[0].targets: duplicate node ids"),
    (str(SCENARIOS / "spatial_demo.json"),
     lambda cfg: [tx.update(targets=["rx2"]) for tx in cfg["transmitters"]],
     "transmitters[0].targets: spatial assignment chooses each transmitter's node"),
    (str(SCENARIOS / "protocol_demo.json"),
     lambda cfg: cfg["transmitters"][0].update(targets=["near"]),
     "transmitters[0].distances.far: not one of the transmitter's targets"),
    (DEMO, lambda cfg: cfg["transmitters"][0]["turbulence"].update(stream=""),
     "transmitters[0].turbulence.stream: expected a non-empty string"),
    (DEMO, lambda cfg: cfg["transmitters"][0]["turbulence"].pop("sigma2"),
     "transmitters[0].turbulence.sigma2: missing"),
    (DEMO, lambda cfg: cfg["transmitters"][0]["turbulence"].update(sigma2="0.25"),
     "transmitters[0].turbulence.sigma2: scintillation index must be a finite number"),
    (TANK, lambda cfg: cfg.update(policy={"kind": []}),
     "scenario.policy.kind: unknown policy kind []"),
    (TANK, lambda cfg: cfg["nodes"][0].update(policy={"kind": {}}),
     "nodes[0].policy.kind: unknown policy kind {}"),
    (TANK, lambda cfg: cfg["nodes"][0]["commands"][1].update(op=["send_data"]),
     "nodes[0].commands[1].op: unknown op ['send_data']"),
    (str(SCENARIOS / "protocol_demo.json"),
     lambda cfg: [n.update(uplink={"record_bits": 10**400}) for n in cfg["nodes"]],
     "nodes[0].uplink.record_bits: expected an integer in [1, 2**53]"),
    (str(SCENARIOS / "protocol_demo.json"),
     lambda cfg: [(n.update(uplink={"record_bits": 2**1023}),
                   n["sensors"].update(enabled=[1, 2])) for n in cfg["nodes"]],
     "nodes[0].uplink.record_bits: expected an integer in [1, 2**53]"),
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(values={"1": 12.5, "01": 99.0}),
     'nodes[0].sensors.values.01: sensor ids must be integers in decimal, as in "1"'),
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(values={"1_0": 12.5}),
     'nodes[0].sensors.values.1_0: sensor ids must be integers in decimal, as in "1"'),
    *[(TANK, lambda cfg, v=enabled: cfg["nodes"][0]["sensors"].update(enabled=v),
       "nodes[0].sensors.enabled: expected a list of integer sensor ids in [0, 255]")
      for enabled in ([300, 1, 1], [-1], [256])],
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(enabled=[1, 1]),
     "nodes[0].sensors.enabled: duplicate sensor ids"),
    (TANK, lambda cfg: cfg["nodes"][0]["sensors"].update(values={"1": 21.5, "7": 3.0}),
     "nodes[0].sensors.values.7: neither enabled nor switched on by a command"),
    *[(DEMO, lambda cfg, k=key, v=value: cfg["nodes"][0].update({k: v}),
       f"nodes[0].{key}: {use}, which node 'buoy' does not run")
      for key, value, use in (
          ("v_threshold", "3.6V", "v_threshold is used only in the protocol's wake check"),
          ("sleep_load", "sleep",
           "sleep_load is used only in the protocol's Sleep and Harvest phases"),
          ("uplink", {}, "uplink is used only in the protocol's CommandRx phase"),
          ("data_demand", True, "data_demand is used only in spatial assignment"))],
    (TANK, lambda cfg: cfg["nodes"][0].update(data_demand=False),
     "nodes[0].data_demand: data_demand is used only in spatial assignment, "
     "which node 'node0' does not run"),
    (DEMO, lambda cfg: (cfg["transmitters"][0].update(on="50s"),
                        cfg["nodes"][0]["cell"].update(sensitivity="0W")),
     "nodes[0].cell: sensitivity must be > 0"),
    *[(DEMO, lambda cfg, v=node_id: cfg["nodes"][0].update(id=v),
       "nodes[0].id: must hold no ',', '\"', CR or LF: the CSV trace writes ids unquoted")
      for node_id in ("buoy,1", 'buoy"1', "buoy\r", "buoy\n1")],
    (DEMO, lambda cfg: cfg["nodes"][0].update(id="n\ud800"),
     "nodes[0].id: must be text UTF-8 can encode: the trace is written in UTF-8"),
    *[(TANK, lambda cfg, v=volts: cfg["nodes"][0]["store"].update(zip(("v_empty", "v_full"), v)),
       "nodes[0].store: v_empty must be >= 0")
      for volts in (("-3V",), ("-1e308V", "1e308V"))],
], ids=["distances_list", "values_list", "divergence_100deg", "divergence_90deg",
        "zero_decode_rate", "zero_uplink_rate", "negative_sensing_time", "dual_under_spatial",
        "active_load_key", "uplink_list", "uplink_0", "uplink_false", "uplink_empty_string",
        "stimulus_on_time_switch_node", "commands_on_time_switch_node",
        "sensors_on_time_switch_node", "alpha_above_1_on_a_node", "alpha_below_0_on_the_scenario",
        "repeated_target", "targets_under_spatial", "distance_for_an_untargeted_node",
        "empty_stream", "missing_sigma2", "string_sigma2", "list_kind", "object_kind_on_a_node",
        "list_op", "record_bits_past_the_float_range", "record_bits_past_2_53_in_a_batch",
        "zero_padded_sensor_id", "underscored_sensor_id", "enabled_sensor_300_and_repeat",
        "enabled_sensor_below_0", "enabled_sensor_256", "repeated_enabled_sensor",
        "value_for_a_sensor_nothing_reads", "v_threshold_on_time_switch_node",
        "sleep_load_on_time_switch_node", "uplink_on_time_switch_node",
        "data_demand_on_time_switch_node", "data_demand_on_protocol_node",
        "zero_sensitivity", "comma_in_node_id", "quote_in_node_id", "cr_in_node_id",
        "lf_in_node_id", "lone_surrogate_in_node_id", "negative_v_empty",
        "v_full_minus_v_empty_overflows"])
def test_unrunnable_scenario_exits_1_with_its_path(tmp_path, capsys, base, edit, message):
    # before these checks, the list edits died with a traceback; the others
    # validated (a falsy uplink was taken as the defaults), and a run divided
    # by the zero rate once it timed a frame or an uplink, or ran on a
    # negative beam radius, at negative event times, with the energy beam
    # carrying data, or with a time_switch node walked through protocol phases;
    # commands and sensors on a time_switch node validated and were never used;
    # an out-of-range alpha was reported at "policy.alpha", a path in no file;
    # a repeated target built its link twice, and targets under spatial were
    # ignored, as was a distance for a node the transmitter does not target;
    # an empty stream name silently meant the default stream, and a missing
    # or non-numeric sigma2 was reported at the turbulence object; a list or
    # object kind or op died hashing it; a record_bits whose uplink time
    # overflows a float died timing the uplink; "01" and "1_0" validated as
    # sensors 1 and 10, the first overwriting sensor 1's own value; a sensor
    # id no command byte can name, a repeated one, a value for a sensor the
    # node never reads and a key the node's policy never reads all validated;
    # a 0 W sensitivity validated and decoded in the dark, a node id with
    # a comma, quote or line break validated and broke the CSV trace's rows,
    # and one with a lone surrogate validated and could not be written; a
    # negative v_empty validated and wrote negative voltages, or NaN and inf
    # where v_full - v_empty overflowed
    bad = _variant(tmp_path, base, edit)
    for argv in (["validate", "--scenario", bad], ["run", "--scenario", bad]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("base, edit, message", [
    (TANK, lambda cfg: cfg["transmitters"][0].update(power="1e308W", distance="0m"),
     "nodes[0]: spilled_J is inf"),
    (DEMO, lambda cfg: cfg["nodes"][0]["cell"].update(decode_rate="1e308bit/s"),
     "nodes[0]: decoded_bits is inf"),
], ids=["spilled_energy", "decoded_bits"])
def test_a_run_whose_totals_overflow_exits_1_and_writes_nothing(tmp_path, capsys, base, edit,
                                                                 message):
    # every field is finite, so both validate; only the run's totals overflow
    bad = _variant(tmp_path, base, edit)
    assert main(["validate", "--scenario", bad]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", bad, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run_overflows", "sweep_value_fails_to_build",
                                     "staging_mkdir_fails"])
def test_a_failed_command_removes_the_out_directories_it_made(tmp_path, monkeypatch, capsys,
                                                             command):
    argv = ["run", "--scenario", _variant(tmp_path, TANK, _tank_overflowing)]
    message = "nodes[0]: spilled_J is inf"
    if command == "sweep_value_fails_to_build":
        argv = ["sweep", "--scenario", _variant(tmp_path, TANK, _tank_at_0m_for_60s),
                "--param", "transmitters[0].power", "--values", "1W,5kg"]
        message = "transmitters[0].power: unit 'kg' is not a power unit"
    elif command == "staging_mkdir_fails":
        mkdir = Path.mkdir

        def failing_mkdir(self, *args, **kwargs):
            if self.name.startswith(".sliptsim-staging-"):
                raise OSError(28, "No space left on device", str(self))
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", failing_mkdir)
        message = "No space left on device"
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "nx/a/b"]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "nx").exists()


def _snapshot(root: Path) -> dict:
    """Every path under root, with a file's bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _tank_at_0m_for_60s(cfg):
    cfg["transmitters"][0]["distance"] = "0m"
    cfg["duration"] = "60s"


def _tank_overflowing(cfg):
    _tank_at_0m_for_60s(cfg)
    cfg["transmitters"][0]["power"] = "1e308W"


def test_a_sweep_that_fails_leaves_out_as_it_found_it(tmp_path, capsys):
    bad = _variant(tmp_path, TANK, _tank_at_0m_for_60s)
    out = tmp_path / "sw"
    sweep = ["sweep", "--scenario", bad, "--param", "transmitters[0].power", "--out", str(out)]
    assert main(sweep + ["--values", "2W,3W,4W"]) == 0
    (out / "notes.txt").write_text("not the sweep's\n")
    before = _snapshot(out)
    # the first value runs, the second overflows: no metrics_0.json of this sweep is left
    assert main(sweep + ["--values", "1W,1e308W"]) == 1
    assert "error: nodes[0]: spilled_J is inf" in capsys.readouterr().err
    assert _snapshot(out) == before
    # a sweep that succeeds leaves only its own metrics_<i>.json files
    assert main(sweep + ["--values", "2W"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["metrics_0.json", "notes.txt", "sweep.csv"]
    assert (out / "metrics_0.json").read_bytes() == before["metrics_0.json"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_empty_out_is_refused_and_the_working_directory_kept(tmp_path, monkeypatch, capsys,
                                                               command):
    # Path("") is the working directory: a run wrote its files there, and a
    # sweep removed that directory's own metrics_<i>.json
    argv = [command, "--scenario", _variant(tmp_path, TANK, _tank_at_0m_for_60s), "--out", ""]
    if command == "sweep":
        argv += ["--param", "transmitters[0].power", "--values", "2W"]
    wd = tmp_path / "wd"
    wd.mkdir()
    (wd / "metrics_7.json").write_text("{}\n")
    (wd / "trace.csv").write_text("not this run's\n")
    before = _snapshot(wd)
    monkeypatch.chdir(wd)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --out: empty path\n")
    assert _snapshot(wd) == before


def test_a_run_writes_metrics_json_without_holding_its_text(tmp_path, monkeypatch, capsys):
    # 16,000 charge completions, each written with 16 or 17 digits
    metrics = Metrics(seed=1, scenario_hash="0" * 64)
    metrics.nodes["n0"] = NodeMetrics(0.5)
    metrics.nodes["n0"].charge_completions = [i * math.pi for i in range(1, 16_001)]
    held = []

    def run_returning(scenario, seed_override=None, sink=None):
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return metrics, None

    monkeypatch.setattr(cli, "run", run_returning)
    tracemalloc.start()
    try:
        assert main(["run", "--scenario", TANK, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "metrics.json").stat().st_size
    assert json.loads((tmp_path / "metrics.json").read_text()) == metrics.to_dict()
    # json.dumps held the whole text and every piece of it, several times its size
    assert peak < size / 2, (peak, size)
    capsys.readouterr()


@pytest.mark.parametrize("failure", ["write_raises", "target_is_a_directory"])
def test_a_run_whose_metrics_write_fails_leaves_out_as_it_found_it(tmp_path, monkeypatch,
                                                                   capsys, failure):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace.csv").write_text("time,node_id\nkept,from an earlier run\n")
    if failure == "target_is_a_directory":
        (out / "metrics.json").mkdir()
    else:
        (out / "metrics.json").write_text("{}\n")
        dump = json.dump

        def failing_dump(obj, fp, *args, **kwargs):
            # the staged metrics.json fills the disk part way through its stream
            if Path(fp.name).name == "metrics.json":
                fp.write("{\n")
                raise OSError(28, "No space left on device", fp.name)
            return dump(obj, fp, *args, **kwargs)

        monkeypatch.setattr(json, "dump", failing_dump)
    before = _snapshot(out)
    assert main(["run", "--scenario", DEMO, "--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert _snapshot(out) == before
