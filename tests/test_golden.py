"""Golden digests: same-seed runs must reproduce these bytes exactly.

The digests are SHA-256 of trace.csv and metrics.json as the CLI writes
them.  They were computed once and are only ever changed by a change
that says why its traces differ; a refactor that reorders a float sum
shows up here.  The two inline configs cover the power_split and
dual_wavelength policies, which no bundled scenario runs.  Each case is
checked twice: serialized from the in-memory trace, and as `sliptsim
run` streams it to its output directory.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sliptsim.cli import main
from sliptsim.engine import run, trace_to_csv, trace_to_jsonl
from sliptsim.scenario import build_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_BEAM = {
    "wavelength": "450nm", "water": "pure_sea", "beam_waist": "1mm",
    "divergence": "0rad", "distance": "1m", "receiver_radius": "1mm",
}

POWER_SPLIT_CFG = {
    "name": "golden_power_split",
    "duration": "60s",
    "seed": 11,
    "policy": {"kind": "power_split", "alpha": 0.7},
    "transmitters": [
        {"id": "tx0", "power": "1W", **_BEAM, "turbulence": {"sigma2": 0.3},
         "on": "0s", "off": "20s"},
        {"id": "tx1", "power": "0.3W", **_BEAM, "turbulence": 0.1,
         "on": "5s", "off": "40s", "targets": ["n0"]},
    ],
    "nodes": [
        {"id": "n0", "cell": {"sensitivity": "50mW"},
         "store": {"type": "battery", "capacity": "2J", "stored": "1J"},
         "load": "sense_and_save", "sensors": {"enabled": [1], "values": {"1": 4.5}}},
        {"id": "n1", "store": {"type": "supercapacitor", "capacitance": "0.1F",
                               "rated_voltage": "5V", "stored": "0.5J"},
         "load": "sense_and_save"},
    ],
    "stimuli": [
        {"time": "3s", "node": "n0", "stimulus": "light_detected"},
        {"time": "3s", "node": "n0", "stimulus": "light_detected"},
        {"time": "30s", "node": "n1", "stimulus": "full_charge"},
    ],
}

DUAL_WAVELENGTH_CFG = {
    "name": "golden_dual_wavelength",
    "duration": "40s",
    "seed": 12,
    "policy": {"kind": "dual_wavelength"},
    "transmitters": [{
        "id": "tx0",
        "beam_waist": "1mm", "divergence": "0rad",
        "distance": "1m", "receiver_radius": "1mm",
        "turbulence": {"sigma2": 0.2},
        "on": "2s", "off": "25s",
        "dual": {
            "energy": {"power": "1W", "wavelength": "520nm", "water": "pure_sea"},
            "data": {"power": "0.2W", "wavelength": "450nm", "water": "pure_sea",
                     "turbulence": {"sigma2": 0.5}},
        },
    }],
    "nodes": [{
        "id": "n0",
        "cell": {"sensitivity": "30mW"},
        "store": {"type": "battery", "capacity": "3J", "stored": "0.2J"},
        "load": "sense_and_save",
        "commands": [{"op": "send_data"}],
    }],
    "stimuli": [
        {"time": "10s", "node": "n0", "stimulus": "light_detected"},
        {"time": "10s", "node": "n0", "stimulus": "light_detected"},
    ],
}

GOLDEN = {
    "golden_dual_wavelength": (
        "ef2fc73316b92d2862c64895511f8f09440f5274ddd5f1a6d2eb29ffe3c75355",
        "ee6f9d956c6f13b4a27c179bc39c17ef409e4fa2e6dd579182711c04605659da",
    ),
    "golden_power_split": (
        "8e6f672415b77c0c28c747ac2c2674f389d0d4e0a623379f9c91c444a084ec4d",
        "f341ce9fde3fa4f6455dadb141c69254a7ff67f12ccf77e80e6dba4f7918d4ca",
    ),
    "spatial_demo": (
        "edb90ab80d3da0b4ec0206852ad992757bf385e2248e2143ce48df37fa68b345",
        "84dacd1e9867552f8573d95d8b5d9c0d73848d782a22549c58220edba5b4364f",
    ),
    "tank_1m5": (
        "df1ce5b28078fca94f872d77f86d930ad4c63cf3d90deaedba62dd2f64e31739",
        "e7115f7338ba241e3912e7cab3840f15b9c30b8fa56a2ad3dcfff6c3835b5149",
    ),
    "turbulent_demo": (
        "75c982954e95f7ef43f9dfbe489ca6ae59dd16f61c7b11c3a7036a440749818c",
        "08f9b83c7c48410bd2a8895d9612c05bfa10e72461081074632abf40f80eae0f",
    ),
    "vertical_supercap": (
        "7d57a17b23a68800797b285eae4eb18fe9fd1114e1c6f9d3e72309452af413da",
        "8b5940767f85fff47bb8561d3ed9d4fc6c12ce4e03d266f98be3aa58c284a321",
    ),
}


INLINE = {cfg["name"]: cfg for cfg in (POWER_SPLIT_CFG, DUAL_WAVELENGTH_CFG)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenario_path(name: str, tmp_path: Path) -> Path:
    if name not in INLINE:
        return SCENARIOS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INLINE[name]))
    return path


def _scenario(name: str):
    if name in INLINE:
        return build_scenario(INLINE[name])
    return load_scenario(SCENARIOS / f"{name}.json")


def digests(name: str) -> tuple[str, str]:
    """(trace.csv sha256, metrics.json sha256) as `sliptsim run` writes them."""
    metrics, trace = run(_scenario(name))
    metrics_text = json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
    return (_sha256(trace_to_csv(trace).encode("utf-8")),
            _sha256(metrics_text.encode("utf-8")))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_streams_the_golden_bytes(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("SLIPTSIM_OUT", raising=False)
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(_scenario_path(name, tmp_path)),
            "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    trace_digest, metrics_digest = GOLDEN[name]
    if fmt == "csv":
        assert _sha256((out / "trace.csv").read_bytes()) == trace_digest
    else:
        expected = trace_to_jsonl(run(_scenario(name))[1])
        assert (out / "trace.jsonl").read_bytes() == expected.encode("utf-8")
    assert _sha256((out / "metrics.json").read_bytes()) == metrics_digest
    assert sorted(p.name for p in out.iterdir()) == ["metrics.json", f"trace.{fmt}"]
