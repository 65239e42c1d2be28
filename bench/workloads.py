"""Workload generator: scenario files and CLI operations for each workload.

Everything here is a pure function of the workload seed, so the same
seed always yields the same scenario files and the same op list.  The
program under test sees only the files written into the work directory
and the CLI arguments built here.

    python3 bench/workloads.py --workload slots_turbulent --seed 1 --out DIR

writes the workload's scenario files into DIR and prints its op list.
"""

import argparse
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

BUNDLED = ("spatial_demo", "tank_1m5", "turbulent_demo", "vertical_supercap")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a fresh process running `sliptsim <argv>`."""

    name: str
    argv: tuple[str, ...]
    out: str | None = None  # output directory, relative to the work directory


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]  # one round of the closed loop
    setup_scenarios: tuple[str, ...]  # files timed by the set-up probe
    op_timeout_s: float  # wall-clock limit of one op
    op_mem_mb: int  # address-space cap of one op


def _write(root: Path, name: str, cfg: dict) -> str:
    (root / name).write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return name


def _run(name: str, scenario: str, fmt: str = "csv") -> Op:
    return Op(name, ("run", "--scenario", scenario, "--format", fmt, "--out", name), out=name)


def _sweep(name: str, scenario: str, param: str, values: list[str], seed: int) -> Op:
    argv = ("sweep", "--scenario", scenario, "--param", param,
            "--values", ",".join(values), "--seed", str(seed), "--out", name)
    return Op(name, argv, out=name)


# -- slots_turbulent ----------------------------------------------------------


def slots_turbulent_cfg(seed: int) -> dict:
    """One time_switch node, 10 ms slots, a fade redrawn every slot.

    About 1.2 W reaches the cell, so the 0.24 W it harvests in a
    photovoltaic slot outweighs the 25.9 mW sense_and_save load and the
    store tops up in every period: each period is two slot boundaries, a
    charge_check:full and one superseded depletion timer.
    """
    return {
        "name": "slots_turbulent",
        "duration": "5min",
        "seed": seed,
        "policy": {"kind": "time_switch", "t1": "5ms", "t2": "5ms"},
        "transmitters": [{
            "id": "tx0",
            "power": "1.5W",
            "wavelength": "450nm",
            "water": "clear_ocean",
            "beam_waist": "2mm",
            "divergence": "1mrad",
            "distance": "1.5m",
            "receiver_radius": "35mm",
            "turbulence": {"sigma2": 0.25},
            "on": "0s",
        }],
        "nodes": [{
            "id": "buoy",
            "cell": {"sensitivity": "1uW", "switch_latency": "0s"},
            "store": {"type": "battery", "capacity": "2J", "stored": "1.9J"},
            "load": "sense_and_save",
        }],
    }


# -- fleet_protocol -----------------------------------------------------------

FLEET_NODES = 200
FLEET_TX = 20
FLEET_WINDOW_S = 20  # each transmitter shines for one window
FLEET_GAP_S = 10  # dark gap before the next window, so every window is an edge


def fleet_protocol_cfg(seed: int) -> dict:
    """200 protocol nodes under 20 broadcast transmitters taking turns.

    Initial charge is drawn around the 3.6 V wake threshold (50% state
    of charge), so about half the nodes go to CommandRx and the rest to
    SenseSave on the first window.  The channel is calm: no fades drawn.
    """
    rng = random.Random(seed)
    node_ids = [f"n{i:03d}" for i in range(FLEET_NODES)]
    transmitters = []
    for k in range(FLEET_TX):
        on = k * (FLEET_WINDOW_S + FLEET_GAP_S) + FLEET_GAP_S
        transmitters.append({
            "id": f"tx{k:02d}",
            "power": f"{rng.uniform(1.8, 2.2):.4f}W",
            "wavelength": "450nm",
            "water": "clear_ocean",
            "beam_waist": "5mm",
            "divergence": "20deg",
            "distance": "1m",
            "receiver_radius": "35mm",
            "on": f"{on}s",
            "off": f"{on + FLEET_WINDOW_S}s",
            "distances": {nid: f"{rng.uniform(0.25, 0.35):.4f}m" for nid in node_ids},
        })
    nodes = [{
        "id": nid,
        "cell": {"efficiency": 0.2, "switch_latency": "5ms"},
        "store": {"type": "battery", "capacity": "1J",
                  "stored": f"{rng.uniform(0.3, 0.7):.4f}J"},
        "sensors": {"enabled": [1], "values": {"1": 20.0}, "seconds_per_sensor": "2s"},
        "commands": [{"op": "sensor_on", "sensor": 2}, {"op": "send_data"}],
    } for nid in node_ids]
    return {
        "name": "fleet_protocol",
        "duration": f"{FLEET_TX * (FLEET_WINDOW_S + FLEET_GAP_S)}s",
        "seed": seed,
        "policy": {"kind": "protocol"},
        "transmitters": transmitters,
        "nodes": nodes,
    }


# -- drain (part of cli_short) ------------------------------------------------


DRAIN_NODES = 8


def drain_cfg(seed: int) -> dict:
    """Turbulent time_switch nodes whose load outweighs their harvest.

    Each store runs empty a few minutes in.  When the float left in a
    store is a few 1e-16 J, the seed-state engine re-arms the depletion
    timer at the same instant forever; that happens for roughly half the
    fade streams, so with 8 independent nodes nearly every seed hits it.
    The op exercises the benchmark's liveness guard.
    """
    return {
        "name": "drain",
        "duration": "10min",
        "seed": seed,
        "policy": {"kind": "time_switch", "t1": "0.5s", "t2": "0.5s"},
        "transmitters": [{
            "id": "tx0",
            "power": "40mW",
            "wavelength": "450nm",
            "water": "pure_sea",
            "beam_waist": "2mm",
            "divergence": "1mrad",
            "distance": "1m",
            "receiver_radius": "35mm",
            "turbulence": {"sigma2": 0.25},
            "on": "0s",
        }],
        "nodes": [{
            "id": f"buoy{i}",
            "cell": {"sensitivity": "1uW", "switch_latency": "0s"},
            "store": {"type": "battery", "capacity": "10J", "stored": "5J"},
            "load": "sense_and_save",
        } for i in range(DRAIN_NODES)],
    }


# -- workloads ----------------------------------------------------------------


def slots_turbulent(root: Path, seed: int, repo: Path) -> Workload:
    scenario = _write(root, "slots_turbulent.json", slots_turbulent_cfg(seed))
    return Workload("slots_turbulent", (_run("run", scenario),), (scenario,),
                    op_timeout_s=60.0, op_mem_mb=2048)


def fleet_protocol(root: Path, seed: int, repo: Path) -> Workload:
    scenario = _write(root, "fleet_protocol.json", fleet_protocol_cfg(seed))
    rng = random.Random(seed ^ 0x5EED)
    values = [f"{rng.uniform(1.8, 2.2):.3f}W" for _ in range(3)]
    op = _sweep("sweep", scenario, "transmitters[0].power", values, seed)
    return Workload("fleet_protocol", (op,), (scenario,),
                    op_timeout_s=60.0, op_mem_mb=2048)


def cli_short(root: Path, seed: int, repo: Path) -> Workload:
    files = []
    for name in BUNDLED:
        src = repo / "scenarios" / f"{name}.json"
        shutil.copyfile(src, root / src.name)
        files.append(src.name)
    ops = [Op(f"validate_{Path(f).stem}", ("validate", "--scenario", f)) for f in files]
    for f in files:
        fmt = "jsonl" if f == "turbulent_demo.json" else "csv"
        ops.append(_run(f"run_{Path(f).stem}", f, fmt))
    rng = random.Random(seed)
    values = [f"{rng.uniform(1.0, 4.0):.2f}mW" for _ in range(3)]
    ops.append(_sweep("sweep_turbulent_demo", "turbulent_demo.json",
                      "transmitters[0].power", values, seed))
    drain = _write(root, "drain.json", drain_cfg(seed))
    ops.append(_run("drain", drain))
    return Workload("cli_short", tuple(ops), tuple(files) + (drain,),
                    op_timeout_s=2.0, op_mem_mb=1024)


WORKLOADS = {
    "slots_turbulent": slots_turbulent,
    "fleet_protocol": fleet_protocol,
    "cli_short": cli_short,
}


def generate(name: str, seed: int, root: Path, repo: Path) -> Workload:
    """Write the workload's scenario files into root and return its op list."""
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, seed, repo)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    repo = Path(__file__).resolve().parent.parent
    wl = generate(args.workload, args.seed, Path(args.out), repo)
    for op in wl.ops:
        print(op.name, " ".join(op.argv))


if __name__ == "__main__":
    main()
