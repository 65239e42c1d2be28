"""Acceptance checks for the simulator as a whole.

Each test prints exactly one `ACnn name: PASS/FAIL (detail)` line on
stdout (surfaced by the -rP pytest flag) and asserts the same result,
so the suite doubles as a human-readable scorecard.
"""

import itertools
import math
import statistics
import time
from pathlib import Path

import mpmath

from sliptsim.channel import TurbulenceModel, attenuate, sample_fading
from sliptsim.energy_store import Battery
from sliptsim.engine import Simulation, rng_stream
from sliptsim.node import NodeState, Phase, Stimulus
from sliptsim.policy import PowerSplit, TxRole, assign_spatial, split
from sliptsim.scenario import build_scenario, load_scenario
from sliptsim.trace import trace_to_csv

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"AC{num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"AC{num:02d} {name}: {detail}"


def _timed_run(scenario):
    t0 = time.perf_counter()
    sim = Simulation(scenario)
    metrics, trace = sim.run()
    return metrics, trace, time.perf_counter() - t0


def test_ac01_tank_charge_time():
    metrics, _, wall = _timed_run(load_scenario(SCENARIOS / "tank_1m5.json"))
    completions = metrics.nodes["node0"].charge_completions
    target = 124 * 60.0
    ok = (len(completions) == 1
          and abs(completions[0] - target) <= 0.005 * target
          and wall < 1.0)
    detail = (f"full at {completions[0]:.2f}s vs {target:.0f}s +-0.5%, "
              f"wall {wall * 1e3:.0f}ms" if completions else "never charged")
    _report(1, "tank-charge-time", ok, detail)


def test_ac02_supercap_charge_time():
    metrics, _, wall = _timed_run(load_scenario(SCENARIOS / "vertical_supercap.json"))
    completions = metrics.nodes["nodeV"].charge_completions
    target = 90 * 60.0
    ok = (len(completions) == 1
          and abs(completions[0] - target) <= 0.005 * target
          and wall < 1.0)
    detail = (f"full at {completions[0]:.2f}s vs {target:.0f}s +-0.5%, "
              f"wall {wall * 1e3:.0f}ms" if completions else "never charged")
    _report(2, "supercap-charge-time", ok, detail)


def _decode_cfg(t1, t2):
    return {
        "duration": "60s",
        "seed": 1,
        "policy": {"kind": "time_switch", "t1": t1, "t2": t2},
        "transmitters": [{
            "id": "tx", "power": "1W", "water": "pure_sea", "beam_waist": "1mm",
            "divergence": "0rad", "distance": "1m", "receiver_radius": "1mm",
        }],
        "nodes": [{
            "id": "n0",
            "cell": {"switch_latency": "0s"},
            "store": {"type": "battery", "capacity": "1000kJ"},
        }],
    }


def test_ac03_exact_decode_counts():
    held, _ = Simulation(build_scenario(_decode_cfg("0s", "1s"))).run()
    half, _ = Simulation(build_scenario(_decode_cfg("0.5s", "0.5s"))).run()
    held_bits = held.nodes["n0"].decoded_bits
    half_bits = half.nodes["n0"].decoded_bits
    ok = (held_bits == 30_000_000.0 and half_bits == 15_000_000.0
          and held.nodes["n0"].outage_s == 0.0)
    _report(3, "exact-decode-counts", ok,
            f"held {held_bits:.0f} bits, duty-0.5 {half_bits:.0f} bits, both exact")


def test_ac04_sense_energy_budget():
    cfg = {
        "duration": "1h",
        "seed": 1,
        "policy": {"kind": "time_switch", "t1": "1s", "t2": "0s"},
        "nodes": [{
            "id": "n0", "load": "sense_and_save",
            "store": {"type": "battery", "capacity": "200J", "stored": "200J"},
        }],
    }
    metrics, _ = Simulation(build_scenario(cfg)).run()
    m = metrics.nodes["n0"]
    drained = m.stored_initial_j - m.stored_final_j
    ok = (abs(m.consumed_j - 93.24) <= 1e-6 * 93.24
          and abs(drained - 93.24) <= 1e-6 * 93.24
          and m.harvested_j == 0.0)
    _report(4, "sense-energy-budget", ok,
            f"consumed {m.consumed_j:.6f} J over 1 h vs 93.24 J +-1e-6 rel")


def test_ac05_attenuation_oracle():
    mpmath.mp.dps = 50
    rng = rng_stream(2025, "ac5:attenuation")
    alphas = [rng.uniform(0.01, 3.0) for _ in range(1000)]
    depths = [rng.uniform(0.1, 50.0) for _ in range(1000)]
    intensities = [rng.uniform(0.1, 10.0) for _ in range(1000)]
    worst = 0.0
    worst_semi = 0.0
    for i0, a, z in zip(intensities, alphas, depths):
        got = attenuate(i0, a, z)
        want = mpmath.mpf(i0) * mpmath.e ** (-mpmath.mpf(a) * mpmath.mpf(z))
        worst = max(worst, abs(float((got - want) / want)))
        z1, z2 = 0.375 * z, 0.625 * z
        whole = attenuate(i0, a, z1 + z2)
        piecewise = attenuate(attenuate(i0, a, z1), a, z2)
        worst_semi = max(worst_semi, abs(whole - piecewise) / whole)
    ok = worst <= 1e-12 and worst_semi <= 1e-12
    _report(5, "attenuation-oracle", ok,
            f"max rel err {worst:.2e}, semigroup {worst_semi:.2e} over 1000 pairs")


def test_ac06_fading_statistics():
    model = TurbulenceModel(0.25)
    rng = rng_stream(2026, "ac6:fading")
    samples = [sample_fading(model, rng) for _ in range(1_000_000)]
    mean = statistics.fmean(samples)
    # the population variance; statistics.pvariance is exact, and slow on 1e6 floats
    var = math.fsum((x - mean) ** 2 for x in samples) / len(samples)
    ok = abs(mean - 1.0) <= 0.01 and abs(var - 0.25) <= 0.02
    _report(6, "fading-statistics", ok,
            f"mean {mean:.4f} (1.00+-0.01), var {var:.4f} (0.25+-0.02), n=1e6")


def test_ac07_split_conserves_power():
    rng = rng_stream(777, "ac7:split")
    exact = 0
    for _ in range(1000):
        alpha = rng.random()
        p = rng.uniform(0.0, 1000.0)
        harvest, decode = split(PowerSplit(alpha), p)
        if harvest + decode == p and harvest >= 0.0 and decode >= 0.0:
            exact += 1
    _report(7, "split-conservation", exact == 1000,
            f"{exact}/1000 pairs sum back exactly (zero tolerance)")


def test_ac08_protocol_invariants():
    rng = rng_stream(99, "ac8:protocol")
    stimuli = list(Stimulus)
    rx_entries = 0
    harvest_exits = 0
    for _ in range(10_000):
        state = NodeState(v_threshold=3.6, enabled_sensors={1, 2})
        store = Battery(capacity=10.0, stored=rng.uniform(0.0, 10.0))
        for _ in range(8):
            stim = stimuli[rng.randrange(len(stimuli))]
            v_b = store.terminal_voltage()
            before = state.phase
            state.step(stim, store)
            if state.phase is Phase.COMMAND_RX and before is not Phase.COMMAND_RX:
                assert v_b >= state.v_threshold, "entered CommandRx undercharged"
                rx_entries += 1
            store.deposit(rng.uniform(-1.0, 1.0) * rng.uniform(0.0, 2.0))
            assert store.stored >= 0.0, "stored energy went negative"
            if state.phase is Phase.HARVEST:
                net = rng.uniform(0.1, 2.0)
                store.deposit(net * store.time_to_full(net))
                state.step(Stimulus.FULL_CHARGE)
                assert state.phase is Phase.SLEEP, "full charge did not end in Sleep"
                harvest_exits += 1
    ok = rx_entries > 100 and harvest_exits > 100
    _report(8, "protocol-invariants", ok,
            f"10000 random sequences; {rx_entries} CommandRx entries, "
            f"{harvest_exits} charge-to-full exits, all invariants held")


def _brute_force_spatial(tx_ids, rx_ids, demands, lp, sens):
    """Exhaustive reference: (serves-all-demands feasible, best harvest)."""
    demanded = [r for r in rx_ids if demands[r]]
    feasible = False
    best = None
    for chosen in itertools.permutations(tx_ids, len(demanded)):
        if all(lp[(t, r)] >= sens[r] for t, r in zip(chosen, demanded)):
            feasible = True
            rest = (t for t in tx_ids if t not in chosen)
            h = sum(max(lp[(t, r)] for r in rx_ids) for t in rest)
            best = h if best is None else max(best, h)
    return feasible, best


def test_ac09_spatial_against_brute_force():
    rng = rng_stream(4242, "ac9:spatial")
    gaps = []
    feasible_n = 0
    for _ in range(100):
        tx_ids = [f"t{i}" for i in range(rng.randint(1, 3))]
        rx_ids = [f"r{i}" for i in range(rng.randint(1, 3))]
        lp = {(t, r): rng.uniform(0.0, 1.0) for t in tx_ids for r in rx_ids}
        sens = {r: rng.uniform(0.0, 0.9) for r in rx_ids}
        demands = {r: rng.random() < 0.6 for r in rx_ids}
        greedy = assign_spatial(tx_ids, rx_ids, demands, lp, sens)
        brute_ok, brute_best = _brute_force_spatial(tx_ids, rx_ids, demands, lp, sens)
        assert (not greedy.infeasible) == brute_ok, "feasibility mismatch"
        if brute_ok:
            feasible_n += 1
            harvested = sum(lp[(t, greedy.target[t])]
                            for t, role in greedy.roles.items() if role is TxRole.ENERGY)
            gap = brute_best - harvested
            assert gap >= -1e-12, "greedy beat the exhaustive optimum"
            gaps.append(max(gap, 0.0))
    detail = (f"100 instances, feasibility always preserved; harvest gap "
              f"mean {statistics.fmean(gaps):.4f} W, max {max(gaps):.4f} W "
              f"over {feasible_n} feasible")
    _report(9, "spatial-vs-brute-force", True, detail)


def test_ac10_deterministic_traces():
    fading_fields = ("stored_J", "V_B", "harvested_J_cum", "decoded_bits_cum")

    def csv_for(scenario, seed=None):
        return trace_to_csv(Simulation(scenario, seed_override=seed).run()[1])

    ok = True
    notes = []
    for name in ("tank_1m5", "vertical_supercap"):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        repeat = csv_for(sc) == csv_for(sc)
        # no turbulence configured, so no field depends on the seed
        reseeded = csv_for(sc) == csv_for(sc, seed=9001)
        ok &= repeat and reseeded
        notes.append(f"{name} byte-identical={repeat and reseeded}")

    sc = load_scenario(SCENARIOS / "turbulent_demo.json")
    ok &= csv_for(sc) == csv_for(sc)
    rows_a = Simulation(sc).run()[1]
    rows_b = Simulation(sc, seed_override=8).run()[1]
    skeleton = lambda r: (r.time, r.node_id, r.event_kind, r.phase)
    same_skeleton = (len(rows_a) == len(rows_b)
                     and all(skeleton(a) == skeleton(b)
                             for a, b in zip(rows_a, rows_b)))
    fading_changed = any(getattr(a, f) != getattr(b, f)
                         for a, b in zip(rows_a, rows_b) for f in fading_fields)
    ok &= same_skeleton and fading_changed
    notes.append(f"turbulent skeleton-stable={same_skeleton}, "
                 f"fading fields moved={fading_changed}")
    _report(10, "deterministic-traces", ok, "; ".join(notes))
