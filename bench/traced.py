"""Traced CLI process: time each layer of one `sliptsim` invocation.

    BENCH_SPAWN_T=<perf_counter at spawn> python3 bench/traced.py SPANS.json -- run ...

Imports `sliptsim.cli` fresh, wraps the public functions and methods of
every module at the names the engine and CLI actually look up, runs
`sliptsim.cli.main(argv)` in-process and writes the spans to SPANS.json.

Spans are timed with time.perf_counter, which on Linux reads the
system-wide monotonic clock, so the spawn time the parent passes in
BENCH_SPAWN_T is on the same time base.  A span's self time is its
duration minus the time its child spans cover.  Coarse spans (import,
main, load, validate, build, run, serialize) are kept one by one with
their parent ids; the per-event calls below the event loop are folded
into per-name totals (calls, self, inclusive) so memory stays flat on
runs with hundreds of thousands of events.
"""

import itertools
import json
import os
import sys
import time

clock = time.perf_counter
SCRIPT_START = clock()

# wrapped name -> layer; names are "<module or class>.<attribute>"
TIMED = {
    "scenario.parse_quantity": "units",
    "cli.load_scenario": "scenario.load",
    "cli.build_scenario": "scenario.load",
    "cli.validate_scenario": "scenario.validate",
    "Simulation.__init__": "engine.init",
    "Simulation.run": "engine.run",
    "engine.rng_stream": "engine.rng_stream",
    "engine.sample_fading": "channel.fading",
    "engine.attenuate": "channel.link",
    "engine.geometric_capture": "channel.link",
    "engine.mode_at": "policy",
    "engine.split": "policy",
    "engine.assign_spatial": "policy",
    "engine.load_power": "node",
    "engine.encode_command": "node",
    "engine.decode_command": "node",
    "NodeState.step": "node",
    "NodeState.record_sensor": "node",
    "NodeState.execute_command": "node",
    "NodeState.ack_transmission": "node",
    "Battery.deposit": "energy_store",
    "Battery.time_to_full": "energy_store",
    "Battery.terminal_voltage": "energy_store",
    "Supercapacitor.deposit": "energy_store",
    "Supercapacitor.time_to_full": "energy_store",
    "Supercapacitor.terminal_voltage": "energy_store",
    "SolarCell.switch_mode": "harvester",
    "cli.trace_to_csv": "trace.serialize",
    "cli.trace_to_jsonl": "trace.serialize",
}
KEPT = {"cli.import", "cli.main", "cli.load_scenario", "cli.build_scenario",
        "cli.validate_scenario", "Simulation.__init__", "Simulation.run",
        "cli.trace_to_csv", "cli.trace_to_jsonl"}
# event handlers the loop dispatches to, one call per processed event
HANDLERS = {
    "_handle_timer": "timer_expiry",
    "_handle_slot_boundary": "slot_boundary",
    "_handle_charge_check": "charge_check",
    "_handle_sense_tick": "sense_tick",
    "_handle_frame_arrival": "frame_arrival",
    "_handle_custom": "custom",
}


class Tracer:
    """A span stack plus per-name totals; one instance per process."""

    def __init__(self):
        self._ids = itertools.count(1)
        self.stack = [[0.0, 0]]  # frames: [child time, span id]; 0 is the root
        self.totals: dict[str, list] = {}  # name -> [calls, self s, inclusive s]
        self.spans: list[tuple] = []  # kept spans: (id, parent id, name, start, end)
        self.counts: dict[str, int] = {}

    def timed(self, name: str, fn):
        stack, totals = self.stack, self.totals.setdefault(name, [0, 0.0, 0.0])
        keep, spans, ids = name in KEPT, self.spans, self._ids

        def wrapper(*args, **kwargs):
            frame = [0.0, next(ids) if keep else -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                totals[0] += 1
                totals[1] += d - frame[0]
                totals[2] += d
                stack[-1][0] += d
                if keep:
                    spans.append((frame[1], stack[-1][1], name, t0, t1))

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer):
    """Wrap the program's functions; returns nothing, patches in place."""
    import sliptsim.cli as cli
    import sliptsim.engine as engine
    import sliptsim.scenario as scenario
    from sliptsim.energy_store import Battery, Supercapacitor
    from sliptsim.harvester import SolarCell
    from sliptsim.node import NodeState

    owners = {"cli": cli, "engine": engine, "scenario": scenario,
              "Battery": Battery, "Supercapacitor": Supercapacitor,
              "SolarCell": SolarCell, "NodeState": NodeState,
              "Simulation": engine.Simulation}
    for name in TIMED:
        owner, attr = name.split(".", 1)
        setattr(owners[owner], attr, tracer.timed(name, getattr(owners[owner], attr)))

    sim = engine.Simulation
    for attr, kind in HANDLERS.items():
        setattr(sim, attr, tracer.counted(f"engine.events.{kind}", getattr(sim, attr)))
    sim._schedule = tracer.counted("engine.heap_pushes", sim._schedule)

    counts = tracer.counts
    counts["engine.stale_events"] = 0
    handle_charge_check = sim._handle_charge_check

    def charge_check(self, t, node_id, gen, flavor):
        if gen != self.nodes[node_id].timer_gen:
            counts["engine.stale_events"] += 1
        return handle_charge_check(self, t, node_id, gen, flavor)

    sim._handle_charge_check = charge_check

    # trace rows produced by each run, whether or not they are written out
    run = cli.run
    counts["trace.rows"] = 0

    def run_counting_rows(*args, **kwargs):
        metrics, trace = run(*args, **kwargs)
        counts["trace.rows"] += len(trace)
        return metrics, trace

    cli.run = run_counting_rows

    counts["trace.bytes"] = 0
    for attr in ("trace_to_csv", "trace_to_jsonl"):
        serialize = getattr(cli, attr)

        def serialize_counting_bytes(records, _serialize=serialize):
            text = _serialize(records)
            counts["trace.bytes"] += len(text.encode("utf-8"))
            return text

        setattr(cli, attr, serialize_counting_bytes)


def main():
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        sys.exit("usage: traced.py SPANS.json -- <sliptsim argv>")
    argv = sys.argv[3:]
    tracer = Tracer()
    # the import is timed by hand: nothing can be wrapped before it
    t0 = clock()
    import sliptsim.cli
    t1 = clock()
    tracer.spans.append((next(tracer._ids), 0, "cli.import", t0, t1))
    tracer.totals["cli.import"] = [1, t1 - t0, t1 - t0]
    tracer.stack[0][0] += t1 - t0
    install(tracer)
    main_fn = tracer.timed("cli.main", sliptsim.cli.main)
    code = main_fn(argv)
    end = clock()
    doc = {
        "spawn_t": float(os.environ["BENCH_SPAWN_T"]),
        "script_start": SCRIPT_START,
        "end": end,
        "root_self_s": (end - SCRIPT_START) - tracer.stack[0][0],
        "totals": tracer.totals,
        "counts": tracer.counts,
        "spans": tracer.spans,
        "exit_code": code,
    }
    with open(spans_path, "w") as f:
        json.dump(doc, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
