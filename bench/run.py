"""sliptsim benchmark: drive the `sliptsim` CLI, one fresh process per op.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs `src/sliptsim` and
`scenarios/`).  The workload seed generates the scenario files
(bench/workloads.py); the program sees only those files and its CLI
arguments.  Ops run one at a time from this process: a closed loop with
one client.  Each op is a child process under a wall-clock limit and an
address-space cap that the child sets on itself before it execs; an op
over either limit counts as failed, so the benchmark never hangs.

The benchmark pins itself, and so every child, to one CPU.  End-to-end
times are the child's CPU seconds (user + sys, from os.wait4), which
leave out time spent waiting for the CPU, scaled to a host of fixed
speed: the run's medians are multiplied by REF_S over the mean CPU time
of the reference loop (bench/reference.py), which runs on the same CPU
after every spawn for REF_DUTY of the spawn's wall time, so it samples
the host evenly through the run.  The raw wall and CPU medians are
printed too.

Every op's outputs are checked (bench/checks.py).  A failed op counts
in `failed`; an op that exits 0 with a broken output makes the run
incorrect, and the benchmark then exits 1.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced rounds with traced ones (bench/traced.py)
and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Lines before it
list every metric with its unit, the output digests and the counters.
See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check_op  # noqa: E402
from reference import REF_S, reference_cpu_s  # noqa: E402
from traced import TIMED  # noqa: E402
from workloads import WORKLOADS, Op, Workload, generate  # noqa: E402

clock = time.perf_counter
SETUP_PROBES = 11  # set-up probes per run at least; the median is reported
IMPORT_PROBES = 5  # bare-interpreter spawns per traced run
REF_DUTY = 0.15  # reference-loop seconds per wall second of a spawn
# layers whose self times partition a traced op's wall time
LAYER_TIMES = ("units", "scenario.load", "scenario.validate", "engine.init",
               "engine.rng_stream", "engine.run", "channel.fading", "channel.link",
               "policy", "node", "energy_store", "harvester", "trace.serialize",
               "cli.interp", "cli.import", "cli.self", "cli.exit")
EVENT_KINDS = ("timer_expiry", "slot_boundary", "charge_check", "sense_tick",
               "frame_arrival", "custom")


@dataclass
class OpResult:
    op: Op
    wall_s: float
    exit_code: int  # negative: killed by that signal
    rss_mb: float
    cpu_s: float  # user + sys of the child
    ok: bool = False  # exited 0 and its outputs passed every check
    events: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # broken output checks


class Runner:
    """Spawns ops for one workload inside its own work directory."""

    def __init__(self, root: Path, work: Path, workload: Workload):
        self.work = work
        self.workload = workload
        self.env = dict(os.environ)
        self.env.pop("SLIPTSIM_OUT", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
        self.digests: dict[str, dict] = {}  # op name -> digests of its first run
        self.results: list[OpResult] = []
        self.refs: list[float] = []  # CPU seconds of every reference loop

    def reference(self, after_s: float):
        """Reference loops for REF_DUTY of a spawn that took after_s wall seconds, one at least."""
        for _ in range(max(1, round(REF_DUTY * after_s / REF_S))):
            self.refs.append(reference_cpu_s())

    def host_scale(self) -> float:
        """REF_S over the mean reference loop: turns this run's CPU seconds into host seconds."""
        return REF_S / statistics.fmean(self.refs)

    def _limits(self, timeout_s: float):
        cap = self.workload.op_mem_mb << 20

        def preexec():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            cpu = int(timeout_s) + 2  # backstop if the wall-clock timer is lost
            resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
            # interval timers survive execve: the child is killed at the limit
            signal.setitimer(signal.ITIMER_REAL, timeout_s)

        return preexec

    def spawn(self, argv: list[str], stdout, stderr, env=None):
        """Run argv to completion; returns (wall s, exit code, peak RSS MB, CPU s)."""
        env = env or self.env
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=self.work, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr,
                                preexec_fn=self._limits(self.workload.op_timeout_s))
        _, status, usage = _reap(proc)
        wall = clock() - t0
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def run_op(self, op: Op, traced: bool = False) -> tuple[OpResult, dict | None]:
        """One op in a fresh process, then its output check."""
        if op.out:
            shutil.rmtree(self.work / op.out, ignore_errors=True)
        spans_path = self.work / f"{op.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        base = [sys.executable]
        env = None
        if traced:
            base += [str(BENCH / "traced.py"), str(spans_path), "--"]
            env = dict(self.env)
        else:
            base += ["-m", "sliptsim.cli"]
        with open(self.work / f"{op.name}.stdout", "wb") as out, \
                open(self.work / f"{op.name}.stderr", "wb") as err:
            if env is not None:
                env["BENCH_SPAWN_T"] = repr(clock())
            wall, code, rss, cpu = self.spawn(base + list(op.argv), out, err, env)
        end = clock()
        self.reference(wall)
        res = OpResult(op, wall, code, rss, cpu)
        if code == 0:
            check_op(self.work, op, res)
            first = self.digests.setdefault(op.name, res.digests)
            if res.digests != first:
                res.problems.append(f"{op.name}: outputs differ from the first repeat "
                                    "of the same (scenario, seed)")
            res.ok = not res.problems
        self.results.append(res)
        spans = None
        if traced and res.ok and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans["exit_t"] = end
        return res, spans

    def setup_probe(self, scenario: str) -> float:
        """CPU seconds from process start to a constructed Simulation, tracing off."""
        argv = [sys.executable, str(BENCH / "setup_probe.py"), scenario]
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                preexec_fn=self._limits(self.workload.op_timeout_s))
        line = proc.stdout.readline().split()
        proc.stdout.close()
        _reap(proc)
        self.reference(clock() - t0)
        if len(line) != 2 or line[0] != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed on {scenario} (exit {proc.returncode})")
        return float(line[1])

    def bare_spawn(self, code: str) -> float:
        wall, exit_code, _, _ = self.spawn([sys.executable, "-c", code],
                                           subprocess.DEVNULL, subprocess.DEVNULL)
        if exit_code != 0:
            raise RuntimeError(f"probe {code!r} exited {exit_code}")
        return wall


def _reap(proc: subprocess.Popen):
    """os.wait4 for the child's rusage; if interrupted, kill it and wait."""
    try:
        result = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(result[1])
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


# -- metrics ------------------------------------------------------------------


def _json_number(value):
    """JSON has no inf or nan: a metric with no valid sample reads null."""
    return value if math.isfinite(value) else None


def _median(values):
    return statistics.median(values) if values else float("nan")


def us_per_event(ops: list[OpResult]) -> float:
    """Median CPU seconds of each op that ran the engine, summed, over its events."""
    times: dict[str, list[float]] = {}
    events: dict[str, int] = {}
    for r in ops:
        if r.ok and r.events > 0:
            times.setdefault(r.op.name, []).append(r.cpu_s)
            events[r.op.name] = r.events
    if not events:
        return float("nan")
    return sum(map(_median, times.values())) / sum(events.values()) * 1e6


def end_to_end(setup: list[float], rounds: list[list[OpResult]], scale: float) -> dict:
    ops = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": (_median(setup) * scale, "s"),
        "op_p50_s": (_median([r.cpu_s if r.ok else float("inf") for r in ops]) * scale, "s"),
        "host_us_per_event": (us_per_event(ops) * scale, "us"),
        "peak_rss_mb": (_median([r.rss_mb for r in ops]), "MB"),
    }


def layer_totals(spans_list: list[dict]) -> tuple[dict, dict]:
    """Per-layer times and counters for one traced round (sum over its ops)."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(key, value, into):
        into[key] = into.get(key, 0) + value

    for doc in spans_list:
        totals = doc["totals"]
        for name, (calls, self_s, incl_s) in totals.items():
            layer = TIMED.get(name, name)
            add(layer, self_s, times)
            add(layer + ".calls", calls, counts)
            add(name + ".calls", calls, counts)
            if name == "Simulation.run":
                add("engine.run.inclusive", incl_s, times)
        for name, value in doc["counts"].items():
            add(name, value, counts)
        add("cli.interp", doc["script_start"] - doc["spawn_t"], times)
        add("cli.self", doc["root_self_s"] + totals["cli.main"][1], times)
        add("cli.exit", doc["exit_t"] - doc["end"], times)
        add("traced_op", doc["exit_t"] - doc["spawn_t"], times)
    return times, counts


def per_layer(traced_rounds, untraced_rounds, attempted, failed, interp, imp, refs) -> dict:
    rounds = [layer_totals(spans) for spans in traced_rounds]
    t = {k: _median([r[0].get(k, 0.0) for r in rounds])
         for k in set().union(*(r[0] for r in rounds))}
    c = rounds[0][1]
    events = sum(c.get(f"engine.events.{k}", 0) for k in EVENT_KINDS)
    # like for like: only ops that completed, as only those leave spans
    untraced = _median([sum(r.wall_s for r in rnd if r.ok) for rnd in untraced_rounds])
    m = {
        "units.parse_calls": (c.get("units.calls", 0), "count"),
        "units.parse_s": (t.get("units", 0.0), "s"),
        "scenario.load_s": (t.get("scenario.load", 0.0), "s"),
        "scenario.validate_s": (t.get("scenario.validate", 0.0), "s"),
        "engine.init_s": (t.get("engine.init", 0.0), "s"),
        "engine.rng_streams": (c.get("engine.rng_stream.calls", 0), "count"),
        "engine.rng_stream_s": (t.get("engine.rng_stream", 0.0), "s"),
        "engine.run_s": (t.get("engine.run", 0.0), "s"),
        "engine.events": (events, "count"),
    }
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = (c.get(f"engine.events.{kind}", 0), "count")
    m.update({
        "engine.loop_us_per_event": (
            t.get("engine.run.inclusive", 0.0) / events * 1e6 if events else 0.0, "us"),
        "engine.heap_pushes": (c.get("engine.heap_pushes", 0), "count"),
        "engine.stale_events": (c.get("engine.stale_events", 0), "count"),
        "channel.fading_calls": (c.get("channel.fading.calls", 0), "count"),
        "channel.fading_s": (t.get("channel.fading", 0.0), "s"),
        "channel.link_s": (t.get("channel.link", 0.0), "s"),
        "policy.mode_at_calls": (c.get("engine.mode_at.calls", 0), "count"),
        "policy.s": (t.get("policy", 0.0), "s"),
        "energy_store.calls": (c.get("energy_store.calls", 0), "count"),
        "energy_store.s": (t.get("energy_store", 0.0), "s"),
        "harvester.switch_calls": (c.get("harvester.calls", 0), "count"),
        "harvester.s": (t.get("harvester", 0.0), "s"),
        "node.calls": (c.get("node.calls", 0), "count"),
        "node.s": (t.get("node", 0.0), "s"),
        "trace.rows": (c.get("trace.rows", 0), "count"),
        "trace.bytes": (c.get("trace.bytes", 0), "B"),
        "trace.serialize_s": (t.get("trace.serialize", 0.0), "s"),
        "cli.interp_s": (t.get("cli.interp", 0.0), "s"),
        "cli.import_s": (t.get("cli.import", 0.0), "s"),
        "cli.self_s": (t.get("cli.self", 0.0), "s"),
        "cli.exit_s": (t.get("cli.exit", 0.0), "s"),
        "cli.bare_interp_s": (interp, "s"),
        "cli.bare_import_s": (imp, "s"),
        "tracing.overhead_s": (t.get("traced_op", 0.0) - untraced, "s"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        "host.ref_cpu_s": (statistics.fmean(refs), "s"),
    })
    return m


def unaccounted_s(spans_list: list[dict]) -> float:
    """Traced round time the layer self times do not cover; 0 up to rounding."""
    times = layer_totals(spans_list)[0]
    return times.get("traced_op", 0.0) - sum(times.get(k, 0.0) for k in LAYER_TIMES)


def counters_of(spans_list: list[dict]) -> dict:
    """Counts that must repeat exactly on every traced round."""
    return layer_totals(spans_list)[1]


# -- main ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="sliptsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)  # reap the child, remove the work dir
    # one CPU for this process, the reference loop and every child it spawns
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    root = Path.cwd()
    if not (root / "src" / "sliptsim" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        print("bench: run from the root of a sliptsim source checkout "
              "(src/sliptsim and scenarios/ not found)", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run_workload(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(args, root: Path, work: Path) -> int:
    wl = generate(args.workload, args.seed, work, root)
    runner = Runner(root, work, wl)

    # warm-up: byte-compiles the sources and fills the file cache, untimed
    warm = runner.spawn([sys.executable, "-m", "sliptsim.cli", "validate",
                         "--scenario", wl.setup_scenarios[0]],
                        subprocess.DEVNULL, subprocess.DEVNULL)
    runner.reference(warm[0])
    if warm[1] != 0:
        print(f"bench: warm-up validate failed (exit {warm[1]})", file=sys.stderr)
        return 2

    def probe_setup():
        setup.append(runner.setup_probe(
            wl.setup_scenarios[len(setup) % len(wl.setup_scenarios)]))

    # set-up probes are spread over the run, one per round, then topped up
    setup: list[float] = []
    untraced_rounds: list[list[OpResult]] = []
    traced_rounds: list[list[dict]] = []
    deadline = clock() + args.seconds
    while True:
        if not args.trace:
            probe_setup()
        untraced_rounds.append([runner.run_op(op)[0] for op in wl.ops])
        if args.trace:
            spans = [runner.run_op(op, traced=True)[1] for op in wl.ops]
            traced_rounds.append([s for s in spans if s is not None])
        # two rounds at least, so every op's outputs are compared on a repeat
        if clock() >= deadline and len(untraced_rounds) >= 2:
            break
    while not args.trace and len(setup) < max(SETUP_PROBES, len(wl.setup_scenarios)):
        probe_setup()

    results = runner.results
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    problems = [p for r in results for p in r.problems]

    if args.trace:
        interp = _median([runner.bare_spawn("pass") for _ in range(IMPORT_PROBES)])
        imp = _median([runner.bare_spawn("import sliptsim.cli")
                       for _ in range(IMPORT_PROBES)]) - interp
        if not any(traced_rounds):
            problems.append("no traced op completed")
            metrics = {}
        else:
            metrics = per_layer(traced_rounds, untraced_rounds, attempted, failed,
                                interp, imp, runner.refs)
            for i, rnd in enumerate(traced_rounds, start=1):
                if abs(unaccounted_s(rnd)) > 1e-6:
                    problems.append(f"traced round {i}: layer self times miss "
                                    f"{unaccounted_s(rnd)!r} s of the op time")
            baseline = counters_of(traced_rounds[0])
            for i, rnd in enumerate(traced_rounds[1:], start=2):
                if len(rnd) == len(traced_rounds[0]) and counters_of(rnd) != baseline:
                    problems.append(f"traced round {i}: deterministic counters differ")
            events = sum(r.events for r in untraced_rounds[0] if r.ok)
            counted = metrics["engine.events"][0]
            if len(traced_rounds[0]) == sum(r.ok for r in untraced_rounds[0]) \
                    and counted != events:
                problems.append(f"traced events {counted} != events_processed {events}")
    else:
        metrics = end_to_end(setup, untraced_rounds, runner.host_scale())

    report(args, wl, runner, metrics, problems)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def report(args, wl: Workload, runner: Runner, metrics: dict, problems: list[str]):
    """Human-readable lines before the result line."""
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops/round {len(wl.ops)}  limits {wl.op_timeout_s:g} s, {wl.op_mem_mb} MB")
    by_op: dict[str, list[OpResult]] = {}
    for r in runner.results:
        by_op.setdefault(r.op.name, []).append(r)
    for name, rs in by_op.items():
        bad = [r.exit_code for r in rs if not r.ok]
        good = [r for r in rs if r.ok]
        print(f"  op {name:28s} n={len(rs):3d} failed={len(bad):3d} "
              f"exit={sorted(set(bad))} p50 wall={_median([r.wall_s for r in good]):.4f} s "
              f"cpu={_median([r.cpu_s for r in good]):.4f} s events={rs[0].events}")
    print(f"  reference loop: n={len(runner.refs)} mean={statistics.fmean(runner.refs):.4f} s "
          f"CPU; CPU times are scaled by {runner.host_scale():.4f} to a {REF_S} s loop")
    for name, digests in sorted(runner.digests.items()):
        for fname, digest in sorted(digests.items()):
            print(f"  sha256 {name}/{fname} {digest}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


if __name__ == "__main__":
    sys.exit(main())
