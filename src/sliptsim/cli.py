"""Command-line interface: run, sweep, validate.

    sliptsim run --scenario tank.json [--seed 7] [--out DIR] [--format csv]
    sliptsim sweep --scenario tank.json --param transmitters[0].power \
        --values 1W,2W,4W [--out DIR]
    sliptsim validate --scenario tank.json

Exit codes: 0 on success, 1 on configuration or simulation errors, 2 on
command-line usage errors.  Output files go to --out, falling back to
the SLIPTSIM_OUT environment variable; with neither set, results are
only printed.  File writes are atomic (temp file + rename), so a
crashed run never leaves a truncated metrics or trace file behind; the
trace streams into its temp file while the run goes on, and `sweep`
and a `run` without an output directory build no trace at all.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

from sliptsim.engine import FileSink, NullSink, run, trace_to_csv, trace_to_jsonl
from sliptsim.errors import ConfigError, SimError
from sliptsim.scenario import build_scenario, load_scenario, read_config, validate_scenario

OUT_ENV_VAR = "SLIPTSIM_OUT"

_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliptsim",
        description="Discrete-event simulator for underwater optical "
                    "light-powered sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's random seed")
        if with_out:
            p.add_argument("--out", default=None,
                           help=f"output directory (default: ${OUT_ENV_VAR})")
            p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                           help="trace file format (default: csv)")

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_common(p_run)
    p_run.add_argument("--validate-only", action="store_true",
                       help="check the scenario file and exit without running")

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="config path to vary, e.g. transmitters[0].power")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values to substitute")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    return parser


def _out_dir(args) -> Path | None:
    out = args.out if args.out is not None else os.environ.get(OUT_ENV_VAR)
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _set_path(cfg, dotted: str, value):
    """Set cfg[...] following a path like nodes[0].policy.alpha."""
    tokens = [
        m.group(1) if m.group(1) is not None else int(m.group(2))
        for m in _PATH_TOKEN.finditer(dotted)
    ]
    if not tokens:
        raise ConfigError(dotted, "empty parameter path")
    target = cfg
    for token in tokens[:-1]:
        try:
            target = target[token]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(dotted, f"path not found at {token!r}") from None
    last = tokens[-1]
    ok = (isinstance(target, dict)
          or (isinstance(target, list) and isinstance(last, int) and last < len(target)))
    if not ok:
        raise ConfigError(dotted, f"cannot set {last!r} on {type(target).__name__}")
    target[last] = value


def _parse_value(text: str):
    """Sweep values: JSON scalars when they parse, raw strings otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _print_summary(metrics):
    d = metrics.to_dict()
    print(f"scenario {d['scenario_hash'][:12]}  seed {d['seed']}  "
          f"end {d['end_time_s']} s  events {d['events_processed']}")
    for node_id, m in d["nodes"].items():
        completions = m["charge_completions_s"]
        full = f"  full@{completions[0]:.2f}s" if completions else ""
        print(f"  {node_id}: harvested {m['harvested_J']:.6g} J, "
              f"consumed {m['consumed_J']:.6g} J, "
              f"decoded {m['decoded_bits']:.6g} bits, "
              f"delivered {m['delivered_records']} records{full}")


def _cmd_validate(scenario_path: str) -> int:
    try:
        cfg = read_config(scenario_path)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return 1
    issues = validate_scenario(cfg)
    if issues:
        for issue in issues:
            print(issue, file=sys.stderr)
        print(f"{len(issues)} issue(s) found", file=sys.stderr)
        return 1
    print("scenario is valid")
    return 0


def _cmd_run(args) -> int:
    if args.validate_only:
        return _cmd_validate(args.scenario)
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    if out is None:
        metrics, _ = run(scenario, seed_override=args.seed, sink=NullSink())
        _print_summary(metrics)
        return 0
    # this module's names, so a wrapper on cli.trace_to_* (bench/traced.py) sees every chunk
    serialize = trace_to_csv if args.format == "csv" else trace_to_jsonl
    with FileSink(out / f"trace.{args.format}", serialize) as sink:
        metrics, _ = run(scenario, seed_override=args.seed, sink=sink)
    _print_summary(metrics)
    _write_atomic(out / "metrics.json",
                  json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'metrics.json'} and trace.{args.format}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = read_config(args.scenario)
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("--values", "no values given")
    name = Path(args.scenario).stem
    rows = []
    out = _out_dir(args)
    for i, raw in enumerate(values):
        sub_cfg = json.loads(json.dumps(cfg))  # deep copy per run
        _set_path(sub_cfg, args.param, _parse_value(raw))
        scenario = build_scenario(sub_cfg, default_name=f"{name}[{raw}]")
        metrics, _ = run(scenario, seed_override=args.seed, sink=NullSink())
        harvested = sum(m.harvested_j for m in metrics.nodes.values())
        decoded = sum(m.decoded_bits for m in metrics.nodes.values())
        rows.append((raw, harvested, decoded))
        if out is not None:
            _write_atomic(out / f"metrics_{i}.json",
                          json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    table = "value,harvested_J,decoded_bits\n" + "".join(
        f"{v},{h!r},{d!r}\n" for v, h, d in rows
    )
    print(table, end="")
    if out is not None:
        _write_atomic(out / "sweep.csv", table)
        print(f"wrote {out / 'sweep.csv'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args.scenario)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (SimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
