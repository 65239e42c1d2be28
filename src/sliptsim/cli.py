"""Command-line interface: run, sweep, validate.

    sliptsim run --scenario tank.json [--seed 7] [--out DIR] [--format csv]
    sliptsim sweep --scenario tank.json --param transmitters[0].power \
        --values 1W,2W,4W [--out DIR]
    sliptsim validate --scenario tank.json

Exit codes: 0 on success, 1 on configuration or simulation errors, 2 on
command-line usage errors.  An error that stops a command, a scenario
file that cannot be read included, is printed by main() as
"error: <path>: <message>"; `validate` lists the issues it finds one a
line.  Output files go to --out; without it, results are only printed.
A command writes its files into a staging directory under --out,
making --out and its parents as needed, and moves them into place only
once the last one is written, so a command that fails leaves --out as it
found it, or not there if it made it; the trace streams into the
staging directory while the run goes on, and `sweep` and a `run` without
an output directory build no trace at all.  So only `run` takes --format:
`sweep --format` is a usage error.

An empty --out is refused before anything is read, written or removed.

Every file is written as UTF-8 with "\n" line ends, whatever the locale;
a character the terminal's encoding cannot show is printed escaped.  Each
metrics file is encoded straight into its file, so no command holds a
whole JSON text.  main() imports the event loop (sliptsim.engine) for
`run` and `sweep` before the command reads its scenario, so compiling it
adds nothing to the memory a live scenario holds; `validate` loads only
the loader and the models.
"""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import sys
from pathlib import Path

from sliptsim.errors import ConfigError, SimError
from sliptsim.scenario import build_scenario, load_scenario, read_config, validate_scenario
from sliptsim.trace import FileSink, NullSink, trace_to_csv, trace_to_jsonl

_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")
_METRICS_NAME = re.compile(r"metrics_(0|[1-9][0-9]*)\.json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliptsim",
        description="Discrete-event simulator for underwater optical "
                    "light-powered sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="simulate one scenario")
    p_sweep = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    p_val = sub.add_parser("validate", help="check a scenario file")
    for p in (p_run, p_sweep, p_val):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
    for p in (p_run, p_sweep):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's random seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: print only)")
    # only run writes a trace
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                       help="trace file format (default: csv)")
    p_sweep.add_argument("--param", required=True,
                         help="config path to vary, e.g. transmitters[0].power")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values to substitute")
    return parser


def run(scenario, seed_override=None, sink=None):
    """Simulation(scenario, seed_override, sink).run(); imports the engine on first call."""
    from sliptsim.engine import Simulation
    return Simulation(scenario, seed_override, sink).run()


class _Staging:
    """The files one command writes to `out`, held in a staging directory
    under it until commit() moves them into place.  Leaving the with block
    removes the directory and anything still in it, and a block that
    fails before the commit also removes `out` and the parents it made,
    so a failed command leaves `out` as it was, or not there; commit()
    checks every target before it moves the first file.
    """

    def __init__(self, out: Path):
        self.out = out
        self.dir = out / f".sliptsim-staging-{os.getpid()}"
        self.names: list[str] = []
        self.made: list[Path] = []  # outermost first
        try:
            for d in (*reversed(out.parents), out):
                if not d.is_dir():
                    d.mkdir()
                    self.made.append(d)
            self.dir.mkdir()
        except BaseException:
            self._unmake()
            raise

    def _unmake(self):
        for d in reversed(self.made):
            d.rmdir()

    def path(self, name: str) -> Path:
        """Where to write the file that commit() moves to out/name."""
        self.names.append(name)
        return self.dir / name

    def write(self, name: str, text: str):
        self.path(name).write_text(text, encoding="utf-8", newline="\n")

    def write_json(self, name: str, doc: dict):
        """doc as indented, key-sorted JSON and a newline, written as it is encoded."""
        with open(self.path(name), "w", encoding="utf-8", newline="\n") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    def commit(self):
        targets = [self.out / name for name in self.names]
        for target in targets:  # os.replace cannot put a file there: fail before moving any
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(target))
        self.made = []  # they hold this command's files from here on
        for name, target in zip(self.names, targets):
            os.replace(self.dir / name, target)

    def __enter__(self) -> "_Staging":
        return self

    def __exit__(self, exc_type, exc, tb):
        for name in os.listdir(self.dir):
            os.remove(self.dir / name)
        self.dir.rmdir()
        if exc_type is not None:
            self._unmake()


def _out(args) -> Path | None:
    if args.out == "":  # Path("") is the working directory
        raise ConfigError("--out", "empty path")
    return None if args.out is None else Path(args.out)


def _set_path(cfg, dotted: str, value):
    """Set cfg[...] following a path like nodes[0].policy.alpha: an [i]
    token only indexes a list, and a name only keys an object."""
    tokens = [
        m.group(1) if m.group(1) is not None else int(m.group(2))
        for m in _PATH_TOKEN.finditer(dotted)
    ]
    if not tokens:
        raise ConfigError("--param", "empty parameter path")
    target = cfg
    for depth, token in enumerate(tokens, 1):
        if not isinstance(target, list if isinstance(token, int) else dict):
            raise ConfigError(dotted, f"cannot take {token!r} from {type(target).__name__}")
        # the last token is set: a key may be new, an index must exist
        if depth == len(tokens) and not (isinstance(token, int) and token >= len(target)):
            target[token] = value
            return
        try:
            target = target[token]
        except (KeyError, IndexError):
            raise ConfigError(dotted, f"path not found at {token!r}") from None


def _parse_value(text: str):
    """Sweep values: JSON scalars when they parse, raw strings otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _print_summary(d: dict):
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
    issues = validate_scenario(read_config(scenario_path))
    if issues:
        for issue in issues:
            print(issue, file=sys.stderr)
        print(f"{len(issues)} issue(s) found", file=sys.stderr)
        return 1
    print("scenario is valid")
    return 0


def _cmd_run(args) -> int:
    out = _out(args)
    scenario = load_scenario(args.scenario)
    if out is None:
        metrics, _ = run(scenario, seed_override=args.seed, sink=NullSink())
        _print_summary(metrics.to_dict())
        return 0
    # this module's names, so a wrapper on cli.trace_to_* (bench/traced.py) sees every chunk
    serialize = trace_to_csv if args.format == "csv" else trace_to_jsonl
    with _Staging(out) as staging:
        with FileSink(staging.path(f"trace.{args.format}"), serialize) as sink:
            metrics, _ = run(scenario, seed_override=args.seed, sink=sink)
        doc = metrics.to_dict()
        _print_summary(doc)
        staging.write_json("metrics.json", doc)
        staging.commit()
    print(f"wrote {out / 'metrics.json'} and trace.{args.format}")
    return 0


def _cmd_sweep(args) -> int:
    out = _out(args)
    cfg = read_config(args.scenario)
    # scenario text, so UTF-8 as the file is; a locale that cannot decode
    # the bytes (LC_ALL=C) passes them on as surrogate escapes
    try:
        text = args.values.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError("--values", "not UTF-8 text") from None
    values = [v for v in text.split(",") if v != ""]
    if not values:
        raise ConfigError("--values", "no values given")
    rows = []
    with (contextlib.nullcontext() if out is None else _Staging(out)) as staging:
        for i, raw in enumerate(values):
            # in place: build_scenario never writes to cfg, and each value
            # replaces the one before it at the same path
            _set_path(cfg, args.param, _parse_value(raw))
            # one value's scenario and metrics are alive at a time: no name holds
            # the scenario, freed once its run returns, and the metrics go before
            # the next value builds
            metrics, _ = run(build_scenario(cfg), seed_override=args.seed, sink=NullSink())
            harvested = sum(m.harvested_j for m in metrics.nodes.values())
            decoded = sum(m.decoded_bits for m in metrics.nodes.values())
            rows.append((raw, harvested, decoded))
            if staging is not None:
                staging.write_json(f"metrics_{i}.json", metrics.to_dict())
            del metrics
        table = "value,harvested_J,decoded_bits\n" + "".join(
            f"{v},{h!r},{d!r}\n" for v, h, d in rows
        )
        print(table, end="")
        if staging is not None:
            staging.write("sweep.csv", table)
            staging.commit()
    if out is not None:
        # every metrics_<i>.json left in out is this sweep's
        for name in os.listdir(out):
            i = _METRICS_NAME.fullmatch(name)
            if i is not None and int(i[1]) >= len(values):
                os.remove(out / name)
        print(f"wrote {out / 'sweep.csv'}")
    return 0


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # a node id the locale cannot encode
        sys.stdout.reconfigure(errors="backslashreplace")  # prints escaped, not a traceback
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args.scenario)
        # the loop is compiled (without a bytecode cache) while no scenario is
        # alive, so the compiler's transient memory does not stack on it
        import sliptsim.engine  # noqa: F401
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (SimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
