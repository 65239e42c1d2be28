"""Output checks for one benchmark op.

An op that exited 0 passes only if:

- every metrics file parses and every number in it is finite;
- each node closes its energy balance, harvested - consumed ==
  stored_final - stored_initial (rel 1e-9, abs 1e-9, as the engine
  tests assert), with spilled >= 0;
- a written trace ends with exactly one `end` row per node;
- a `validate` op reports the scenario valid.

The sha256 of every output file is recorded; the caller compares them
between repeats of the same (scenario, seed).
"""

import hashlib
import json
import math
from pathlib import Path


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite(value, path: str, problems: list):
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{path}: non-finite number {value!r}")
    elif isinstance(value, dict):
        for k, v in value.items():
            _finite(v, f"{path}.{k}", problems)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite(v, f"{path}[{i}]", problems)


def check_metrics(path: Path, problems: list) -> dict | None:
    """Parse one metrics file and check it; returns it, or None if unreadable."""
    try:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        problems.append(f"{path.name}: {e}")
        return None
    _finite(doc, path.name, problems)
    for node_id, m in doc.get("nodes", {}).items():
        lhs = m["harvested_J"] - m["consumed_J"]
        rhs = m["stored_final_J"] - m["stored_initial_J"]
        if not abs(lhs - rhs) <= max(1e-9 * abs(rhs), 1e-9):
            problems.append(f"{path.name}: node {node_id} energy balance "
                            f"{lhs!r} != {rhs!r}")
        if not m["spilled_J"] >= 0.0:
            problems.append(f"{path.name}: node {node_id} spilled {m['spilled_J']!r} < 0")
    return doc


def _last_rows(path: Path, fmt: str, n: int) -> list[tuple[str, str]]:
    """(node_id, event_kind) of the last n trace rows."""
    lines = path.read_text().splitlines()
    if fmt == "csv":
        header = lines[0].split(",")
        i_node, i_kind = header.index("node_id"), header.index("event_kind")
        rows = [line.split(",") for line in lines[1:][-n:]]
        return [(r[i_node], r[i_kind]) for r in rows]
    rows = [json.loads(line) for line in lines[-n:]]
    return [(r["node_id"], r["event_kind"]) for r in rows]


def check_trace(path: Path, fmt: str, nodes: list[str], problems: list):
    try:
        tail = _last_rows(path, fmt, len(nodes))
    except (OSError, ValueError, KeyError, IndexError) as e:
        problems.append(f"{path.name}: unreadable trace ({e})")
        return
    if (len(tail) != len(nodes) or any(kind != "end" for _, kind in tail)
            or sorted(node for node, _ in tail) != sorted(nodes)):
        problems.append(f"{path.name}: does not end with one end row per node")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _arg(argv: tuple, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_op(work: Path, op, res):
    """Fill res.events, res.digests and res.problems for an op that exited 0."""
    command = op.argv[0]
    problems = res.problems
    if command == "validate":
        stdout = work / f"{op.name}.stdout"
        if b"scenario is valid" not in stdout.read_bytes():
            problems.append(f"{op.name}: validate did not report a valid scenario")
        res.digests["stdout"] = _sha256(stdout)
        return
    out = work / op.out
    if command == "run":
        fmt = _arg(op.argv, "--format")
        metrics_files = [out / "metrics.json"]
        trace = out / f"trace.{fmt}"
    else:  # sweep
        n = len([v for v in _arg(op.argv, "--values").split(",") if v])
        metrics_files = [out / f"metrics_{i}.json" for i in range(n)]
        trace = None
    for path in metrics_files:
        doc = check_metrics(path, problems)
        if doc is None:
            continue
        res.events += doc.get("events_processed", 0)
        res.digests[path.name] = _sha256(path)
        if trace is not None:
            check_trace(trace, fmt, list(doc.get("nodes", {})), problems)
            if trace.exists():
                res.digests[trace.name] = _sha256(trace)
    if command == "sweep":
        table = out / "sweep.csv"
        if table.exists():
            res.digests[table.name] = _sha256(table)
        else:
            problems.append(f"{op.name}: sweep.csv missing")
