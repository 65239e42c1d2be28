"""README.md describes the scenario format the loader accepts: every key
scenario.py allows appears in it, in backticks or double quotes, and its
example scenario validates once its comments are stripped.  Its Metrics
paragraph names, in backticks, exactly the metrics.json keys a run writes,
at the top level and per node."""

import json
import re
from pathlib import Path

import sliptsim.scenario as scenario
from sliptsim.cli import main

from test_golden import _scenario_path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _accepted_keys() -> set[str]:
    keys = set()
    for name, value in vars(scenario).items():
        # tests/test_lint.py keeps every key set the loader checks in such a table
        if re.fullmatch(r"_[A-Z_]+_KEYS", name):
            keys |= value
    return keys


def test_readme_names_every_accepted_key():
    missing = sorted(k for k in _accepted_keys()
                     if f"`{k}`" not in README and f'"{k}"' not in README)
    assert missing == []


def test_readme_scenario_example_validates():
    [example] = re.findall(r"```jsonc\n(.*?)```", README, flags=re.S)
    # no string in the example holds "//", so each one starts a comment
    cfg = json.loads(re.sub(r"//.*", "", example))
    assert scenario.validate_scenario(cfg) == []


def test_readme_names_exactly_the_metrics_keys_a_run_writes(tmp_path):
    written = set()
    # a protocol fleet, and a spatial run, the one that writes spatial_assignment
    for name in ("golden_broadcast_protocol", "spatial_demo"):
        out = tmp_path / name
        assert main(["run", "--scenario", str(_scenario_path(name, tmp_path)),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        written |= set(doc) | {key for node in doc["nodes"].values() for key in node}
    [paragraph] = [p for p in README.split("\n\n") if p.startswith("**Metrics**")]
    assert set(re.findall(r"`(\w+)`", paragraph)) == written
