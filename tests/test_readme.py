"""README.md describes the scenario format the loader accepts: every key
scenario.py allows appears in it, in backticks or double quotes, and its
example scenario validates once its comments are stripped."""

import json
import re
from pathlib import Path

import sliptsim.scenario as scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _accepted_keys() -> set[str]:
    keys = set()
    for name, value in vars(scenario).items():
        if re.fullmatch(r"_[A-Z_]+_KEYS", name):
            keys |= value
    for allowed, _build in scenario._POLICIES.values():
        keys |= allowed
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
