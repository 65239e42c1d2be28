"""Import and export lint for the package, without a linter installed.

Every name a module of src/sliptsim imports must be used in that module
(string annotations count), unless its import statement carries
`# noqa: F401`.  The package root binds no name but __version__: each
name is imported from its own module.  No module reads an environment
variable, so every setting is a command-line option or a scenario key.
The engine keeps a few imports it does not use only so that
bench/traced.py can time them as `engine.<name>`; each of those must
still be in traced.py's TIMED table.  A private module-level name (an
assignment, function or class named `_x`) must be read somewhere in
src/sliptsim or bench/, so a leftover of deleted code cannot linger.
No validate, run or sweep, calm or turbulent, loads numpy or OpenSSL's
libcrypto (`_hashlib`), and no validate loads the event loop: the
loader and the trace module import nothing from the engine.  A run or
sweep has loaded it before it reads its scenario.  A model
module raises DomainError, never ConfigError: config paths are the
loader's to name, in one handler.  The engine records a full charge in
one method, and only the CLI's staging commit renames a file.  Every unit kind in units._UNIT_TABLES is the kind of some
field scenario.py parses.  The records built from the loader's values
declare no parameter defaults.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sliptsim
import sliptsim.units

PACKAGE = Path(sliptsim.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACED = BENCH / "traced.py"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module, lines: list[str], noqa: bool = False) -> dict[str, int]:
    """Name bound by each import outside (or, with noqa, inside) a
    `# noqa: F401` statement -> line."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if ("noqa: F401" in lines[node.lineno - 1]) is not noqa:
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _string_annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (args.posonlyargs + args.args
                                                  + args.kwonlyargs)]
            annotations += [args.vararg and args.vararg.annotation,
                            args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    trees = [tree, *_string_annotations(tree)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_numpy_is_no_runtime_dependency():
    # fades come from random.Random; numpy is only in the test extra
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "numpy" not in roots, f"{path.name}:{node.lineno}"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    unused = set(_imported(tree, text.splitlines())) - _used(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_the_package_root_binds_only_its_version():
    # no alias table: a name is read from the module that defines it
    bound = set()
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
    assert bound == {"__version__"}


_ENVIRON = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_an_environment_variable():
    # a setting is a command-line option or a scenario key
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & _ENVIRON, f"{path.name}:{node.lineno} reads the environment"


def _timed_names() -> set[str]:
    tree = ast.parse(TRACED.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/traced.py has no TIMED table")


def test_the_engine_calls_only_heappush_and_heappop():
    # tests stand in for engine.heapq with a namespace of these two; any other
    # heapq call would break them only on the runs where a sweep happens
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "heapq", f"engine.py:{node.lineno}: import heapq itself"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name != "heapq" or alias.asname is None, (
                    f"engine.py:{node.lineno}: heapq imported under another name")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id != "heapq" or node.attr in ("heappush", "heappop"), (
                f"engine.py:{node.lineno}: heapq.{node.attr}")


def test_engine_noqa_imports_are_the_ones_the_bench_times():
    path = PACKAGE / "engine.py"
    text = path.read_text()
    kept = _imported(ast.parse(text), text.splitlines(), noqa=True)
    untimed = sorted(name for name in kept if f"engine.{name}" not in _timed_names())
    assert not untimed, f"engine.py keeps imports bench/traced.py does not time: {untimed}"


MODELS = ["channel.py", "harvester.py", "energy_store.py", "policy.py", "node.py"]


@pytest.mark.parametrize("name", MODELS)
def test_model_modules_do_not_import_config_error(name):
    text = (PACKAGE / name).read_text()
    tree, lines = ast.parse(text), text.splitlines()
    imported = {**_imported(tree, lines), **_imported(tree, lines, noqa=True)}
    assert "ConfigError" not in imported, f"{name} imports ConfigError; raise DomainError"


def test_the_loader_maps_domain_errors_in_one_place():
    # scenario._model is the one place a model's DomainError becomes a
    # ConfigError at its config path; a second handler would be a second copy
    tree = ast.parse((PACKAGE / "scenario.py").read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                and node.type is not None and "DomainError" in ast.unparse(node.type)]
    [model] = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_model"]
    assert len(handlers) == 1 and handlers[0] in list(ast.walk(model)), (
        f"scenario.py handles DomainError at lines {[h.lineno for h in handlers]}")


@pytest.mark.parametrize("name", ["scenario.py", "trace.py"])
def test_the_loader_and_the_trace_import_nothing_from_the_engine(name):
    # the engine imports these two, so validate can load them without the loop
    for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        assert "sliptsim.engine" not in modules, f"{name}:{node.lineno}"


def test_the_engine_records_a_full_charge_in_one_place():
    # Simulation._record_full is the one place a not-full -> full transition
    # is recorded; _refresh and the end of run both call it
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    appends = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func).endswith("charge_completions.append")]
    [sim] = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Simulation"]
    [record] = [f for f in sim.body if isinstance(f, ast.FunctionDef) and f.name == "_record_full"]
    assert len(appends) == 1 and appends[0] in list(ast.walk(record)), (
        f"engine.py appends to charge_completions at lines {[a.lineno for a in appends]}")


def test_only_the_cli_staging_commit_renames_a_file():
    # one atomic-write path: a command's files reach --out through
    # cli._Staging.commit, and nothing else moves a file into place
    renames = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"replace", "rename"}, f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.replace",
                                                                           "os.rename"):
                renames.append((path.name, node))
        if path.name == "cli.py":
            [staging] = [c for c in tree.body
                         if isinstance(c, ast.ClassDef) and c.name == "_Staging"]
            [commit] = [f for f in staging.body
                        if isinstance(f, ast.FunctionDef) and f.name == "commit"]
            inside = list(ast.walk(commit))
    outside = [f"{name}:{node.lineno}" for name, node in renames if node not in inside]
    assert len(renames) == 1 and not outside, f"renames outside _Staging.commit: {outside}"


def _parsed_kinds() -> set[str]:
    """The literal kind of every _qty(obj, key, kind, ...) and
    parse_quantity(value, kind, ...) call in scenario.py, and each
    keyword kind of every _given(obj, path, key=kind, ...) call (the calls
    that pass a variable, inside _qty and _given, name no kind of their
    own).  A _given keyword must be a literal kind."""
    position = {"_qty": 2, "parse_quantity": 1}
    kinds = set()
    for node in ast.walk(ast.parse((PACKAGE / "scenario.py").read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id in position:
            kind = node.args[position[node.func.id]]
            if isinstance(kind, ast.Constant):
                kinds.add(kind.value)
        elif node.func.id == "_given":
            for keyword in node.keywords:
                assert keyword.arg is not None and isinstance(keyword.value, ast.Constant), (
                    f"scenario.py:{node.lineno}: _given takes key=\"kind\" literals only")
                kinds.add(keyword.value.value)
    return kinds


def test_every_unit_kind_is_parsed_by_some_field():
    # a unit table no field parses accepts suffixes no scenario can use
    tables = set(sliptsim.units._UNIT_TABLES)
    kinds = _parsed_kinds()
    assert sorted(tables - kinds) == []
    assert sorted(kinds - tables) == []


# records built only from the loader's values (NodeState by the engine, from
# a NodeDef): the loader states every value a file leaves out
RECORDS = {"scenario.py": ["TransmitterDef", "NodeDef", "Scenario"],
           "node.py": ["NodeState"]}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items()
                                          for n in names])
def test_loader_built_records_declare_no_defaults(module, name):
    # a default here would be a second copy of the loader's, free to drift
    tree = ast.parse((PACKAGE / module).read_text())
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    [init] = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    defaults = init.args.defaults + [d for d in init.args.kw_defaults if d is not None]
    assert defaults == [], f"{module}:{init.lineno} {name}.__init__ declares defaults"


def _private_module_names(tree: ast.Module) -> dict[str, int]:
    """Module-level `_name` bound by an assignment, def or class -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


def test_every_private_module_name_is_read():
    trees = {path: ast.parse(path.read_text())
             for path in [*MODULES, *sorted(BENCH.glob("*.py"))]}
    read = set()
    for tree in trees.values():
        for sub in (tree, *_string_annotations(tree)):
            for node in ast.walk(sub):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    dead = [f"{path.name}:{line} {name}" for path in MODULES
            for name, line in _private_module_names(trees[path]).items() if name not in read]
    assert not dead, f"private names nothing reads: {dead}"


# runs each argv through main() in one fresh interpreter, then prints
# whether the event loop was loaded as each read_config call began, and
# which of the watched modules got imported
_IMPORT_PROBE = """
import json, sys
import sliptsim.cli as cli
import sliptsim.scenario as scenario
argvs, watched = json.loads(sys.argv[1])
engine_at_read = []

def probed(read):
    def read_config(path):
        engine_at_read.append("sliptsim.engine" in sys.modules)
        return read(path)
    return read_config

cli.read_config = probed(cli.read_config)
scenario.read_config = probed(scenario.read_config)  # load_scenario's
for argv in argvs:
    assert cli.main(argv) == 0, argv
print(json.dumps(engine_at_read))
print(json.dumps(sorted(m for m in watched if m in sys.modules)))
"""
HEAVY = ["_hashlib", "numpy", "dataclasses", "inspect"]


def _probe(argvs: list[list[str]], watched: list[str]) -> tuple[list[bool], list[str]]:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps([argvs, watched])],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *_, engine_at_read, modules = proc.stdout.splitlines()
    return json.loads(engine_at_read), json.loads(modules)


def _modules_after(argvs: list[list[str]], watched: list[str] = HEAVY) -> list[str]:
    return _probe(argvs, watched)[1]


def test_validate_loads_no_event_loop():
    """validate checks every bundled file with the loader and the models
    alone; the first run imports the loop."""
    argvs = [["validate", "--scenario", str(path)] for path in sorted(SCENARIOS.glob("*.json"))]
    assert argvs
    assert _modules_after(argvs, ["sliptsim.engine"]) == []
    run = ["run", "--scenario", str(SCENARIOS / "vertical_supercap.json")]
    assert _modules_after([*argvs, run], ["sliptsim.engine"]) == ["sliptsim.engine"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_load_the_event_loop_before_their_scenario(command):
    """Without a bytecode cache the loop is compiled as it is imported; done
    before the scenario is read, the compiler's memory does not stack on it."""
    argv = [command, "--scenario", str(SCENARIOS / "vertical_supercap.json")]
    if command == "sweep":
        argv += ["--param", "transmitters[0].power", "--values", "1W,2W"]
    assert _probe([argv], [])[0] == [True]


def test_a_calm_run_loads_no_numpy_openssl_dataclasses_or_inspect(tmp_path):
    """A calm validate, run and sweep never import numpy or OpenSSL's
    _hashlib, nor dataclasses, which would bring inspect, ast, dis and
    tokenize into every process start."""
    tank = str(SCENARIOS / "tank_1m5.json")  # no turbulence: no fade is drawn
    argvs = [["validate", "--scenario", tank],
             ["run", "--scenario", tank, "--out", str(tmp_path / "run")],
             ["sweep", "--scenario", tank, "--out", str(tmp_path / "sweep"),
              "--param", "transmitters[0].power", "--values", "1W,2W,3W"],
             ["run", "--scenario", str(SCENARIOS / "vertical_supercap.json")]]
    assert _modules_after(argvs) == []


def test_a_turbulent_run_loads_no_numpy_openssl_dataclasses_or_inspect(tmp_path):
    """A run and a sweep that draw a fade every slot import none of them
    either: fades come from random.Random."""
    demo = str(SCENARIOS / "turbulent_demo.json")
    argvs = [["run", "--scenario", demo, "--out", str(tmp_path / "demo")],
             ["sweep", "--scenario", demo, "--out", str(tmp_path / "demo_sweep"),
              "--param", "transmitters[0].power", "--values", "1W,2W"]]
    assert _modules_after(argvs) == []
