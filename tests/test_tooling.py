"""Package metadata, README's examples and the benchmark's tracing hooks stay
in step with the code they describe, and the package stays cheap to import
and to compile."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import netclear
from netclear import io as netio

ROOT = Path(__file__).resolve().parent.parent


def test_single_version_literal():
    from setuptools.config.pyprojecttoml import read_configuration

    config = read_configuration(str(ROOT / "pyproject.toml"))
    assert config["project"]["version"] == netclear.__version__
    assert netio.SOLVER_VERSION == netclear.__version__


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_exist():
    # bench/run.py --trace 1 wraps these functions by name; a rename must fail
    # here rather than crash a traced run.
    tracing = load_tracing()
    missing = [
        f"{module}.{name}"
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"netclear.{module}"), name, None))
    ]
    assert missing == []


def test_matrix_counts_on_sparse_rows():
    # The tracer's linalg dim/nnz figures read the first argument of both
    # linalg functions, which are sparse (column, value) rows.
    rows = [[(0, Fraction(1)), (2, Fraction(-1, 2))], [], [(1, Fraction(3))]]
    assert load_tracing()._matrix_counts(rows) == (3, 3)


# Every run of the CLI imports the package afresh. These modules cost
# milliseconds of that cold start (``dataclasses`` alone pulls in the other
# four) and the package needs none of them.
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# The standard-library modules a cold ``import netclear.cli`` may load, by
# top-level name; C accelerators (a leading underscore) are not listed.
IMPORT_ALLOWLIST = frozenset(
    {
        "bisect", "collections", "copyreg", "decimal", "enum", "fractions",
        "functools", "genericpath", "heapq", "itertools", "json", "keyword",
        "math", "netclear", "numbers", "operator", "os", "posixpath", "re",
        "reprlib", "sre_compile", "sre_constants", "sre_parse", "stat", "types",
        "warnings",
    }
)
# Loaded only for help and usage errors: a run that succeeds reads its argv
# without them.
ARGPARSE_IMPORTS = ("argparse", "gettext")


def fresh_python(*args, env=None):
    """Run a fresh interpreter without site (-S), which may import some of
    the modules these tests look for itself."""
    return subprocess.run(
        [sys.executable, "-S", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {})),
        capture_output=True, text=True, timeout=60,
    )


def test_cli_import_surface():
    code = (
        "import sys; before = set(sys.modules); import netclear.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = set(fresh_python("-c", code).stdout.split())
    assert "netclear.cli" in added
    assert sorted(added.intersection(HEAVY_IMPORTS + ARGPARSE_IMPORTS)) == []
    assert sorted(
        name for name in added
        if name[0] != "_" and name.partition(".")[0] not in IMPORT_ALLOWLIST
    ) == []


def test_successful_run_loads_no_argparse(tmp_path):
    # what ``python -m netclear.cli validate <file>`` runs, then its modules
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('netclear.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    path = tmp_path / "net.json"
    path.write_text('{"format_version": "1", "banks": [{"id": "a"}]}')
    done = fresh_python("-c", code, "validate", str(path))
    exit_code, *modules = done.stderr.split()
    assert exit_code == "0" and '"operation": "validate"' in done.stdout
    assert sorted(set(modules).intersection(ARGPARSE_IMPORTS)) == []


def test_help_and_usage_errors_through_argparse(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    from oracles import reference_parser

    done = fresh_python("-m", "netclear.cli", "--help", env={"COLUMNS": "100"})
    assert done.returncode == 0
    assert done.stdout == reference_parser().format_help()
    done = fresh_python("-m", "netclear.cli", "bogus-command")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: netclear")


# CPython's parser doubles its token buffer at 4,096 tokens; a module past
# that raises the peak memory of every process that compiles the package.
# ``tokenize`` also counts comments and blank lines, so the count is an upper
# bound on the parser's.
PARSER_TOKEN_BUFFER = 4096


def module_token_counts() -> dict[str, int]:
    sizes = {}
    for path in sorted((ROOT / "src" / "netclear").glob("*.py")):
        with open(path, "rb") as source:
            sizes[path.name] = sum(1 for _ in tokenize.tokenize(source.readline))
    return sizes


def test_modules_fit_the_parser_token_buffer():
    sizes = module_token_counts()
    assert {name: n for name, n in sizes.items() if n >= PARSER_TOKEN_BUFFER} == {}


def test_package_size_counts_tokens_as_the_buffer_check():
    # this checkout against itself: every delta is 0, and the totals are the
    # sums of the counts above and of the source lines
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "package_size.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    sizes = module_token_counts()
    assert [line.split()[0] for line in lines] == [*sizes, "total"]
    assert all(line.count("(+0)") == 2 for line in lines)
    total = lines[-1].split()
    tokens = sum(sizes.values())
    source_lines = sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src" / "netclear").glob("*.py")
    )
    assert [int(total[i]) for i in (2, 4, 7, 9)] == [tokens, tokens, source_lines, source_lines]


def test_package_size_names_a_missing_package_directory(tmp_path):
    # a path without src/netclear, given alone or beside a checkout
    for argv in ([str(tmp_path)], [str(ROOT), str(tmp_path)], ["src"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "package_size.py"), *argv],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        missing = os.path.join(argv[-1], "src", "netclear")
        assert done.returncode == 2
        assert (done.stdout, done.stderr) == (
            "", f"package_size.py: no package directory {missing}\n"
        )


def test_private_helpers_have_package_callers():
    # A module-level function or class whose name starts with "_" serves the
    # package alone, so package code other than its own definition must
    # reference it; one left behind by a deletion fails here, even when a
    # test still calls it.
    defined, uses = [], {}
    for path in sorted((ROOT / "src" / "netclear").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "")
            site = (path.stem, name)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.startswith("_"):
                if not name.endswith("__"):
                    defined.append(site)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    used = sub.id if isinstance(sub, ast.Name) else sub.attr
                    uses.setdefault(used, set()).add(site)
    assert len(defined) >= 30
    unused = [f"{m}.{name}" for m, name in defined if not uses.get(name, set()) - {(m, name)}]
    assert unused == []


# the mutable state of the walks, and the validation failure with its own
# repr: the slotted classes that are not records
PLAIN_SLOTTED = {"ActiveGraph", "AdjustedNetwork", "ClearingState", "_CounterSystem", "Violation"}
# records built once per claim at load, by a constructor that derives or
# defaults fields
OWN_CONSTRUCTORS = {"Bank", "Claim", "PaymentFunction"}


def test_slotted_classes_are_records_or_working_state():
    # A record is an ``axioms._Value``: frozen, equal by value and picklable,
    # and it takes its fields by position unless it is one of the few with a
    # constructor of their own.
    from netclear.axioms import _Value

    plain, records = set(), {}
    for path in sorted((ROOT / "src" / "netclear").glob("*.py")):
        module = importlib.import_module(f"netclear.{path.stem}")
        for name, obj in vars(module).items():
            if not isinstance(obj, type) or obj.__module__ != module.__name__ or obj is _Value:
                continue
            if issubclass(obj, _Value):
                records[name] = "__init__" in vars(obj)
            elif "__slots__" in vars(obj):
                plain.add(name)
    assert plain == PLAIN_SLOTTED
    assert len(records) >= 10
    assert {name for name, own in records.items() if own} == OWN_CONSTRUCTORS


def test_sources_parse_as_the_oldest_supported_python():
    # The tests may run on a newer interpreter than the oldest one
    # pyproject.toml allows, so every source file is parsed with that
    # version's grammar; library calls such as zip(strict=True) are not
    # checked here.
    from setuptools.config.pyprojecttoml import read_configuration

    floor = read_configuration(str(ROOT / "pyproject.toml"))["project"]["requires-python"]
    assert floor.startswith(">=")
    version = tuple(int(part) for part in floor[2:].split("."))
    paths = [
        path
        for top in ("src", "tests", "tools", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert version == (3, 10) and len(paths) >= 40
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_io_imports_no_solver():
    # Importing ``netclear.io`` loads ``__init__`` and with it every module, so
    # the check reads the relative imports of the source itself.
    tree = ast.parse((ROOT / "src" / "netclear" / "io.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else (a.name for a in node.names))
    solvers = {"lattice", "minimal", "graphs", "linalg", "priority", "trade"}
    assert sorted(imported & solvers) == []


FIXED_POINT_CHECK = "is_clearing_state"


def test_fixed_point_check_sites():
    # The CLI checks every state it writes, once, and nothing else in the
    # package checks a state: the checks of the driver's steps live in the
    # tests (``graph_checks.check_driver``), and a solver that checks its
    # own result again fails here.
    uses, importers = set(), set()
    for path in sorted((ROOT / "src" / "netclear").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == FIXED_POINT_CHECK for alias in node.names):
                    importers.add(path.stem)
                continue
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, ast.FunctionDef):
                    name = sub.name
                if name == FIXED_POINT_CHECK:
                    uses.add((path.stem, getattr(node, "name", None)))
    assert uses == {("clearing", FIXED_POINT_CHECK), ("cli", "_checked")}
    assert importers == {"__init__", "cli"}


def test_package_reexports_resolve():
    # ``__init__`` has no ``__all__``: its public names are those of its
    # ``from .x import ...`` lines, read from the source so that a lazy
    # ``__init__`` is held to the same names.
    tree = ast.parse((ROOT / "src" / "netclear" / "__init__.py").read_text())
    exported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(exported) >= 38
    for module, name, public in exported:
        source = importlib.import_module(f"netclear.{module}")
        assert getattr(netclear, public) is getattr(source, name), public


def test_ab_inprocess_runs_two_checkouts_side_by_side():
    # both sides are this checkout, so every op must come out identical
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT),
         "--workload", "sweep-small", "--ops", "4", "--passes", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all("4 ops identical" in line for line in lines[:2])
    assert lines[2].startswith("sweep-small seed 20260217: median speedup")


def test_readme_python_blocks_run():
    """Every ``python`` block of README.md runs as written, each in a fresh
    namespace, so its examples cannot go stale."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
