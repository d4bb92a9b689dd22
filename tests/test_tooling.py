"""Package metadata and the benchmark's tracing hooks stay in step with the
code they describe, and the package stays cheap to import and to compile."""

import importlib
import importlib.util
import os
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
        "argparse", "bisect", "collections", "copyreg", "decimal", "enum",
        "fractions", "functools", "genericpath", "gettext", "heapq", "itertools",
        "json", "keyword", "math", "netclear", "numbers", "operator", "os",
        "posixpath", "re", "reprlib", "sre_compile", "sre_constants", "sre_parse",
        "stat", "types", "warnings",
    }
)


def test_cli_import_surface():
    # -S leaves out site, which may import some of these modules itself
    code = (
        "import sys; before = set(sys.modules); import netclear.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "netclear.cli" in added
    assert sorted(added.intersection(HEAVY_IMPORTS)) == []
    assert sorted(
        name for name in added
        if name[0] != "_" and name.partition(".")[0] not in IMPORT_ALLOWLIST
    ) == []


# CPython's parser doubles its token buffer at 4,096 tokens; a module past
# that raises the peak memory of every process that compiles the package.
# ``tokenize`` also counts comments and blank lines, so the count is an upper
# bound on the parser's.
PARSER_TOKEN_BUFFER = 4096


def test_modules_fit_the_parser_token_buffer():
    sizes = {}
    for path in sorted((ROOT / "src" / "netclear").glob("*.py")):
        with open(path, "rb") as source:
            sizes[path.name] = sum(1 for _ in tokenize.tokenize(source.readline))
    assert {name: n for name, n in sizes.items() if n >= PARSER_TOKEN_BUFFER} == {}
