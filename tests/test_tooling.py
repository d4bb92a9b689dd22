"""Package metadata and the benchmark's tracing hooks stay in step with the
code they describe."""

import importlib
import importlib.util
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
