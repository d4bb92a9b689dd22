"""Byte guard: results stay identical to the recorded benchmark reference.

The ops come from the benchmark's own workload code at its default seed: all
600 ``sweep-small`` ops (``validate``, ``min-clear`` and ``max-clear-pp``), all
72 ``lattice-rings`` ops (flood max, range and trade, which run min-clear and
the walks above it), all 24 ``min-prop`` ops (min-clear on the largest
networks, n = 50) and the first 20 ``max-pp`` ops (counter descent on mixed
class schemes); the slow tier checks all 200 ``max-pp`` ops. Each runs through
``netclear.cli.main`` with stdout captured, and its exit code and the
sha256 of its stdout must equal ``bench/reference.json``. The input
documents are written to a temporary directory; nothing under ``bench/`` is
written.
"""

import importlib.util
import json
import os

import pytest

from netclear import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = str(tmp_path_factory.mktemp("bench-out"))
    return module


def of_kind(kind):
    return lambda ops: [op for op in ops if op.kind == kind]


# case -> (workload, ops picked from its full list, how many that must be)
PICKS = {
    "sweep-small": ("sweep-small", of_kind("min-clear"), 200),
    "sweep-small-pp": ("sweep-small", of_kind("max-clear-pp"), 200),
    "sweep-small-validate": ("sweep-small", of_kind("validate"), 200),
    "min-prop": ("min-prop", lambda ops: ops, 24),
    "lattice-rings": ("lattice-rings", lambda ops: ops, 72),
    "max-pp": ("max-pp", lambda ops: ops[:20], 20),
    "max-pp-all": ("max-pp", lambda ops: ops, 200),
}
SLOW = {"max-pp-all"}


@pytest.mark.parametrize(
    "case", [pytest.param(c, marks=pytest.mark.slow) if c in SLOW else c for c in sorted(PICKS)]
)
def test_outputs_match_reference_digests(bench_run, case):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    seed = bench_run.workloads.DEFAULT_SEED
    assert reference["seed"] == seed
    workload, pick, count = PICKS[case]
    ops = pick(bench_run.build_ops(workload, seed))
    assert len(ops) == count
    expected = reference["workloads"][workload]
    mismatched = []
    for op in ops:
        code, stdout, _ = bench_run.call(cli, op)
        if [code, bench_run.verify.digest(stdout)] != expected[op.key]:
            mismatched.append(op.key)
    assert not mismatched
