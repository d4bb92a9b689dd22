"""Byte guard: min-clear results stay identical to the recorded benchmark
reference.

The ops come from the benchmark's own workload code at its default seed: every
``min-clear`` op of ``sweep-small`` and the first 24 ``lattice-rings`` ops
(flood max, range and trade, which run min-clear inside). Each runs through
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


PICKS = {
    "sweep-small": lambda ops: [op for op in ops if op.kind == "min-clear"],
    "lattice-rings": lambda ops: ops[:24],
}


@pytest.mark.parametrize("workload", sorted(PICKS))
def test_outputs_match_reference_digests(bench_run, workload):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    seed = bench_run.workloads.DEFAULT_SEED
    assert reference["seed"] == seed
    ops = PICKS[workload](bench_run.build_ops(workload, seed))
    assert len(ops) >= 24
    expected = reference["workloads"][workload]
    mismatched = []
    for op in ops:
        code, stdout, _ = bench_run.call(cli, op)
        if [code, bench_run.verify.digest(stdout)] != expected[op.key]:
            mismatched.append(op.key)
    assert not mismatched
