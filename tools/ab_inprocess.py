"""Interleaved in-process A/B timing of two netclear checkouts.

Both checkouts' packages are loaded into one interpreter, under the aliases
``netclear_a`` and ``netclear_b``, and every op of a benchmark workload is run
through each side's ``cli.main`` in turn, which side goes first alternating
from op to op. So both sides see the same machine speed at the same moment,
which separate benchmark runs on a shared machine do not. Every op's exit
code, stdout and stderr must be identical on both sides; the first
difference stops the run and names the streams that differ. After each pass
over the ops it prints the op time of each side and the speedup ``a / b``:

    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR --workload max-pp --passes 7

The ops come from ``bench/workloads.py`` of the first checkout, written to a
temporary directory. The first pass warms both sides up; the summary line
gives the median speedup of the passes after it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time


def load_package(root: str, alias: str):
    """Import ``root/src/netclear`` as the package ``alias`` and return its
    ``cli`` module. Its modules import each other relatively, so each side
    binds only its own copies."""
    package_dir = os.path.join(root, "src", "netclear")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.cli")


def load_workloads(root: str):
    """``root/bench/workloads.py``. Building ``lattice-rings`` asks the engine
    for clearing states, so ``root``'s package is importable as ``netclear``
    too."""
    sys.path.insert(0, os.path.join(root, "src"))
    path = os.path.join(root, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["ab_workloads"] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# what ``call`` returns of an op besides its time, as a difference names it
STREAMS = ("exit code", "stdout", "stderr")


def call(cli, argv) -> tuple[int | None, str, str, float]:
    """One op: (exit code, or None when an exception escaped; stdout; stderr;
    seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # reported as a difference or a failure below
            code = None
            err.write(repr(exc))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(sides, ops, pass_index: int) -> list[float]:
    """Seconds each side spent on one pass over ``ops``. Raises
    ``AssertionError`` at the first op whose outcome differs."""
    totals = [0.0] * len(sides)
    for i, op in enumerate(ops):
        order = (0, 1) if (i + pass_index) % 2 == 0 else (1, 0)
        outcome = {}
        for side in order:
            code, stdout, stderr, elapsed = call(sides[side], op.argv)
            totals[side] += elapsed
            outcome[side] = (code, stdout, stderr)
        if outcome[0] != outcome[1]:
            differ = [name for name, a, b in zip(STREAMS, outcome[0], outcome[1]) if a != b]
            raise AssertionError(
                f"{op.key}: different {' and '.join(differ)} "
                f"(exit codes {outcome[0][0]} and {outcome[1][0]})"
            )
        if outcome[0][0] is None:
            raise AssertionError(f"{op.key}: an exception escaped cli.main on both sides")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline checkout, the numerator of the speedup")
    parser.add_argument("b", help="checkout compared with it")
    parser.add_argument("--workload", action="append", help="repeatable; default max-pp")
    parser.add_argument("--seed", type=int, help="default: the workloads' default seed")
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--ops", type=int, help="only the first N ops of each workload")
    args = parser.parse_args(argv)

    sides = (load_package(os.path.abspath(args.a), "netclear_a"),
             load_package(os.path.abspath(args.b), "netclear_b"))
    workloads = load_workloads(os.path.abspath(args.a))
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as workdir:
        for name in args.workload or ["max-pp"]:
            ops = workloads.build(name, seed, os.path.join(workdir, name))[: args.ops]
            speedups = []
            for k in range(args.passes):
                a, b = run_pass(sides, ops, k)
                speedups.append(a / b)
                print(f"{name} seed {seed} pass {k + 1}: {len(ops)} ops identical, "
                      f"a {a * 1e3 / len(ops):.2f} ms/op, b {b * 1e3 / len(ops):.2f} ms/op, "
                      f"speedup {a / b:.3f}x", flush=True)
            later = speedups[1:] or speedups
            print(f"{name} seed {seed}: median speedup {statistics.median(later):.3f}x "
                  f"(range {min(later):.3f}-{max(later):.3f}) over passes 2-{args.passes}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
