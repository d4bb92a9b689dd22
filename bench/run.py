"""Closed-loop benchmark of the netclear CLI.

One client in one process calls ``netclear.cli.main(argv)`` with stdout
captured, so each timed operation spans JSON parse, compute and the
serialized ResultDocument. Inputs come from ``--seed`` and are written at
set-up; every result is checked (``verify.py``) between operations, outside
the timed calls.

    python3 bench/run.py --workload max-pp --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all       # every workload, default seed

``BENCHMARK.json`` lists the workloads a regression check runs. ``min-prop``
(n=50 proportional min-clear, about 1.5 s per op) is left out of it: with
some 15 ops per run its median moved with each seed's networks. It stays
runnable here for scale measurements.

Op timings are reported at a reference machine speed. On a shared 2-vCPU
Xeon VM the whole machine ran up to 1.9x slower for minutes at a time: over
ten runs, raw op medians spread by up to 36% (quartile distance / median). So each run also times a speed
probe that runs no engine code (the benchmark's own clearing map on a fixed
network), spread over the run, and multiplies op times by
``(PROBE_REFERENCE_S / probe median) ** PROBE_ELASTICITY``. ``setup_s`` is
reported as measured.
Raw figures and the probe are kept in the results record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each op
untraced and traced, and reports per-layer figures from the traced runs
together with the untraced latency per op kind and the tracing overhead.
The last line of stdout is the result as one JSON object; a fuller record
(environment, raw figures, tail latency, failures, spans) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

KIND_METRICS = {
    "validate": "kind.validate_ms",
    "min-clear": "kind.min_clear_ms",
    "max-clear-pp": "kind.max_clear_pp_ms",
    "max-clear-flood": "kind.max_clear_flood_ms",
    "range": "kind.range_ms",
    "trade": "kind.trade_ms",
}
IMPORT_SPAWNS = 20
PROBE_SAMPLES = 100
PROBE_REFERENCE_S = 0.003
# Op time moves less than the probe when the machine's speed drifts: over 20
# runs the log-log slope of op time on probe time was 0.5-0.8 per workload.
PROBE_ELASTICITY = 0.6
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
# ROADMAP baseline for the sanity note: proportional n=50, m=4n min-clear,
# and the cProfile split of min-clear on the criterion-8 network.
ROADMAP_MIN_CLEAR_N50_MS = 2000.0
ROADMAP_PROFILE_SHARES = {"linalg": 0.63, "graphs": 0.23}


def import_engine():
    if not os.path.isfile(os.path.join(SRC, "netclear", "cli.py")):
        sys.exit(f"error: no engine sources at {os.path.join(SRC, 'netclear')}")
    sys.path.insert(0, SRC)
    from netclear import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        sys.exit(f"error: netclear imported from {cli.__file__}, not from {SRC}")
    return cli


def import_seconds() -> float:
    """Time a fresh interpreter takes to import ``netclear.cli``, timed inside
    the child so interpreter start-up is left out."""
    code = "import time; t = time.perf_counter(); import netclear.cli; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        check=True, timeout=60, capture_output=True, text=True,
    )
    return float(done.stdout)


PROBE_DOCUMENT = json.dumps(workloads.probe_network())


def probe_seconds() -> float:
    """One run of the speed probe: parse a fixed network document and apply
    the benchmark's own exact clearing map to it. No engine code runs."""
    start = time.perf_counter()
    net = verify.Network(json.loads(PROBE_DOCUMENT))
    net.violations({v: Fraction(i, 7) for i, v in enumerate(net.ext)})
    return time.perf_counter() - start


def call(cli, op) -> tuple[int | None, str, float]:
    """Run one op; returns (exit code or None on an exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # an escaped engine error is a failed op
            code = None
        elapsed = time.perf_counter() - start
    if code is None:
        print(traceback.format_exc(), file=sys.stderr)
    return code, out.getvalue(), elapsed


class Loop:
    """Closed loop over the workload's ops until ``seconds`` of op time."""

    def __init__(self, cli, ops, gate, seconds):
        self.cli, self.ops, self.gate, self.seconds = cli, ops, gate, seconds
        self.latencies: list[tuple[str, float]] = []
        self.traced: list[tuple[str, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.output_bytes = 0
        self.sample = None  # (op, stdout) of a verified op with assets
        self.imports: list[float] = []
        self.probes: list[float] = []

    def _record(self, op, code, stdout):
        self.attempted += 1
        self.output_bytes += len(stdout.encode("utf-8"))
        problem = self.gate.check(op, code, stdout)
        if problem is not None:
            self.failures.append(f"{op.key}: {problem}")
        elif code == 0 and self.sample is None and '"exact"' in stdout:
            self.sample = (op, stdout)

    def run(self, tracer=None) -> None:
        """With a tracer each op runs twice, untraced and traced; which goes
        first alternates, so neither side gains from the other warming up.

        Import timings and the speed probe are spread over the run between
        ops, so that their medians reflect the whole run."""
        busy, i, next_import, next_probe = 0.0, 0, 0.0, 0.0
        wall_limit = time.monotonic() + 4 * self.seconds + 30
        while busy < self.seconds and time.monotonic() < wall_limit:
            if busy >= next_import:
                self.imports.append(import_seconds())
                next_import += self.seconds / IMPORT_SPAWNS
            while busy >= next_probe:
                self.probes.append(probe_seconds())
                next_probe += self.seconds / PROBE_SAMPLES
            op = self.ops[i % len(self.ops)]
            i += 1
            modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
            for traced in modes:
                if traced:
                    tracer.op = i
                    tracer.install()
                try:
                    code, stdout, elapsed = call(self.cli, op)
                finally:
                    if traced:
                        tracer.uninstall()
                busy += elapsed
                (self.traced if traced else self.latencies).append((op.kind, elapsed))
                self._record(op, code, stdout)


def tail(latencies: list[float]):
    """Highest listed percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            rank = math.ceil(p * n / 100) - 1
            return {"percentile": p, "value_ms": ordered[rank] * 1e3, "samples": n}
    return None


def gate_selftest(reference, sample) -> str | None:
    """An altered output must be counted as failed, with and without the
    reference check; returns why the self-test failed, or None."""
    if sample is None:
        return "no verified output with assets to alter"
    op, stdout = sample
    altered = verify.tampered(stdout)
    gates = [verify.Gate(None)] + ([verify.Gate(reference)] if reference else [])
    if any(g.check(op, 0, altered) is None for g in gates):
        return "an altered output was accepted"
    return None


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = found.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "sources_sha256": source_digest(),
        "machine": platform.machine(),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "netclear")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def build_ops(name: str, seed: int) -> list:
    workdir = os.path.join(OUT, "work", f"{name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.build(name, seed, workdir)


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    cli = import_engine()
    ops = build_ops(name, seed)
    reference = verify.load_reference(name) if seed == workloads.DEFAULT_SEED else None
    gate = verify.Gate(reference)

    import_seconds()  # not counted: the first spawn also warms the file cache
    call(cli, workloads.Op("warm-up", "validate", ("validate", ops[0].network), ops[0].network))

    loop = Loop(cli, ops, gate, seconds)
    tracer = tracing.Tracer() if traced else None
    loop.run(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    selftest = gate_selftest(reference, loop.sample)

    untraced = [t for _, t in loop.latencies]
    by_kind = {}
    for kind, t in loop.latencies:
        by_kind.setdefault(kind, []).append(t)
    kinds = {
        KIND_METRICS[k]: {"value": statistics.median(v) * 1e3, "samples": len(v)}
        for k, v in by_kind.items()
    }
    op_p50_ms = statistics.median(untraced) * 1e3
    raw = {
        "setup_s": (statistics.median(loop.imports), "s"),
        "ops_per_s": (len(untraced) / sum(untraced), "1/s"),
        "op_p50_ms": (op_p50_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    probe_s = statistics.median(loop.probes)
    scale = (PROBE_REFERENCE_S / probe_s) ** PROBE_ELASTICITY
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "ops": len(untraced),
        "distinct_ops": len(ops),
        "op_tail": tail(untraced),
        "kinds": kinds,
        "failed_ops_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20],
        "domain_negative_ops": gate.domain_negative,
        "gate_selftest": selftest or "passed",
        "reference_checked": reference is not None,
        "io.output_bytes_per_op": loop.output_bytes / loop.attempted,
        "io.max_den_bits": gate.max_den_bits,
        "probe_s": probe_s,
        "scale": scale,
        "raw": {k: {"value": v, "unit": unit} for k, (v, unit) in raw.items()},
    }
    if traced:
        layer = tracing.layer_metrics(tracer)
        overhead = statistics.median(t for _, t in loop.traced) * 1e3 / op_p50_ms
        layer["trace.overhead"] = (overhead, "ratio")
        layer["trace.ops"] = (len(loop.traced), "count")
        layer["io.output_bytes"] = (loop.output_bytes / loop.attempted, "bytes/op")
        layer["io.max_den_bits"] = (gate.max_den_bits, "bits")
        for metric in KIND_METRICS.values():
            layer[metric] = (kinds.get(metric, {}).get("value", 0.0), "ms")
        metrics = layer
        spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl.gz")
        tracer.write(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
        record["layer_moves"] = tracing.MOVES
    else:
        metrics = raw
    record["metrics"] = {
        k: {"value": scaled(k, v, unit, scale), "unit": unit} for k, (v, unit) in metrics.items()
    }
    record["notes"] = sanity_notes(name, kinds, metrics if traced else {})
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-{seed}-trace{int(traced)}.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record, loop


def scaled(name: str, value: float, unit: str, scale: float) -> float:
    """An operation timing at the probe's reference speed; ``setup_s`` and
    figures that are not op timings are reported as measured."""
    if name == "setup_s":
        return value
    if unit in ("ms", "s/op"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def sanity_notes(name, kinds, layer) -> list[str]:
    if name != "min-prop":
        return []
    notes = []
    ms = kinds.get("kind.min_clear_ms", {}).get("value")
    if ms is not None:
        notes.append(
            f"min_clear_ms {ms:.0f} ms vs ROADMAP n=50 proportional min-clear "
            f"{ROADMAP_MIN_CLEAR_N50_MS:.0f} ms (single runs, about +-30% noise)"
        )
    for module, share in ROADMAP_PROFILE_SHARES.items():
        if f"{module}.share" in layer:
            notes.append(
                f"traced {module} self share {layer[f'{module}.share'][0]:.2f} vs "
                f"ROADMAP cProfile {share:.2f} (criterion-8 network, cumulative time)"
            )
    return notes


def print_result(record, loop) -> None:
    for key, entry in record["metrics"].items():
        print(f"{record['workload']:>14} {key:<52} {entry['value']:.6g} {entry['unit']}")
    if record["op_tail"]:
        t = record["op_tail"]
        print(f"{record['workload']:>14} op_tail_ms (p{t['percentile']:g} of {t['samples']}) {t['value_ms']:.6g} ms")
    print(f"{record['workload']:>14} failed_ops_ratio {record['failed_ops_ratio']:.6g}")
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    if record["gate_selftest"] != "passed":
        print(f"FAILED gate self-test: {record['gate_selftest']}")
    for note in record["notes"]:
        print(f"note: {note}")
    print(
        json.dumps(
            {
                "correct": not loop.failures and record["gate_selftest"] == "passed",
                "attempted": loop.attempted,
                "failed": len(loop.failures),
                "metrics": record["metrics"],
            }
        )
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in workloads.BUILDERS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record, loop = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(record, loop)
    return 0


if __name__ == "__main__":
    sys.exit(main())
