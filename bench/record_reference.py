"""Record reference results for the default seed into ``reference.json``.

Every op of every workload runs once; its output must pass the independent
checks of ``verify.py`` before its exit code and stdout digest are stored.
Run it only at a commit whose ResultDocuments are trusted:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run
import verify
import workloads


def main() -> int:
    cli = run.import_engine()
    seed = workloads.DEFAULT_SEED
    recorded = {"seed": seed, "sources_sha256": run.source_digest(), "workloads": {}}
    for name in workloads.BUILDERS:
        gate = verify.Gate(None)
        entries = {}
        for op in run.build_ops(name, seed):
            code, stdout, _ = run.call(cli, op)
            problem = gate.check(op, code, stdout)
            if problem is not None:
                print(f"{name} {op.key}: {problem}", file=sys.stderr)
                return 1
            entries[op.key] = [code, verify.digest(stdout)]
        recorded["workloads"][name] = entries
        print(f"{name}: {len(entries)} ops, {gate.domain_negative} domain-negative")
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
