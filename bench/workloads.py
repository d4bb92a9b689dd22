"""Seeded input families for the benchmark workloads.

Every workload turns a seed into network (and targets) documents written to a
work directory, plus the list of CLI operations run on them. The program under
test only ever sees the written documents. ``lattice-rings`` is the one family
that needs exact clearing states to place its range targets and trade pairs;
it asks the engine for them at set-up, outside any timed region (the maximal
state by the pp route, which is the cheaper one and not what its ops time).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 20260217
# Never used while tuning the benchmark; later performance claims must also
# hold on it.
HOLDOUT_SEED = 7919

HAIRCUTS = ("1/4", "1/2", "3/4")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``key`` is unique within a workload and seed."""

    key: str
    kind: str  # validate, min-clear, max-clear-pp, max-clear-flood, range, trade
    argv: tuple[str, ...]
    network: str  # path of the network document
    detail: dict = field(default_factory=dict, compare=False)


def _random_claims(rng, ids, m):
    pairs = [(a, b) for a in ids for b in ids if a != b]
    chosen = sorted(rng.sample(pairs, min(m, len(pairs))))
    return [{"debtor": a, "creditor": b, "liability": rng.randint(1, 10)} for a, b in chosen]


def _mixed_schemes(rng, claims, kinds=("proportional", "edge_ranking", "priority_proportional")):
    creditors: dict[str, list[str]] = {}
    for claim in claims:
        creditors.setdefault(claim["debtor"], []).append(claim["creditor"])
    schemes = {}
    for v, out in sorted(creditors.items()):
        if len(out) < 2:
            continue
        kind = rng.choice(kinds)
        order = out[:]
        rng.shuffle(order)
        if kind == "edge_ranking":
            schemes[v] = {"type": "edge_ranking", "order": order}
        elif kind == "priority_proportional":
            classes = [[]]
            for creditor in order:
                if classes[-1] and rng.random() < 0.5:
                    classes.append([])
                classes[-1].append(creditor)
            schemes[v] = {"type": "priority_proportional", "classes": classes}
    return schemes


def _document(banks, claims, schemes=None):
    return {
        "format_version": "1",
        "banks": banks,
        "payment_schemes": schemes or {},
        "claims": claims,
    }


def _write(workdir, name, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    return path


def _proportional(rng, n):
    ids = [f"b{i:02d}" for i in range(n)]
    banks = [{"id": v, "external_assets": rng.randint(0, 8)} for v in ids]
    return _document(banks, _random_claims(rng, ids, 4 * n))


def min_prop(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"min-prop/{seed}")
    ops = []
    for k in range(24):
        path = _write(workdir, f"mp{k:02d}.json", _proportional(rng, 50))
        ops.append(Op(f"mp{k:02d}:min-clear", "min-clear", ("min-clear", path), path))
    return ops


def max_pp(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"max-pp/{seed}")
    ops = []
    n = 100
    for k in range(200):
        ids = [f"b{i:03d}" for i in range(n)]
        banks = []
        for v in ids:
            bank = {"id": v, "external_assets": rng.randint(0, 8)}
            if rng.random() < 0.5:
                bank["alpha"] = rng.choice(HAIRCUTS)
                bank["beta"] = rng.choice(HAIRCUTS)
            banks.append(bank)
        claims = _random_claims(rng, ids, 4 * n)
        doc = _document(banks, claims, _mixed_schemes(rng, claims))
        path = _write(workdir, f"pp{k:02d}.json", doc)
        ops.append(
            Op(f"pp{k:02d}:max-clear-pp", "max-clear-pp", ("max-clear", path, "--method", "pp"), path)
        )
    return ops


def sweep_small(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"sweep-small/{seed}")
    ops = []
    for k in range(200):
        n = rng.randint(6, 14)
        ids = [f"b{i:02d}" for i in range(n)]
        banks = []
        for v in ids:
            bank = {"id": v, "external_assets": rng.randint(0, 8)}
            if k % 2:
                bank["alpha"] = rng.choice(HAIRCUTS + ("1",))
                bank["beta"] = rng.choice(HAIRCUTS + ("1",))
            banks.append(bank)
        claims = _random_claims(rng, ids, 3 * n)
        path = _write(workdir, f"sw{k:03d}.json", _document(banks, claims, _mixed_schemes(rng, claims)))
        tag = f"sw{k:03d}"
        ops.append(Op(f"{tag}:validate", "validate", ("validate", path), path))
        ops.append(Op(f"{tag}:min-clear", "min-clear", ("min-clear", path), path))
        ops.append(
            Op(f"{tag}:max-clear-pp", "max-clear-pp", ("max-clear", path, "--method", "pp"), path)
        )
    return ops


def _rings_network(rng):
    """An open 30-bank core plus six closed 6-bank rings with chords; rings
    0-2 receive claims from the core, rings 3-5 receive nothing."""
    core = [f"c{i:02d}" for i in range(30)]
    banks = [{"id": v, "external_assets": rng.randint(0, 8)} for v in core]
    claims = _random_claims(rng, core, 3 * len(core))
    schemes = _mixed_schemes(rng, claims, kinds=("proportional", "proportional", "edge_ranking"))
    for r in range(6):
        ring = [f"r{r}{i}" for i in range(6)]
        banks += [{"id": v, "external_assets": 0} for v in ring]
        pairs = {(ring[i], ring[(i + 1) % 6]) for i in range(6)}
        while len(pairs) < 8:
            a, b = rng.sample(ring, 2)
            pairs.add((a, b))
        claims += [
            {"debtor": a, "creditor": b, "liability": rng.randint(1, 10)}
            for a, b in sorted(pairs)
        ]
        if r < 3:
            for feeder in rng.sample(core, 2):
                claims.append(
                    {"debtor": feeder, "creditor": rng.choice(ring), "liability": rng.randint(1, 10)}
                )
    # Feed claims added after the core schemes were drawn: keep edge-ranking
    # orders complete by appending the new creditors last.
    for claim in claims:
        scheme = schemes.get(claim["debtor"])
        if scheme and scheme["type"] == "edge_ranking" and claim["creditor"] not in scheme["order"]:
            scheme["order"].append(claim["creditor"])
    return _document(banks, claims, schemes)


def probe_network() -> dict:
    """The fixed network the run's speed probe works on; no seed changes it."""
    return _rings_network(random.Random("speed-probe"))


def lattice_rings(seed: int, workdir: str) -> list[Op]:
    from netclear.io import parse_network
    from netclear.minimal import compute_min_clearing
    from netclear.priority import compute_max_clearing_pp

    rng = random.Random(f"lattice-rings/{seed}")
    ops = []
    for k in range(24):
        doc = _rings_network(rng)
        tag = f"lr{k:02d}"
        path = _write(workdir, f"{tag}.json", doc)
        net = parse_network(path)
        low = compute_min_clearing(net)
        high = compute_max_clearing_pp(net)
        ops.append(
            Op(f"{tag}:max-clear-flood", "max-clear-flood", ("max-clear", path, "--method", "flood"), path)
        )

        open_banks = sorted(v for v in net.bank_ids() if low[v] != high[v])
        chosen = sorted(rng.sample(open_banks, min(4, len(open_banks))))
        mid = {v: (low[v] + high[v]) / 2 for v in chosen}
        # Point targets at the midpoints may be infeasible together; the
        # intervals [mid, max] always hold in the maximal state.
        label = "mid" if k % 2 == 0 else "upper"
        targets = [
            {"bank": v, "lo": _exact(mid[v]), "hi": _exact(mid[v] if label == "mid" else high[v])}
            for v in chosen
        ]
        tpath = _write(workdir, f"{tag}-{label}.targets.json", {"targets": targets})
        ops.append(
            Op(
                f"{tag}:range-{label}",
                "range",
                ("range", path, "--targets", tpath),
                path,
                {"targets": targets, "must_hold": label == "upper"},
            )
        )

        pairs = []
        for claim in net.claims:
            u, v = claim.pair
            for out in net.out_claims(v):
                w = out.creditor
                if (
                    w != u
                    and not net.has_claim(u, w)
                    and net.bank(w).external_assets > 0
                    and out.payment.slope_at(low[v]) > 0
                ):
                    pairs.append((u, v, w))
        for u, v, w in rng.sample(sorted(pairs), min(1, len(pairs))):
            ops.append(
                Op(
                    f"{tag}:trade:{u}-{v}-{w}",
                    "trade",
                    ("trade", path, "--claim", u, v, "--buyer", w),
                    path,
                    {"claim": [u, v], "buyer": w},
                )
            )
    return ops


def _exact(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


BUILDERS = {
    "min-prop": min_prop,
    "max-pp": max_pp,
    "lattice-rings": lattice_rings,
    "sweep-small": sweep_small,
}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](seed, workdir)
