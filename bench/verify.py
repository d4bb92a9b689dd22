"""Correctness gate for benchmark operations.

Outputs are checked without the engine's own code: the network documents are
re-read here and every emitted ``assets`` map is tested as an exact fixed
point of the clearing map (payments by ranked proportional classes, haircuts
``alpha``/``beta`` for banks that cannot cover their liabilities). On the
default seed each op's exit code and stdout bytes must also equal the
reference recorded from the seed commit (``reference.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Exit codes an op of each kind may end with; 1 is a domain-negative result.
ALLOWED_EXITS = {
    "validate": {0},
    "min-clear": {0},
    "max-clear-pp": {0},
    "max-clear-flood": {0},
    "range": {0, 1},
    "trade": {0, 1},
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Network:
    """Exact clearing map of a network document, independent of the engine."""

    def __init__(self, doc: dict):
        self.ext = {b["id"]: Fraction(b.get("external_assets", 0)) for b in doc["banks"]}
        self.alpha = {b["id"]: Fraction(b.get("alpha", 1)) for b in doc["banks"]}
        self.beta = {b["id"]: Fraction(b.get("beta", 1)) for b in doc["banks"]}
        self.claims = [
            (c["debtor"], c["creditor"], Fraction(c["liability"])) for c in doc["claims"]
        ]
        liability = {(d, c): amount for d, c, amount in self.claims}
        out: dict[str, list[str]] = {}
        for d, c, _ in self.claims:
            out.setdefault(d, []).append(c)
        # (lo, hi, share) of each claim: it receives ``share`` of every unit the
        # debtor pays between ``lo`` and ``hi``.
        self.pieces: dict[tuple[str, str], tuple[Fraction, Fraction, Fraction]] = {}
        self.total_out = {v: Fraction(0) for v in self.ext}
        schemes = doc.get("payment_schemes", {})
        for d, creditors in out.items():
            scheme = schemes.get(d, {"type": "proportional"})
            if scheme["type"] == "edge_ranking":
                classes = [[c] for c in scheme["order"]]
            elif scheme["type"] == "priority_proportional":
                classes = scheme["classes"]
            elif scheme["type"] == "proportional":
                classes = [creditors]
            else:
                raise ValueError(f"scheme {scheme['type']!r} is not generated by the benchmark")
            lo = Fraction(0)
            for members in classes:
                total = sum(liability[(d, c)] for c in members)
                for c in members:
                    self.pieces[(d, c)] = (lo, lo + total, liability[(d, c)] / total if total else 0)
                lo += total
            self.total_out[d] = lo

    def traded(self, debtor: str, seller: str, buyer: str, rho: Fraction) -> "Network":
        """The network after the buyer takes over ``debtor``'s claim to the
        seller for the return ``rho``; the debtor's payment rule is kept."""
        net = object.__new__(Network)
        net.ext = dict(self.ext)
        net.ext[seller] += rho
        net.ext[buyer] -= rho
        net.alpha, net.beta, net.total_out = self.alpha, self.beta, self.total_out
        net.claims = [
            (d, buyer if (d, c) == (debtor, seller) else c, amount) for d, c, amount in self.claims
        ]
        net.pieces = {
            (d, buyer if (d, c) == (debtor, seller) else c): piece
            for (d, c), piece in self.pieces.items()
        }
        return net

    def violations(self, assets: dict[str, Fraction]) -> list[str]:
        """Banks whose asset value is not reproduced by the clearing map."""
        if set(assets) != set(self.ext):
            return ["asset map does not list exactly the network's banks"]
        inflow = {v: Fraction(0) for v in self.ext}
        for d, c, _ in self.claims:
            lo, hi, share = self.pieces[(d, c)]
            paid = min(max(assets[d], lo), hi) - lo
            if paid:
                inflow[c] += share * paid
        bad = []
        for v, ext in self.ext.items():
            full = ext + inflow[v]
            image = full if full >= self.total_out[v] else self.alpha[v] * ext + self.beta[v] * inflow[v]
            if image != assets[v]:
                bad.append(f"bank {v}: map gives {image}, output has {assets[v]}")
        return bad


def exact_assets(doc: dict) -> dict[str, Fraction]:
    return {v: Fraction(entry["exact"]) for v, entry in doc["assets"].items()}


def den_bits(assets: dict[str, Fraction]) -> int:
    return max((value.denominator.bit_length() for value in assets.values()), default=0)


class Gate:
    """Checks every op result; repeats of an op must reproduce its first
    output byte for byte, so only first occurrences are re-parsed."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, tuple[int | None, str]] = {}
        # Only the latest network's states are kept, so the benchmark's own
        # memory does not grow with the number of distinct ops run.
        self.latest: tuple[str, Network] | None = None
        self.low: dict[str, Fraction] = {}
        self.high: dict[str, Fraction] = {}
        self.max_den_bits = 0
        self.domain_negative = 0

    def network(self, path: str) -> Network:
        if self.latest is None or self.latest[0] != path:
            with open(path, encoding="utf-8") as handle:
                self.latest = (path, Network(json.load(handle)))
            self.low, self.high = {}, {}
        return self.latest[1]

    def check(self, op, code, stdout: str) -> str | None:
        """None when the result is correct, else the reason it is not."""
        if code is None:
            return "raised an exception"
        sha = digest(stdout)
        if self.reference is not None:
            expected = self.reference.get(op.key)
            if expected is None:
                return "no reference recorded for this op"
            if [code, sha] != expected:
                return f"exit {code}/{sha[:12]} differs from reference exit {expected[0]}/{expected[1][:12]}"
        if op.key in self.first:
            if self.first[op.key] != (code, sha):
                return "output differs from the op's first run"
            return None
        problem = self._check_new(op, code, stdout)
        if problem is None:
            self.first[op.key] = (code, sha)
        return problem

    def _check_new(self, op, code, stdout):
        if code not in ALLOWED_EXITS[op.kind]:
            return f"unexpected exit code {code}"
        if code == 1:
            if op.detail.get("must_hold"):
                return "reported infeasible targets that the maximal state meets"
            if stdout:
                return "domain-negative result wrote a document"
            self.domain_negative += 1
            return None
        try:
            doc = json.loads(stdout)
            assets = exact_assets(doc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable ResultDocument: {exc}"
        net = self.network(op.network)
        if op.kind == "validate":
            meta = doc["metadata"]
            if assets or (meta.get("banks"), meta.get("claims")) != (len(net.ext), len(net.claims)):
                return "validate reports wrong counts"
            return None
        if op.kind == "trade":
            meta = doc["metadata"]
            rho = Fraction(meta["rho_star"])
            if not Fraction(meta["rho_min"]) < rho:
                return "trade return does not exceed the current payment"
            (debtor, seller), buyer = op.detail["claim"], op.detail["buyer"]
            net = net.traded(debtor, seller, buyer, rho)
        bad = net.violations(assets)
        if bad:
            return "not a clearing state: " + "; ".join(bad[:3])
        if op.kind == "range":
            for target in op.detail["targets"]:
                value = assets[target["bank"]]
                if not Fraction(target["lo"]) <= value <= Fraction(target["hi"]):
                    return f"bank {target['bank']} outside its target interval"
        self.max_den_bits = max(self.max_den_bits, den_bits(assets))
        if op.kind == "min-clear":
            self.low = assets
        elif op.kind.startswith("max-clear"):
            self.high = assets
        if self.low and self.high and any(self.low[v] > self.high[v] for v in self.low):
            return "minimal state exceeds maximal state"
        return None


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def tampered(stdout: str) -> str:
    """The document with its first bank's exact asset value raised by 1/7."""
    doc = json.loads(stdout)
    bank = sorted(doc["assets"])[0]
    value = Fraction(doc["assets"][bank]["exact"]) + Fraction(1, 7)
    doc["assets"][bank]["exact"] = f"{value.numerator}/{value.denominator}"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
