"""Seeded random networks shared by the test suites, their document form, and
the small golden networks several suites check."""

from __future__ import annotations

import random
from fractions import Fraction

from netclear import FinancialNetwork, build_network, model
from netclear.io import FORMAT_VERSION
from netclear.rationals import exact_str

SCHEME_KINDS = ("proportional", "edge_ranking", "priority_proportional")
# every scheme, piecewise ones too (``piecewise_scheme``)
ALL_SCHEME_KINDS = SCHEME_KINDS + ("piecewise",)
# the haircut rates ``random_network`` draws by default
HAIRCUT_ALPHAS = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
# haircut rates that include 0, so that some banks have alpha = beta = 0
ZERO_RATE_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1))


def example1():
    """Golden example 1: ``u`` owes ``v`` and ``w`` 1 each, ``w`` owes
    ``u`` 1."""
    return build_network(
        banks=[("u", 1), ("v", 0), ("w", 0)],
        claims=[("u", "v", 1), ("u", "w", 1), ("w", "u", 1)],
    )


def example2():
    """Golden example 2: two banks owe each other 2, with haircuts of 1/2."""
    return build_network(
        banks=[("v", 1, "1/2", "1/2"), ("w", 1, "1/2", "1/2")],
        claims=[("v", "w", 2), ("w", "v", 2)],
    )


def example3():
    """Golden example 3: ``u`` owes ``v`` 2, ``v`` owes ``w`` and ``y`` 2
    each with ``w`` ranked first, and ``y`` owes ``v`` 2."""
    return build_network(
        banks=[("u", 1), ("v", 2), ("w", 0), ("y", 0)],
        claims=[("u", "v", 2), ("v", "w", 2), ("v", "y", 2), ("y", "v", 2)],
        schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
    )


def figure1_ranked():
    """Bank v owes u 80 and w 20, (v, w) ranked first."""
    return build_network(
        banks=[("v", 0), ("u", 0), ("w", 0)],
        claims=[("v", "u", 80), ("v", "w", 20)],
        schemes={"v": {"type": "edge_ranking", "order": ["w", "u"]}},
    )


def random_network(
    rng: random.Random,
    max_banks: int = 6,
    max_liability: int = 10,
    max_external: int = 8,
    schemes=SCHEME_KINDS,
    default_cost: bool = False,
    alphas=HAIRCUT_ALPHAS,
    edge_prob: float | None = None,
    min_banks: int = 2,
    liability_dens=None,
    min_liability: int = 1,
) -> FinancialNetwork:
    """A random network. ``liability_dens`` (default: integer liabilities)
    divides each liability by a denominator drawn from it; a ``schemes``
    kind ``"piecewise"`` draws a ``piecewise_scheme``; ``min_liability=0``
    draws claims of zero liability too. None of them draws from ``rng``
    unless asked for, so the networks of existing seeds stay as they
    were."""
    n = rng.randint(min_banks, max_banks)
    ids = [f"b{i}" for i in range(n)]
    prob = edge_prob if edge_prob is not None else min(0.9, 2.5 / max(n - 1, 1))

    claims = []
    for debtor in ids:
        for creditor in ids:
            if debtor == creditor or rng.random() >= prob:
                continue
            liability = rng.randint(min_liability, max_liability)
            if liability_dens is not None:
                liability = Fraction(liability, rng.choice(liability_dens))
            claims.append((debtor, creditor, liability))

    banks = []
    for v in ids:
        ext = Fraction(rng.randint(0, max_external))
        if rng.random() < 0.2:
            ext += Fraction(1, rng.choice((2, 4)))
        if default_cost:
            alpha = rng.choice(alphas)
            beta = rng.choice(alphas)
            banks.append((v, ext, alpha, beta))
        else:
            banks.append((v, ext))

    return build_network(banks, claims, random_schemes(rng, claims, schemes))


def random_schemes(rng: random.Random, claims, schemes=SCHEME_KINDS) -> dict:
    """A scheme of a kind drawn from ``schemes`` for every debtor of two or
    more of ``claims``, ``(debtor, creditor, liability)`` triples, in the
    order the debtors first appear."""
    liabilities = {(d, c): x for d, c, x in claims}
    out_by_bank: dict[str, list[str]] = {}
    for debtor, creditor, _ in claims:
        out_by_bank.setdefault(debtor, []).append(creditor)
    scheme_map = {}
    for v, creditors in out_by_bank.items():
        if len(creditors) < 2:
            continue
        kind = rng.choice(schemes)
        if kind == "piecewise":
            owed = {c: Fraction(liabilities[(v, c)]) for c in creditors}
            scheme_map[v] = piecewise_scheme(rng, owed)
        elif kind == "edge_ranking":
            order = creditors[:]
            rng.shuffle(order)
            scheme_map[v] = {"type": "edge_ranking", "order": order}
        elif kind == "priority_proportional":
            order = creditors[:]
            rng.shuffle(order)
            classes: list[list[str]] = [[]]
            for creditor in order:
                if classes[-1] and rng.random() < 0.5:
                    classes.append([])
                classes[-1].append(creditor)
            scheme_map[v] = {"type": "priority_proportional", "classes": classes}
    return scheme_map


def ringed_network(rng: random.Random, schemes=ALL_SCHEME_KINDS) -> FinancialNetwork:
    """A small core that may feed one or two closed rings of two to four
    banks, with a chord in some; no default cost. Ring members hold a little
    cash or none, and some also owe a core bank or the sink ``z``, so a ring
    can stay partly filled in the least state and a reverse flood from the
    top can stop on a border above zero."""
    core = [f"c{i}" for i in range(rng.randint(1, 3))]
    rings = [[f"r{k}{i}" for i in range(rng.randint(2, 4))] for k in range(rng.randint(1, 2))]
    members = [v for ring in rings for v in ring]
    claims = {}

    def owe(debtor, creditor):
        claims[(debtor, creditor)] = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))

    for debtor in core:
        for creditor in core + ["z"]:
            if creditor != debtor and rng.random() < 0.5:
                owe(debtor, creditor)
        for creditor in members:
            if rng.random() < 0.15:
                owe(debtor, creditor)
    for ring in rings:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            owe(a, b)
        if len(ring) > 2 and rng.random() < 0.5:
            a, b = rng.sample(ring, 2)
            owe(a, b)
        for a in ring:
            if rng.random() < 0.4:
                owe(a, rng.choice(core + ["z"]))
    triples = [(d, c, x) for (d, c), x in claims.items()]
    scheme_map = random_schemes(rng, triples, schemes)
    cash = {v: Fraction(rng.randint(0, 2)) for v in core}
    ring_cash = (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1))
    cash.update((v, rng.choice(ring_cash)) for v in members)
    cash["z"] = Fraction(0)
    # Half the ring members that owe outside their ring pay outside first,
    # and half of those hold just what they owe outside: the ring's own
    # circulation is then free, from zero up to full.
    for ring in rings:
        for a in ring:
            order = sorted((c for d, c in claims if d == a), key=lambda c: c in ring)
            if order[0] not in ring and rng.random() < 0.5:
                scheme_map[a] = {"type": "edge_ranking", "order": order}
                if rng.random() < 0.5:
                    cash[a] = claims[(a, order[0])]
    banks = list(cash.items())
    return build_network(banks, triples, scheme_map)


def piecewise_scheme(rng: random.Random, owed: dict[str, Fraction]) -> dict:
    """A random valid piecewise scheme paying the creditors ``owed``.

    The merged grid holds random cut points and the borders of the creditors
    ranked in a random order. On each segment the unit slope is split as a
    ``lam : 1 - lam`` mix of the proportional shares ``L_c / L`` and the
    ranked creditor's full slope, so each creditor's slopes add up to its
    liability and the slopes of a segment to 1. A creditor keeps only the
    borders where its own slope changes, so the creditors' border tuples
    differ, and slopes like ``L_c / L`` times ``lam`` leave pieces whose
    denominators the grid's does not hold."""
    total = sum(owed.values())
    order = list(owed)
    rng.shuffle(order)
    ranked, upper = [], Fraction(0)
    for c in order:
        ranked.append((upper, upper + owed[c], c))
        upper += owed[c]
    cuts = {total * Fraction(rng.randint(1, 9), 10) for _ in range(rng.randint(0, 3))}
    grid = sorted({Fraction(0), total} | cuts | {hi for _, hi, _ in ranked})
    lam = rng.choice((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)))
    edges = []
    for c in owed:
        borders, slopes = [Fraction(0)], []
        for x, y in zip(grid, grid[1:]):
            owner = next(k for lo, hi, k in ranked if lo <= x < hi)
            slope = lam * owed[c] / total + (1 - lam) * (owner == c)
            if slopes and slopes[-1] == slope:
                borders[-1] = y
            else:
                borders.append(y)
                slopes.append(slope)
        edges.append(
            {
                "creditor": c,
                "borders": [exact_str(x) for x in borders],
                "slopes": [exact_str(m) for m in slopes],
            }
        )
    return {"type": model.PIECEWISE, "edges": edges}


def random_state_in_box(rng: random.Random, net: FinancialNetwork) -> dict[str, Fraction]:
    state = {}
    for v in net.bank_ids():
        top = net.bank(v).external_assets + net.total_in(v)
        state[v] = Fraction(rng.randint(0, int(top * 4))) / 4 if top > 0 else Fraction(0)
    return state


def random_trade_instance(rng: random.Random):
    """Random (network, claim pair, buyer) for trade suites.

    Buyers are biased toward structures where a return can actually recirculate
    (the seller insolvent with an active claim toward the buyer); without the
    bias creditor-positive trades are vanishingly rare in random networks.
    """
    from netclear import compute_min_clearing

    while True:
        net = random_network(
            rng, max_banks=5, max_liability=4, max_external=2, edge_prob=0.6
        )
        if not net.claims:
            continue
        base = compute_min_clearing(net)
        combos = []
        structured = []
        for claim in net.claims:
            v = claim.creditor
            for w in net.bank_ids():
                if (
                    w in claim.pair
                    or net.has_claim(claim.debtor, w)
                    or net.bank(w).external_assets <= 0
                ):
                    continue
                combos.append((claim.pair, w))
                if net.has_claim(v, w) and net.claim(v, w).payment.slope_at(base[v]) > 0:
                    structured.append((claim.pair, w))
        if not combos:
            continue
        if structured and rng.random() < 0.7:
            pair, buyer = rng.choice(structured)
        else:
            pair, buyer = rng.choice(combos)
        return net, pair, buyer


def rewired_zero_rate_banks(net: FinancialNetwork, minimal) -> int:
    """Banks with alpha = beta = 0 and liabilities that are solvent in the
    minimal state ``minimal``. While insolvent such a bank holds nothing, so
    ``run_min_clearing`` rewired each of them."""
    return sum(
        1
        for v, bank in net.banks.items()
        if bank.alpha == bank.beta == 0 and 0 < net.total_out(v) <= minimal[v]
    )


def serialize_network(net: FinancialNetwork) -> dict:
    """Document form of a network; parse(serialize(net)) round-trips. Every
    bank's payment functions are written out as a piecewise scheme, which
    holds any scheme exactly."""
    banks = []
    for v in net.bank_ids():
        bank = net.bank(v)
        entry = {"id": v, "external_assets": exact_str(bank.external_assets)}
        if bank.alpha != 1:
            entry["alpha"] = exact_str(bank.alpha)
        if bank.beta != 1:
            entry["beta"] = exact_str(bank.beta)
        banks.append(entry)
    claims = [
        {
            "debtor": claim.debtor,
            "creditor": claim.creditor,
            "liability": exact_str(claim.liability),
        }
        for claim in net.claims
    ]
    schemes = {
        v: {
            "type": model.PIECEWISE,
            "edges": [
                {
                    "creditor": claim.creditor,
                    "borders": [exact_str(x) for x in claim.payment.borders],
                    "slopes": [exact_str(m) for m in claim.payment.slopes],
                }
                for claim in net.out_claims(v)
            ],
        }
        for v in net.bank_ids()
        if net.out_claims(v)
    }
    return {
        "format_version": FORMAT_VERSION,
        "banks": banks,
        "payment_schemes": schemes,
        "claims": claims,
    }
