"""The top-down route of ``compute_min_clearing`` on networks without default
cost: the pp maximum, then reverse floods on the ``left`` active graph until
no closed non-singleton component is left (the certificate and its proof are
in the function's docstring). ``compute_max_clearing_flood`` runs the same
``flood_closure`` upward on the active graph of the pp maximum.

- ``PaymentFunction.lower_segment`` against the ``Fraction`` scan of the
  oracles;
- the certificate, on the least state of ``run_min_clearing`` and on the pp
  maximum;
- the route against the injection driver on 2,400 seeded networks, with the
  held left graph compared with a fresh left build after every reverse
  flood;
- the flood maximum lifted from the least state in place of the pp maximum;
- a left graph that is not refreshed fails loudly.
"""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    active_graph,
    build_network,
    compute_max_clearing_flood,
    compute_max_clearing_pp,
    compute_min_clearing,
    condense,
    graphs,
    lattice,
    minimal,
    run_min_clearing,
)
from netclear.errors import InternalInvariantError
from netclear.model import PaymentFunction

from corpus import ALL_SCHEME_KINDS, SCHEME_KINDS, random_network, ringed_network
from graph_checks import check_advance_freshness
from oracles import fraction_lower_segment


def _functions():
    """Payment functions of every scheme kind: class schemes, the piecewise
    schemes of the corpus, and a hand-written one with zero-slope pieces and
    borders whose denominators differ."""
    rng = random.Random("lower-segment")
    functions = [
        PaymentFunction((F(0), F(1, 3), F(1), F(7, 4), F(3)), (F(1, 2), F(0), F(1), F(0))),
        PaymentFunction((F(0), F(2, 7), F(5, 3)), (F(0), F(3, 5))),
        PaymentFunction((F(0),), ()),
    ]
    for _ in range(60):
        net = random_network(
            rng, min_banks=3, max_banks=6, schemes=ALL_SCHEME_KINDS, liability_dens=(1, 2, 3, 7)
        )
        functions.extend(claim.payment for claim in net.claims)
    return functions


class TestLowerSegment:
    def test_matches_the_fraction_scan(self):
        zero_slope_pieces = off_grid = checked = 0
        for fn in _functions():
            top = fn.borders[-1]
            points = {F(0), top + 1, top * 2 + F(1, 3)}
            for j, border in enumerate(fn.borders):
                points.update((border, border + F(1, 10**6), border + F(1, 7919)))
                if j + 1 < len(fn.borders):
                    nxt = fn.borders[j + 1]
                    points.update(((border + nxt) / 2, border + (nxt - border) * F(2, 3)))
                    zero_slope_pieces += fn.slopes[j] == 0
            for a in sorted(points):
                assert fn.lower_segment(a) == fraction_lower_segment(fn, a), (fn, a)
                off_grid += fn._den % a.denominator != 0
                checked += 1
        assert zero_slope_pieces >= 100 and off_grid >= 1000 and checked >= 5000

    def test_on_and_just_above_each_border(self):
        fn = PaymentFunction((F(0), F(1, 3), F(1), F(7, 4), F(3)), (F(1, 2), F(0), F(1), F(0)))
        # exactly on a border, the segment below it
        assert fn.lower_segment(F(1, 3)) == (F(1, 2), F(0))
        assert fn.lower_segment(F(1)) is None  # a zero-slope piece below
        assert fn.lower_segment(F(7, 4)) == (F(1), F(1))
        assert fn.lower_segment(F(3)) is None
        # just above a border, the segment that starts there
        assert fn.lower_segment(F(1, 3) + F(1, 10**9)) is None
        assert fn.lower_segment(F(1) + F(1, 10**9)) == (F(1), F(1))
        assert fn.lower_segment(F(1, 10**9)) == (F(1, 2), F(0))

    def test_zero_and_past_the_last_border(self):
        fn = PaymentFunction((F(0), F(2)), (F(1),))
        assert fn.lower_segment(F(0)) is None
        assert fn.lower_segment(F(2)) == (F(1), F(0))
        assert fn.lower_segment(F(2) + F(1, 10**9)) is None
        assert fn.lower_segment(F(5)) is None

    def test_ceiling_for_a_denominator_off_the_grid(self):
        # _den is 3; 1/3 + 1/9 lies above the border 1/3, and floor(a * 3)
        # would read it as 1, on the border
        fn = PaymentFunction((F(0), F(1, 3), F(1)), (F(1), F(0)))
        assert fn._den == 3
        assert fn.lower_segment(F(4, 9)) is None
        assert fn.lower_segment(F(2, 9)) == (F(1), F(0))
        assert fn.lower_segment(F(1, 3)) == (F(1), F(0))


def _networks():
    """2,400 seeded networks without default cost: 1,200 of
    ``random_network``, with piecewise schemes in half, and 1,200 of
    ``ringed_network``, whose rings often hold a free circulation."""
    rng = random.Random("top-down")
    for i in range(1200):
        yield random_network(
            rng,
            min_banks=3,
            max_banks=8,
            max_external=(0, 1, 0, 2)[i % 4],
            schemes=ALL_SCHEME_KINDS if i % 2 else SCHEME_KINDS,
            edge_prob=rng.choice((None, 0.5, 0.7, 0.9)),
            liability_dens=(1, 2, 3, 7) if i % 3 == 0 else None,
        )
    for _ in range(1200):
        yield ringed_network(rng)


@pytest.fixture(scope="module")
def corpus():
    """Each network of ``_networks`` with the least state of
    ``run_min_clearing`` and the pp maximum."""
    return [
        (net, run_min_clearing(net).state, compute_max_clearing_pp(net)) for net in _networks()
    ]


def _closed_components(net, state):
    """The closed non-singleton components of the left-slope graph at
    ``state``."""
    return condense(active_graph(net, state.as_dict(), left=True))


class TestCertificate:
    def test_holds_at_the_least_state_and_fails_above_it(self, corpus):
        gaps = 0
        for net, least, greatest in corpus:
            assert _closed_components(net, least) == ()
            if least.as_dict() != greatest.as_dict():
                assert _closed_components(net, greatest) != ()
                gaps += 1
        assert gaps >= 300


class TestDifferential:
    def test_route_matches_the_injection_driver(self, corpus, monkeypatch):
        counts = check_advance_freshness(monkeypatch)
        tally = {"piecewise": 0, "gaps": 0, "stop_above_zero": 0}
        for net, least, greatest in corpus:
            low = compute_min_clearing(net)
            assert list(low.items()) == list(least.items())
            tally["gaps"] += low.as_dict() != greatest.as_dict()
            tally["stop_above_zero"] += any(0 < low[v] < greatest[v] for v in low)
            tally["piecewise"] += any(
                claim.payment._piece is None and net.total_out(claim.debtor)
                for claim in net.claims
            )
        assert tally["gaps"] >= 300 and tally["stop_above_zero"] >= 50, tally
        assert tally["piecewise"] >= 500, tally
        # every reverse flood checked the held left graph against a fresh one
        assert counts["reverse"] >= 500 and counts["reverse"] == counts["calls"]

    def test_several_passes(self, monkeypatch):
        """Two rings through a, lowered one after the other. At the
        maximum a pays c in its second class, so {a, c} is closed first and
        falls until a lands on its lower border 2 and c on 0. Below 2, a
        pays only b, and {a, b}, closed at the new state, falls until a
        reaches 0 and b its lower border 1, below which b pays the sink z."""
        net = build_network(
            banks=[("a", 0), ("b", 1), ("c", 0), ("z", 0)],
            claims=[("a", "b", 2), ("a", "c", 2), ("b", "z", 1), ("b", "a", 2), ("c", "a", 2)],
            schemes={
                "a": {"type": "edge_ranking", "order": ["b", "c"]},
                "b": {"type": "edge_ranking", "order": ["z", "a"]},
            },
        )
        passes = []
        original = graphs.condense

        def counted(g, source=None):
            components = original(g, source)
            passes.append(components)
            return components

        monkeypatch.setattr(minimal, "condense", counted)
        low = compute_min_clearing(net)
        assert dict(low) == dict(run_min_clearing(net).state)
        assert sum(1 for components in passes if components) >= 2


class TestFloodMaximum:
    def test_lifts_a_low_start(self, corpus, monkeypatch):
        """``flood_closure`` on the active graph of any clearing state ends
        at the greatest one: started at the least state in place of the pp
        maximum, the flood maximum still equals the pp maximum."""
        monkeypatch.setattr(
            lattice, "compute_max_clearing_pp", lambda net: run_min_clearing(net).state
        )
        lifted = 0
        for net, least, greatest in corpus:
            if least.as_dict() != greatest.as_dict():
                assert list(compute_max_clearing_flood(net).items()) == list(greatest.items())
                lifted += 1
        assert lifted >= 300


class TestStaleLeftGraph:
    def test_a_refresh_that_does_nothing_fails_loudly(self, monkeypatch):
        """Without refreshes the landed banks keep their old lower borders,
        so the next pass finds no room above them: the route raises instead
        of stepping by zero for ever."""
        net = build_network(banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)])
        monkeypatch.setattr(minimal, "refresh_banks", lambda g, banks: None)
        with pytest.raises(InternalInvariantError, match="stale left graph"):
            compute_min_clearing(net)
