"""Payment functions, scheme constructors, and network validation."""

import copy
import io
import json
import pickle
import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netclear import (
    build_network,
    make_edge_ranking,
    make_priority_proportional,
    make_proportional,
    validate_network,
)
from netclear.errors import (
    BORDER_MISMATCH,
    DUPLICATE_BANK_ID,
    DUPLICATE_EDGE,
    INVALID_SCHEME,
    LIABILITY_MISMATCH,
    NEGATIVE_VALUE,
    SELF_LOOP,
    SLOPE_SUM_VIOLATION,
    UNKNOWN_BANK_ID,
    VALUE_OUT_OF_RANGE,
    NetworkValidationError,
    ParseError,
)
from netclear.axioms import BankClasses, check_payment_axioms
from netclear.clearing import ClearingCheck, ClearingState, IterationResult
from netclear.lattice import INFEASIBLE_CONFLICT, INFEASIBLE_STUCK, RangeResult
from netclear.minimal import MinClearingRun, Step
from netclear.trade import TradeResult
from netclear.cli import main
from netclear.io import parse_network
from netclear.model import Bank, Claim, PaymentFunction, assemble
from netclear.rationals import exact_sum, sum_ratio

from corpus import (
    ALL_SCHEME_KINDS,
    figure1_ranked,
    one_debtor_document,
    random_network,
    serialize_network,
)
from oracles import (
    fraction_active_segment,
    fraction_check_payment_axioms,
    fraction_lower_segment,
    fraction_slope_at,
    fraction_value_at,
    next_border_delta,
)


def figure1_proportional():
    return build_network(
        banks=[("v", 0), ("u", 0), ("w", 0)],
        claims=[("v", "u", 80), ("v", "w", 20)],
    )


class TestEvalPayment:
    def test_ranked_values(self):
        net = figure1_ranked()
        assert net.claim("v", "u").payment.value_at(F(60)) == 40
        assert net.claim("v", "w").payment.value_at(F(60)) == 20

    def test_proportional_values(self):
        net = figure1_proportional()
        assert net.claim("v", "u").payment.value_at(F(50)) == 40
        assert net.claim("v", "w").payment.value_at(F(50)) == 10

    def test_zero_assets_pay_nothing(self):
        for net in (figure1_ranked(), figure1_proportional()):
            for claim in net.claims:
                assert claim.payment.value_at(F(0)) == 0

    def test_full_payment_beyond_total_liability(self):
        net = figure1_proportional()
        for claim in net.claims:
            assert claim.payment.value_at(F(100)) == claim.liability
            assert claim.payment.value_at(F(250)) == claim.liability


# the result records, built by ``_Value``'s positional constructor
POSITIONAL_RECORDS = (
    Step, MinClearingRun, ClearingCheck, IterationResult, RangeResult, TradeResult,
)


class TestRecordContract:
    """The records are values: equal to the records of their class with
    equal fields, hashed alike unless a field is a mapping, and frozen. The
    result records take their fields by position, all of them."""

    def records(self):
        """(record, an equal record built apart, a record differing in one field)"""
        fn = PaymentFunction(borders=(F(0), F(2)), slopes=(F(1),))
        state = ClearingState({"a": F(1), "b": F(0)})
        step = Step({"a": 2, "b": -1}, 3, F(1, 2))
        return [
            (Bank("a", F(1)), Bank("a", F(1), F(1), F(1)), Bank("a", F(1), F(1, 2))),
            (
                fn,
                PaymentFunction((F(0), F(2)), (F(1),)),
                PaymentFunction((F(0), F(2)), (F(1, 2),)),
            ),
            (
                Claim("a", "b", F(2), fn),
                Claim("a", "b", F(2), PaymentFunction((F(0), F(2)), (F(1),))),
                Claim("a", "c", F(2), fn),
            ),
            (
                BankClasses(2, (0, 2), ((("b", 2),),)),
                BankClasses(2, (0, 2), ((("b", 2),),)),
                BankClasses(2, (0, 2), ((("c", 2),),)),
            ),
            (step, Step({"b": -1, "a": 2}, 3, F(1, 2)), Step({"a": 2}, 3, F(1, 2))),
            (
                MinClearingRun(state, 2, 1),
                MinClearingRun(ClearingState(dict(state)), 2, 1),
                MinClearingRun(state, 2, 0),
            ),
            (
                ClearingCheck(True, ()),
                ClearingCheck(True, ()),
                ClearingCheck(False, (("a", F(1), F(0)),)),
            ),
            (
                IterationResult(state, True, 3),
                IterationResult(ClearingState({"b": F(0), "a": F(1)}), True, 3),
                IterationResult(state, False, 3),
            ),
            (
                RangeResult(False, None, "a", INFEASIBLE_CONFLICT, "b"),
                RangeResult(False, None, "a", INFEASIBLE_CONFLICT, "b"),
                RangeResult(False, None, "a", INFEASIBLE_STUCK, None),
            ),
            (
                TradeResult(F(1), F(2), state),
                TradeResult(F(1), F(2), ClearingState(dict(state))),
                TradeResult(F(1), F(3, 2), state),
            ),
        ]

    def test_equal_and_hashed_by_field_value(self):
        for record, same, other in self.records():
            assert record is not same
            assert record == same and not record != same
            assert record != other
            if any(isinstance(value, Mapping) for _, value in record._items()):
                # a mapping is unhashable, and so is the record that holds it
                with pytest.raises(TypeError):
                    hash(record)
                continue
            assert hash(record) == hash(same)
            assert len({record, same, other}) == 2
        assert Bank("a", F(1)) != ("a", F(1), F(1), F(1))

    def test_assignment_and_deletion_raise(self):
        for record, _, _ in self.records():
            for name in record.__slots__:
                with pytest.raises(AttributeError):
                    setattr(record, name, F(0))
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
        bank = Bank("a", F(1))
        with pytest.raises(AttributeError):
            bank.external_assets += 1
        assert bank.external_assets == 1

    def test_pickle_and_copy_rebuild_equal_records(self):
        net = build_network(
            banks=[("u", 1, "1/2", "1/3"), ("v", 0), ("w", 0)],
            claims=[("u", "v", 2), ("u", "w", 3)],
            schemes={"u": {"type": "edge_ranking", "order": ["w", "v"]}},
        )
        for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert twin.banks == net.banks
            assert twin.claims == net.claims
            for claim, original in zip(twin.claims, net.claims):
                assert border_values(claim.payment) == border_values(original.payment)
        for record, _, _ in self.records():
            assert copy.copy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_lists_the_fields(self):
        fn = PaymentFunction((F(0), F(2)), (F(1),))
        assert repr(Bank("a", F(1))) == (
            "Bank(id='a', external_assets=Fraction(1, 1), alpha=Fraction(1, 1), "
            "beta=Fraction(1, 1))"
        )
        assert repr(fn) == (
            "PaymentFunction(borders=(Fraction(0, 1), Fraction(2, 1)), slopes=(Fraction(1, 1),))"
        )
        assert repr(Claim("a", "b", F(2), fn)) == (
            f"Claim(debtor='a', creditor='b', liability=Fraction(2, 1), payment={fn!r})"
        )
        assert repr(ClearingCheck(False, (("a", F(1), F(0)),))) == (
            "ClearingCheck(ok=False, violations=(('a', Fraction(1, 1), Fraction(0, 1)),))"
        )
        assert repr(Step({"a": 2}, 3, F(1, 2))) == (
            "Step(rates={'a': 2}, den=3, scale=Fraction(1, 2))"
        )
        assert repr(RangeResult(True, ClearingState({"a": F(1)}), None, None, None)) == (
            "RangeResult(feasible=True, state=ClearingState({a: 1}), witness=None, "
            "reason=None, conflicting=None)"
        )

    def test_result_records_take_every_field_by_position(self):
        seen = set()
        for record, _, _ in self.records():
            cls = type(record)
            if cls not in POSITIONAL_RECORDS:
                continue
            seen.add(cls)
            fields = [getattr(record, name) for name in cls.__slots__]
            assert cls(*fields) == record
            for wrong in (fields[:-1], [*fields, None]):
                with pytest.raises(ValueError):
                    cls(*wrong)
            with pytest.raises(TypeError):
                cls(**dict(zip(cls.__slots__, fields)))
        assert seen == set(POSITIONAL_RECORDS)

    def test_filled_final_value_is_kept_as_given(self):
        # a final value the running sum would not give is kept as it is given,
        # and takes no part in equality
        fn = object.__new__(PaymentFunction)
        fn._fill((F(0), F(2)), (0, 2), 1, 0, ((1, 1, 0, 1),), F(5), None, None)
        assert border_values(fn) == (F(0), F(5))
        assert fn.final_value == 5
        assert border_values(PaymentFunction((F(0), F(2)), (F(1),))) == (F(0), F(2))
        assert fn == PaymentFunction((F(0), F(2)), (F(1),))

    def test_init_checks_one_slope_per_interval(self):
        with pytest.raises(ValueError):
            PaymentFunction((F(0), F(2)), (F(1), F(0)))


class TestExactSum:
    """``exact_sum`` against ``sum(..., ZERO)``; ``sum_ratio`` keeps the
    unreduced pair over the lcm of the denominators."""

    def check(self, values):
        expected = sum(values, F(0))
        got = exact_sum(values)
        assert type(got) is F and got == expected
        num, den = sum_ratio(values)
        assert den > 0 and F(num, den) == expected
        return num, den

    def test_empty(self):
        assert self.check([]) == (0, 1)
        assert exact_sum(iter(())) == 0

    def test_ints_and_negatives(self):
        assert self.check([3, -7, 0, 11]) == (7, 1)
        self.check([F(-1, 2), 1, F(-3, 4), F(5, 4)])
        self.check([F(1, 3), F(-1, 3)])

    def test_many_distinct_denominators(self):
        rng = random.Random(4411)
        for _ in range(300):
            values = [
                F(rng.randint(-10**6, 10**6), rng.randint(1, 2000))
                for _ in range(rng.randint(1, 40))
            ]
            values += [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
            rng.shuffle(values)
            _, den = self.check(values)
            assert den == lcm(*(F(x).denominator for x in values))


def _points(fn):
    """Assets below the first border, at and between every border, and past
    the last."""
    borders = fn.borders
    points = [borders[0] - 1, borders[0] - F(1, 3), *borders, borders[-1] + F(7, 5)]
    points += [(x + y) / 2 for x, y in zip(borders, borders[1:])]
    points += [x + (y - x) / 7 for x, y in zip(borders, borders[1:])]
    return points


class TestValueAtAgainstFraction:
    """The integer ``value_at`` equals the ``Fraction`` evaluation
    everywhere: below the first border, at every border, past the last
    border, and on zero-slope segments."""

    def assert_same(self, fn):
        for a in _points(fn):
            got = fn.value_at(a)
            assert type(got) is F
            assert got == fraction_value_at(fn, a), (fn, a)

    def test_zero_slope_segments(self):
        fn = PaymentFunction((F(0), F(2), F(5), F(9, 2) * 2), (F(0), F(1, 3), F(0)))
        self.assert_same(fn)
        assert fn.value_at(F(1)) == 0
        assert fn.value_at(F(6)) == 1
        assert fn.value_at(F(8)) == 1

    def test_class_scheme_functions(self):
        fns = make_priority_proportional(
            {"a": F(3, 2), "b": F(0), "c": F(7, 3), "d": F(5)}, [["d"], ["a", "b"], ["c"]]
        )
        for fn in fns.values():
            self.assert_same(fn)

    def test_integer_assets(self):
        fn = make_proportional({"a": F(3), "b": F(5, 7)})["b"]
        for a in (-2, 0, 1, 3, 100):
            assert fn.value_at(a) == fraction_value_at(fn, F(a))

    def test_mixed_denominators_at_and_around_borders(self):
        """Borders over several denominators, and arguments at each border
        and a hair below and above it, closer than one step of the borders'
        common denominator: the integer bisect of ``value_at``, ``slope_at``
        and ``active_segment`` must pick the same segment as the ``Fraction``
        one. A negative slope is no valid scheme's, but ``slope_at`` returns
        it as it is."""
        rng = random.Random(3141)
        for _ in range(300):
            k = rng.randint(1, 6)
            borders = [F(0)]
            for _ in range(k):
                step = F(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 12, 97)))
                borders.append(borders[-1] + step)
            slopes = [
                F(0) if rng.random() < 0.2 else F(rng.randint(-5, 30), rng.randint(1, 25))
                for _ in range(k)
            ]
            fn = PaymentFunction(tuple(borders), tuple(slopes))
            den = lcm(*(x.denominator for x in borders))
            for b in borders:
                for eps in (F(0), F(1, 10**9), F(1, 3 * den), F(1, den)):
                    for a in (b - eps, b + eps):
                        got = fn.value_at(a)
                        assert type(got) is F
                        assert got == fraction_value_at(fn, a), (fn, a)
                        assert fn.slope_at(a) == fraction_slope_at(fn, a), (fn, a)
                        assert fn.active_segment(a) == fraction_active_segment(fn, a), (fn, a)

    def test_random_functions(self):
        rng = random.Random(2718)
        for _ in range(400):
            k = rng.randint(1, 6)
            borders = [F(0)]
            for _ in range(k):
                borders.append(borders[-1] + F(rng.randint(1, 40), rng.randint(1, 12)))
            slopes = [
                F(0) if rng.random() < 0.3 else F(rng.randint(1, 30), rng.randint(1, 25))
                for _ in range(k)
            ]
            self.assert_same(PaymentFunction(tuple(borders), tuple(slopes)))


class TestSlopeAt:
    def test_ranked_slopes(self):
        net = figure1_ranked()
        assert net.claim("v", "w").payment.slope_at(F(10)) == 1
        assert net.claim("v", "u").payment.slope_at(F(10)) == 0

    def test_proportional_slope(self):
        net = figure1_proportional()
        assert net.claim("v", "u").payment.slope_at(F(50)) == F(4, 5)

    def test_terminal_slope_is_zero(self):
        net = figure1_ranked()
        for claim in net.claims:
            assert claim.payment.slope_at(F(100)) == 0


class TestNextBorderDelta:
    def test_ranked_border(self):
        net = build_network(
            banks=[("v", 2), ("w", 0), ("y", 0)],
            claims=[("v", "w", 2), ("v", "y", 2)],
            schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
        )
        assert next_border_delta(net.claim("v", "w").payment, F(1)) == 1

    def test_past_last_border(self):
        net = figure1_proportional()
        claim = net.claim("v", "u")
        assert next_border_delta(claim.payment, F(100)) is None
        assert next_border_delta(claim.payment, F(101)) is None

    def test_proportional_single_border(self):
        net = figure1_proportional()
        assert next_border_delta(net.claim("v", "u").payment, F(30)) == 70


class TestSchemeConstructors:
    def test_proportional_slopes(self):
        fns = make_proportional({"u": F(80), "w": F(20)})
        assert fns["u"].slope_at(F(50)) == F(4, 5)
        assert fns["w"].slope_at(F(50)) == F(1, 5)

    def test_edge_ranking_borders(self):
        fns = make_edge_ranking({"u": F(80), "w": F(20)}, ["w", "u"])
        assert fns["w"].borders == (F(0), F(20), F(100))
        assert fns["w"].slopes == (F(1), F(0))
        assert fns["u"].slopes == (F(0), F(1))

    def test_single_class_degenerates_to_proportional(self):
        liabilities = {"a": F(3), "b": F(7)}
        assert make_priority_proportional(liabilities, [["a", "b"]]) == make_proportional(
            liabilities
        )

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            make_priority_proportional({"a": F(1), "b": F(1)}, [["a"]])
        with pytest.raises(ValueError):
            make_edge_ranking({"a": F(1)}, ["a", "a"])


def running_sum_functions(liabilities, classes):
    """Class-scheme functions built one slope tuple at a time, each summed by
    ``PaymentFunction.__init__``: the reference for the closed form."""
    grid = [F(0)]
    spans = []
    for members in classes:
        class_total = sum((liabilities[c] for c in members), F(0))
        if class_total:
            grid.append(grid[-1] + class_total)
            spans.append((class_total, members))
    if len(grid) == 1:
        return {c: PaymentFunction(borders=(F(0),), slopes=()) for c in liabilities}
    functions = {}
    for creditor in liabilities:
        slopes = [F(0)] * len(spans)
        for j, (class_total, members) in enumerate(spans):
            if creditor in members:
                slopes[j] = liabilities[creditor] / class_total
        functions[creditor] = PaymentFunction(borders=tuple(grid), slopes=tuple(slopes))
    return functions


def border_values(fn):
    """``fn``'s values at its borders, by the ``Fraction`` oracle."""
    return tuple(fraction_value_at(fn, x) for x in fn.borders)


def running_values(borders, slopes):
    """The values at the borders, summed one segment at a time."""
    values = [F(0)]
    for i, slope in enumerate(slopes):
        values.append(values[-1] + slope * (borders[i + 1] - borders[i]))
    return tuple(values)


def probe_points(borders):
    """0, every border, just above and below each (off the grid's
    denominator too), each segment's midpoint, and points past the last."""
    top = borders[-1]
    points = {F(0), top + 1, top * 2 + F(1, 3)}
    for j, x in enumerate(borders):
        points.update(x + d for d in (F(1, 10**6), F(-1, 10**6), F(1, 7919), F(-1, 7919), 0))
        if j + 1 < len(borders):
            points.add((x + borders[j + 1]) / 2)
    return sorted(points)


def assert_window_agrees(fn, ref):
    """``fn`` against ``ref``, a function built by ``__init__`` from the
    reference's own slopes, and against the ``Fraction`` evaluators of
    ``oracles``: the same borders, slopes, values and final value, the same
    value, slope and segments at every probe point, and the same equality,
    hash, repr and copies as a function rebuilt from its borders and slopes."""
    twin = PaymentFunction(fn.borders, fn.slopes)
    assert fn.slopes == ref.slopes
    values = running_values(ref.borders, ref.slopes)
    assert border_values(fn) == border_values(ref) == values
    assert fn.final_value == ref.final_value == values[-1]
    for other in (ref, twin, copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
        assert fn == other and hash(fn) == hash(other) and repr(fn) == repr(other)
    for a in probe_points(ref.borders):
        assert fn.value_at(a) == ref.value_at(a) == fraction_value_at(ref, a), a
        assert fn.slope_at(a) == ref.slope_at(a) == fraction_slope_at(ref, a), a
        assert fn.active_segment(a) == ref.active_segment(a) == fraction_active_segment(ref, a)
        assert fn.lower_segment(a) == ref.lower_segment(a) == fraction_lower_segment(ref, a)


class TestClosedFormClassFunctions:
    """Class schemes build each creditor a window of at most one segment on
    the debtor's shared grid, with nothing of size ``k`` of its own; read
    through every evaluator, it must equal the running sum of
    ``running_sum_functions`` and the ``Fraction`` evaluators of
    ``oracles``."""

    def assert_same(self, built, liabilities, classes):
        expected = running_sum_functions(liabilities, classes)
        assert built.keys() == expected.keys()
        grids = {id(fn.borders) for fn in built.values()}
        assert len(grids) == 1
        for creditor, fn in built.items():
            if fn._piece is not None:
                # nothing built yet beyond the window
                assert fn._rates is None and len(fn._window) <= 1
                if liabilities[creditor]:
                    assert expected[creditor].slopes[fn._piece[0]] > 0
        for creditor, fn in built.items():
            assert_window_agrees(fn, expected[creditor])

    def test_hand_cases(self):
        liabilities = {"a": F(3), "z": F(0), "b": F(5, 2), "c": F(1)}
        self.assert_same(make_proportional(liabilities), liabilities, [list(liabilities)])
        order = ["b", "z", "a", "c"]  # z is a zero-total class
        self.assert_same(make_edge_ranking(liabilities, order), liabilities, [[c] for c in order])
        classes = [[], ["z"], ["a", "z2"], ["b", "c"]]  # empty entry, zero class, zero creditor
        with_zero = dict(liabilities, z2=F(0))
        self.assert_same(
            make_priority_proportional(with_zero, classes), with_zero, classes
        )
        zeros = {"a": F(0), "b": F(0)}  # an all-zero debtor
        self.assert_same(make_proportional(zeros), zeros, [list(zeros)])
        self.assert_same(make_edge_ranking(zeros, ["b", "a"]), zeros, [["b"], ["a"]])

    def test_random_schemes(self):
        rng = random.Random(1313)
        for _ in range(300):
            creditors = [f"c{i}" for i in range(rng.randint(1, 6))]
            liabilities = {
                c: F(rng.choice((0, rng.randint(1, 9))), rng.choice((1, 2, 3))) for c in creditors
            }
            self.assert_same(make_proportional(liabilities), liabilities, [creditors])
            order = creditors[:]
            rng.shuffle(order)
            self.assert_same(
                make_edge_ranking(liabilities, order), liabilities, [[c] for c in order]
            )
            classes = [[]]
            for c in order:
                if rng.random() < 0.5:
                    classes.append([])
                classes[-1].append(c)
            self.assert_same(
                make_priority_proportional(liabilities, classes), liabilities, classes
            )

    def test_piecewise_with_interior_zero_slopes(self):
        # windows of several segments, with zero slopes before, inside and
        # after them, on borders over mixed denominators
        rng = random.Random(3535)
        inside = outside = 0
        for _ in range(300):
            count = rng.randint(1, 7)
            borders = [F(0)]
            for _ in range(count):
                borders.append(borders[-1] + F(rng.randint(1, 9), rng.choice((1, 2, 3, 7))))
            choices = (F(0), F(0), F(1, 3), F(1, 2), F(1), F(2, 7))
            slopes = tuple(rng.choice(choices) for _ in range(count))
            fn = PaymentFunction(tuple(borders), slopes)
            paying = [i for i, slope in enumerate(slopes) if slope]
            if paying:
                assert fn._lo == paying[0] and len(fn._window) == paying[-1] - paying[0] + 1
                inside += 0 in slopes[paying[0] : paying[-1]]
                outside += 0 < paying[0] and paying[-1] + 1 < len(slopes)
            else:
                assert fn._window == ()
            assert_window_agrees(fn, PaymentFunction(tuple(borders), slopes))
        assert inside >= 100 and outside >= 10

    def test_a_ranked_debtor_loads_in_linear_memory(self):
        # one function per creditor holds a window of one segment on the
        # shared grid: the traced peak of loading 2,000 ranked creditors is
        # 2.8 MB, and 49 MB when each held a tuple of k slopes and k + 1 values
        doc = one_debtor_document(random.Random(2000), 2000, "edge_ranking")
        tracemalloc.start()
        try:
            net = validate_network(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net.out_claims("d")) == 2000
        assert peak < 8 * 10**6


class TestValidateNetwork:
    def test_input_is_left_as_it_was(self):
        """The reader builds its own values: a document, piecewise edges
        included, is equal after ``validate_network`` to a copy taken
        before, with its numbers given as strings or as ``Fraction``s."""
        rng = random.Random(2828)
        for k in range(60):
            net = random_network(
                rng, schemes=ALL_SCHEME_KINDS, default_cost=k % 2 == 1, liability_dens=(1, 3)
            )
            doc = serialize_network(net)
            fractions = copy.deepcopy(doc)
            for claim in fractions["claims"]:
                claim["liability"] = F(claim["liability"])
            for scheme in fractions["payment_schemes"].values():
                for edge in scheme["edges"]:
                    edge["borders"] = list(map(F, edge["borders"]))
            for raw in (doc, fractions):
                before = copy.deepcopy(raw)
                validate_network(raw)
                assert raw == before

    def test_example3_network_is_valid(self):
        net = build_network(
            banks=[("u", 1), ("v", 2), ("w", 0), ("y", 0)],
            claims=[("u", "v", 2), ("v", "w", 2), ("v", "y", 2), ("y", "v", 2)],
            schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
        )
        assert len(net.claims) == 4
        assert net.total_out("v") == 4

    def test_single_bank_no_claims(self):
        net = build_network(banks=[("solo", 5)], claims=[])
        assert net.total_out("solo") == 0

    def test_slope_sum_violation(self):
        raw = {
            "banks": [{"id": "v"}, {"id": "a"}, {"id": "b"}],
            "claims": [
                {"debtor": "v", "creditor": "a", "liability": 90},
                {"debtor": "v", "creditor": "b", "liability": 20},
            ],
            "payment_schemes": {
                "v": {
                    "type": "piecewise",
                    "edges": [
                        {"creditor": "a", "borders": [0, 110], "slopes": ["9/10"]},
                        {"creditor": "b", "borders": [0, 110], "slopes": ["1/5"]},
                    ],
                }
            },
        }
        with pytest.raises(NetworkValidationError) as err:
            validate_network(raw)
        kinds = {v.kind for v in err.value.violations}
        assert SLOPE_SUM_VIOLATION in kinds

    @pytest.mark.parametrize(
        "claims, kind",
        [
            ([("a", "a", 1)], SELF_LOOP),
            ([("a", "b", 1), ("a", "b", 2)], DUPLICATE_EDGE),
            ([("a", "zzz", 1)], UNKNOWN_BANK_ID),
            ([("a", "b", -3)], NEGATIVE_VALUE),
            # the parser's fault, not a violation: liabilities are finite numbers
            pytest.param(
                [("a", "b", "unbounded")], ParseError, id="claims4-unbounded_liability"
            ),
        ],
    )
    def test_structural_violations(self, claims, kind):
        raw = {
            "banks": [{"id": "a"}, {"id": "b"}],
            "claims": [
                {"debtor": d, "creditor": c, "liability": liability}
                for d, c, liability in claims
            ],
        }
        if kind is ParseError:
            with pytest.raises(ParseError, match=r"^claims\[0\]\.liability: not an exact"):
                validate_network(raw)
            return
        with pytest.raises(NetworkValidationError) as err:
            validate_network(raw)
        assert kind in {v.kind for v in err.value.violations}

    def test_border_mismatch(self):
        raw = {
            "banks": [{"id": "v"}, {"id": "a"}],
            "claims": [{"debtor": "v", "creditor": "a", "liability": 10}],
            "payment_schemes": {
                "v": {
                    "type": "piecewise",
                    "edges": [{"creditor": "a", "borders": [0, 7], "slopes": [1]}],
                }
            },
        }
        with pytest.raises(NetworkValidationError) as err:
            validate_network(raw)
        assert BORDER_MISMATCH in {v.kind for v in err.value.violations}

    def test_unordered_borders_skip_slope_sums(self):
        """A bank whose border list does not increase gets its border
        mismatch and no slope-sum lines; the other banks keep theirs."""
        raw = {
            "banks": [{"id": "v"}, {"id": "w"}, {"id": "a"}, {"id": "b"}],
            "claims": [
                {"debtor": "v", "creditor": "a", "liability": 6},
                {"debtor": "v", "creditor": "b", "liability": 4},
                {"debtor": "w", "creditor": "a", "liability": 6},
                {"debtor": "w", "creditor": "b", "liability": 4},
            ],
            "payment_schemes": {
                "v": {
                    "type": "piecewise",
                    "edges": [
                        {"creditor": "a", "borders": [0, 8, 3, 10], "slopes": [1, 0, "1/2"]},
                        {"creditor": "b", "borders": [0, 4, 10], "slopes": [0, "2/3"]},
                    ],
                },
                "w": {
                    "type": "piecewise",
                    "edges": [
                        {"creditor": "a", "borders": [0, 5, 10], "slopes": [1, "1/5"]},
                        {"creditor": "b", "borders": [0, 5, 10], "slopes": ["1/5", "3/5"]},
                    ],
                },
            },
        }
        with pytest.raises(NetworkValidationError) as err:
            validate_network(raw)
        found = [(v.kind, v.bank, v.claim) for v in err.value.violations]
        assert found == [
            (BORDER_MISMATCH, "v", ("v", "a")),
            (SLOPE_SUM_VIOLATION, "w", None),
            (SLOPE_SUM_VIOLATION, "w", None),
        ]


def piecewise_a(*edges):
    """A piecewise scheme for ``a`` with one edge per ``(creditor, borders,
    slopes)``."""
    edges = [{"creditor": c, "borders": b, "slopes": m} for c, b, m in edges]
    return {"a": {"type": "piecewise", "edges": edges}}


# Each row: the entries of bank a (banks b and c follow, and a owes each of
# them 2), the payment schemes, and the (kind, bank) of every violation in
# order.
VIOLATIONS = {
    "duplicate id": ([{"id": "a"}, {"id": "a"}], {}, [(DUPLICATE_BANK_ID, "a")]),
    "negative external assets": (
        [{"id": "a", "external_assets": "-1"}], {}, [(NEGATIVE_VALUE, "a")]
    ),
    "haircuts outside [0, 1]": (
        [{"id": "a", "alpha": "3/2", "beta": "-1/2"}],
        {},
        [(VALUE_OUT_OF_RANGE, "a"), (VALUE_OUT_OF_RANGE, "a")],
    ),
    "repeated id with bad values": (
        [{"id": "a", "external_assets": "-1", "alpha": "3/2", "beta": "-1/2"}, {"id": "a"}],
        {},
        [(NEGATIVE_VALUE, "a"), (VALUE_OUT_OF_RANGE, "a"), (VALUE_OUT_OF_RANGE, "a"),
         (DUPLICATE_BANK_ID, "a")],
    ),
    "scheme for a bank without claims": (
        [{"id": "a"}],
        {"b": {"type": "edge_ranking", "order": []}},
        [(INVALID_SCHEME, "b")],
    ),
    "scheme for an unknown bank": (
        [{"id": "a"}], {"z": {"type": "proportional"}}, [(UNKNOWN_BANK_ID, "z")]
    ),
    "piecewise edge off the out-claims": (
        [{"id": "a"}],
        piecewise_a(("b", [0, 2], [1]), ("z", [0, 2], [1])),
        [(INVALID_SCHEME, "a")],
    ),
    "wrong slope count": (
        [{"id": "a"}],
        piecewise_a(("b", [0, 2], [1, 0]), ("c", [0, 2], [1])),
        [(INVALID_SCHEME, "a")],
    ),
    "negative slope": (
        [{"id": "a"}],
        piecewise_a(("b", [0, 2, 4], ["-1", 1]), ("c", [0, 2, 4], [1, 0])),
        [(NEGATIVE_VALUE, "a")],
    ),
}


@pytest.mark.parametrize("case", VIOLATIONS)
def test_violation_kinds_banks_and_cli_lines(case, tmp_path, capsys):
    """Each violation comes with its kind and bank, from ``validate_network``
    and ``parse_network`` alike; ``netclear validate`` exits 2 with one
    ``invalid network:`` line per violation."""
    banks, schemes, expected = VIOLATIONS[case]
    doc = {
        "format_version": "1",
        "banks": banks + [{"id": "b"}, {"id": "c"}],
        "claims": [{"debtor": "a", "creditor": c, "liability": 2} for c in ("b", "c")],
        "payment_schemes": schemes,
    }
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkValidationError) as err:
        validate_network(doc)
    violations = err.value.violations
    assert [(v.kind, v.bank) for v in violations] == expected
    with pytest.raises(NetworkValidationError) as parsed:
        parse_network(io.StringIO(json.dumps(doc)))
    assert str(parsed.value) == str(err.value)
    assert main(["validate", str(path)]) == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.splitlines() == [f"invalid network: {v!r}" for v in violations]


def _random_rationals(rng, count, top):
    for _ in range(count):
        denominator = rng.choice((1, 2, 3, 4, 5, 8))
        yield F(rng.randint(0, int(top * denominator)), denominator)


class TestPaymentAxioms:
    """Axioms checked across the random corpus: no fraud, monotonicity, and
    exact continuity at borders."""

    def test_no_fraud_identity(self):
        rng = random.Random(90125)
        checked = 0
        for _ in range(40):
            net = random_network(rng)
            for v in net.bank_ids():
                out = net.out_claims(v)
                if not out:
                    continue
                total = net.total_out(v)
                for a in _random_rationals(rng, 25, total + 1):
                    paid = sum(c.payment.value_at(a) for c in out)
                    assert paid == min(a, total)
                    checked += 1
        assert checked >= 1000

    def test_monotone_in_assets(self):
        rng = random.Random(5150)
        for _ in range(30):
            net = random_network(rng)
            for claim in net.claims:
                total = net.total_out(claim.debtor)
                a = next(_random_rationals(rng, 1, total + 1))
                b = next(_random_rationals(rng, 1, total + 1))
                lo, hi = min(a, b), max(a, b)
                assert claim.payment.value_at(lo) <= claim.payment.value_at(hi)

    def test_continuity_at_borders(self):
        rng = random.Random(1984)
        for _ in range(30):
            net = random_network(rng)
            for claim in net.claims:
                fn = claim.payment
                for i in range(1, len(fn.borders)):
                    left = fn.value_at(fn.borders[i - 1]) + fn.slopes[i - 1] * (
                        fn.borders[i] - fn.borders[i - 1]
                    )
                    assert left == fn.value_at(fn.borders[i])

    def test_slope_matches_difference_quotient(self):
        rng = random.Random(2112)
        for _ in range(30):
            net = random_network(rng)
            for claim in net.claims:
                total = net.total_out(claim.debtor)
                a = next(_random_rationals(rng, 1, total))
                step = next_border_delta(claim.payment, a)
                if step is None:
                    continue
                h = step / 2
                if h == 0:
                    continue
                quotient = (claim.payment.value_at(a + h) - claim.payment.value_at(a)) / h
                assert quotient == claim.payment.slope_at(a)


@st.composite
def piecewise_functions(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    widths = draw(
        st.lists(
            st.fractions(min_value=F(1, 4), max_value=F(8)), min_size=k, max_size=k
        )
    )
    borders = [F(0)]
    for width in widths:
        borders.append(borders[-1] + width)
    slopes = draw(
        st.lists(
            st.fractions(min_value=F(0), max_value=F(3)), min_size=k, max_size=k
        )
    )
    return PaymentFunction(tuple(borders), tuple(slopes))


class TestPaymentFunctionProperties:
    @given(piecewise_functions(), st.fractions(min_value=F(0), max_value=F(50)))
    @settings(max_examples=200, deadline=None)
    def test_value_is_slope_integral(self, fn, a):
        # value_at must equal the integral of slope_at from 0 to a
        total = F(0)
        previous = F(0)
        for border in fn.borders[1:]:
            if a <= previous:
                break
            segment_end = min(a, border)
            total += fn.slope_at(previous) * (segment_end - previous)
            previous = border
        assert fn.value_at(a) == total

    @given(piecewise_functions())
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, fn):
        top = fn.borders[-1]
        points = [top * F(i, 7) for i in range(8)]
        values = [fn.value_at(p) for p in points]
        assert values == sorted(values)


def _fit(slopes, borders):
    """``slopes`` repeated or cut to one per interval of ``borders``."""
    return (list(slopes) * len(borders) or [F(1)] * len(borders))[: len(borders) - 1]


def _malformed_schedules(rng):
    """Out-claims of one to three debtors whose payment schedules break the
    axioms in seeded ways: unordered or non-strict borders, a wrong first or
    end border, wrong final values, slope sums other than 1, one bad borders
    tuple shared by several claims, and one tuple shared across debtors with
    different totals. Some debtors keep a valid class scheme."""
    creditors = [f"c{i}" for i in range(rng.randint(1, 4))]
    debtors = [f"d{i}" for i in range(rng.randint(1, 3))]
    claims = []
    shared = None
    for d in debtors:
        out = rng.sample(creditors, rng.randint(1, len(creditors)))
        liabilities = {
            c: F(rng.choice((0, rng.randint(1, 9), rng.randint(1, 9))), rng.choice((1, 2, 3)))
            for c in out
        }
        total = sum(liabilities.values(), F(0))
        if rng.random() < 0.5:
            classes = [[]]
            for c in out:
                if classes[-1] and rng.random() < 0.5:
                    classes.append([])
                classes[-1].append(c)
            fns = make_priority_proportional(liabilities, classes)
            schedule = {c: [fns[c].borders, list(fns[c].slopes)] for c in out}
        else:
            cuts = sorted({F(rng.randint(1, 23), 4) for _ in range(rng.randint(0, 3))})
            grid = tuple([F(0)] + [x for x in cuts if x < total] + [total])
            schedule = {}
            for c in out:
                borders = grid if rng.random() < 0.6 else tuple(
                    sorted({F(0), total, *rng.sample(grid, rng.randint(1, len(grid)))})
                )
                share = liabilities[c] / total if total else F(0)
                slopes = [
                    share if rng.random() < 0.7 else F(rng.randint(0, 4), rng.randint(1, 4))
                    for _ in borders[1:]
                ]
                schedule[c] = [borders, slopes]
        for c, entry in schedule.items():
            borders, slopes = entry
            roll = rng.random()
            if roll < 0.1 and len(borders) >= 3:  # unordered
                i = rng.randrange(1, len(borders) - 1)
                b = list(borders)
                b[i], b[i + 1] = b[i + 1], b[i]
                entry[0] = tuple(b)
            elif roll < 0.15 and len(borders) >= 2:  # a repeated border
                entry[0] = (borders[0], *borders[:-1])
            elif roll < 0.2:  # wrong first border
                entry[0] = (F(1), *borders[1:]) if len(borders) > 1 else (F(1),)
            elif roll < 0.3:  # wrong end border
                entry[0] = (*borders[:-1], borders[-1] + F(rng.randint(1, 3), 2))
            elif roll < 0.4 and slopes:  # wrong final value, wrong slope sums
                slopes[rng.randrange(len(slopes))] += F(1, rng.randint(2, 5))
        if rng.random() < 0.2 and len(schedule) >= 2:
            # one bad tuple object shared by every claim of the debtor
            first = next(iter(schedule.values()))[0]
            bad = (*first[:-1], first[-1] + 1) if rng.random() < 0.5 else tuple(reversed(first))
            for entry in schedule.values():
                entry[0] = bad
                entry[1] = _fit(entry[1], bad)
        if rng.random() < 0.2:
            # one tuple object shared across debtors, whose totals may differ
            if shared is None:
                shared = next(iter(schedule.values()))[0]
            else:
                entry = next(iter(schedule.values()))
                entry[0] = shared
                entry[1] = _fit(entry[1], shared)
        for c, (borders, slopes) in schedule.items():
            claims.append(Claim(d, c, liabilities[c], PaymentFunction(borders, tuple(slopes))))
    banks = [Bank(v, F(0)) for v in debtors + creditors]
    return assemble(banks, claims)


class TestPaymentAxiomsAgainstFraction:
    """``check_payment_axioms`` appends exactly the violations of the
    ``Fraction`` reference, in the same order, on 3,000 seeded malformed
    schedules."""

    def test_violation_lists_match(self):
        rng = random.Random(15015)
        seen = {BORDER_MISMATCH: 0, LIABILITY_MISMATCH: 0, SLOPE_SUM_VIOLATION: 0}
        unordered = shared_bad = clean = 0
        for _ in range(3000):
            net = _malformed_schedules(rng)
            got, expected = [], []
            check_payment_axioms(net, got)
            fraction_check_payment_axioms(net, expected)
            assert got == expected, (net.claims, got, expected)
            clean += not got
            for violation in got:
                seen[violation.kind] += 1
                unordered += violation.message.startswith("borders must strictly")
            for v in net.bank_ids():
                out = net.out_claims(v)
                bad = [c for c in out if any(c.pair == x.claim for x in got)]
                shared_bad += len(bad) >= 2 and all(
                    c.payment.borders is bad[0].payment.borders for c in bad
                )
        assert min(seen.values()) >= 300, seen
        assert unordered >= 300 and shared_bad >= 100 and clean >= 300


class TestMissingFields:
    """A missing required key is a ``ParseError`` naming its entry, from
    ``validate_network`` and ``parse_network`` alike, not a bare
    ``KeyError``."""

    def error(self, raw):
        with pytest.raises(ParseError) as err:
            validate_network(raw)
        with pytest.raises(ParseError) as parsed:
            parse_network(io.StringIO(json.dumps({"format_version": "1", **raw})))
        assert str(parsed.value) == str(err.value)
        return str(err.value)

    def test_bank_without_id(self):
        assert self.error({"banks": [{}]}) == "banks[0]: bank id must be a string"

    def test_claim_without_endpoints(self):
        raw = {
            "banks": [{"id": "a"}, {"id": "b"}],
            "claims": [
                {"debtor": "a", "creditor": "b", "liability": 1},
                {"debtor": "a", "liability": 2},
                {"liability": 3},
            ],
        }
        assert self.error(raw) == "claims[1]: 'creditor' must be a bank id string"
        del raw["claims"][1]
        assert self.error(raw) == "claims[1]: 'debtor' must be a bank id string"

    def test_piecewise_edge_without_slopes_or_creditor(self):
        raw = {
            "banks": [{"id": "v"}, {"id": "a"}, {"id": "b"}],
            "claims": [
                {"debtor": "v", "creditor": "a", "liability": 1},
                {"debtor": "v", "creditor": "b", "liability": 1},
            ],
            "payment_schemes": {
                "v": {
                    "type": "piecewise",
                    "edges": [
                        {"creditor": "a", "borders": [0, 2]},
                        {"creditor": "b", "borders": [0, 2], "slopes": ["1/2"]},
                    ],
                }
            },
        }
        assert self.error(raw) == "payment_schemes['v'].edges[0]: 'slopes' must be a list"
        edges = raw["payment_schemes"]["v"]["edges"]
        edges[0] = {"borders": [0, 2], "slopes": ["1/2"]}
        assert self.error(raw) == (
            "payment_schemes['v'].edges[0]: 'creditor' must be a bank id string"
        )
