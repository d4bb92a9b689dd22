"""Document parsing, serialization round-trips, and the CLI surface."""

import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from netclear import ClearingState, build_network, is_clearing_state, payments, validate_network
from netclear import cli
from netclear.cli import main
from netclear.errors import InternalInvariantError, ParseError
from netclear.lattice import RangeResult
from netclear.minimal import MinClearingRun, compute_min_clearing, run_min_clearing
from netclear.priority import compute_max_clearing_pp
from netclear.io import (
    dump_document,
    parse_network,
    parse_targets,
    result_document,
)
from netclear.rationals import MAX_DIGITS, decimal_str, parse_exact
from netclear.trade import TradeResult

from corpus import random_network, serialize_network
from oracles import localcontext_decimal_str, reference_parser

ROOT = Path(__file__).resolve().parent.parent

EXAMPLE3 = {
    "format_version": "1",
    "banks": [
        {"id": "u", "external_assets": 1},
        {"id": "v", "external_assets": 2},
        {"id": "w", "external_assets": 0},
        {"id": "y", "external_assets": 0},
    ],
    "payment_schemes": {"v": {"type": "edge_ranking", "order": ["w", "y"]}},
    "claims": [
        {"debtor": "u", "creditor": "v", "liability": 2},
        {"debtor": "v", "creditor": "w", "liability": 2},
        {"debtor": "v", "creditor": "y", "liability": 2},
        {"debtor": "y", "creditor": "v", "liability": 2},
    ],
}

TWO_CYCLE = {
    "format_version": "1",
    "banks": [{"id": "a"}, {"id": "b"}],
    "payment_schemes": {},
    "claims": [
        {"debtor": "a", "creditor": "b", "liability": 1},
        {"debtor": "b", "creditor": "a", "liability": 1},
    ],
}

# EXAMPLE3 with v owing w 3, and 4 at the buyer w to pay a return for u -> v.
TRADE_WALK = {
    "format_version": "1",
    "banks": [
        {"id": "u", "external_assets": 1},
        {"id": "v", "external_assets": 0},
        {"id": "w", "external_assets": 4},
        {"id": "y", "external_assets": 0},
    ],
    "payment_schemes": {"v": {"type": "edge_ranking", "order": ["w", "y"]}},
    "claims": [
        {"debtor": "u", "creditor": "v", "liability": 2},
        {"debtor": "v", "creditor": "w", "liability": 3},
        {"debtor": "v", "creditor": "y", "liability": 2},
        {"debtor": "y", "creditor": "v", "liability": 2},
    ],
}


@pytest.fixture
def example3_file(tmp_path):
    path = tmp_path / "example3.json"
    path.write_text(json.dumps(EXAMPLE3))
    return str(path)


@pytest.fixture
def trade_walk_file(tmp_path):
    path = tmp_path / "trade.json"
    path.write_text(json.dumps(TRADE_WALK))
    return str(path)


@pytest.fixture
def two_cycle_file(tmp_path):
    path = tmp_path / "twocycle.json"
    path.write_text(json.dumps(TWO_CYCLE))
    return str(path)


class TestParseNetwork:
    def test_example3(self, example3_file):
        net = parse_network(example3_file)
        assert len(net.bank_ids()) == 4
        assert len(net.claims) == 4
        # the edge ranking pays w in full before y
        assert net.claim("v", "w").payment.slopes == (1, 0)
        assert net.claim("v", "y").payment.slopes == (0, 1)

    def test_empty_banks_rejected(self):
        with pytest.raises(ParseError):
            parse_network(io.StringIO(json.dumps({"format_version": "1", "banks": [], "claims": []})))

    def test_decimal_strings_parse_exactly(self):
        doc = {
            "format_version": "1",
            "banks": [{"id": "a", "external_assets": "0.1"}],
            "claims": [],
        }
        net = parse_network(io.StringIO(json.dumps(doc)))
        assert net.bank("a").external_assets == F(1, 10)

    def test_float_literal_rejected(self):
        doc = '{"format_version": "1", "banks": [{"id": "a", "external_assets": 0.1}], "claims": []}'
        with pytest.raises(ParseError):
            parse_network(io.StringIO(doc))

    def test_unknown_fields_rejected(self):
        doc = dict(EXAMPLE3)
        doc["banks"] = [{"id": "a", "extra": 1}]
        with pytest.raises(ParseError):
            parse_network(io.StringIO(json.dumps(doc)))

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        doc = (
            '{"format_version": "1", "banks": '
            '[{"id":"a","external_assets":1,"external_assets":5}], "claims": []}'
        )
        with pytest.raises(ParseError, match="duplicate key 'external_assets'"):
            parse_network(io.StringIO(doc))
        path = tmp_path / "dup.json"
        path.write_text(doc)
        assert main(["min-clear", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate key 'external_assets'" in captured.err

    @pytest.mark.parametrize(
        "where, number, boolean",
        [
            ("banks[1].external_assets", 1, "true"),
            ("claims[1].liability", 0, "false"),
        ],
    )
    def test_bool_beside_its_int_is_still_rejected(
        self, where, number, boolean, tmp_path, capsys
    ):
        # each literal is parsed once per document; true == 1 and false == 0
        # in Python, so the int's parse must not stand in for the bool's
        doc = json.loads(json.dumps(TWO_CYCLE))
        doc["banks"][0]["external_assets"] = number
        doc["claims"][0]["liability"] = number
        field = where.split(".")[1]
        entry = doc[where.split("[")[0]][1]
        entry[field] = "@"
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc).replace('"@"', boolean))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: booleans are not numbers\n"

    def test_equal_values_of_distinct_literals(self):
        doc = json.loads(json.dumps(TWO_CYCLE))
        doc["banks"][0]["external_assets"] = "1/2"
        doc["banks"][1]["external_assets"] = 1
        doc["banks"][1]["alpha"] = "1"
        doc["claims"][0]["liability"] = "1/2"
        doc["claims"][1]["liability"] = "2/4"
        net = parse_network(io.StringIO(json.dumps(doc)))
        assert [net.bank(v).external_assets for v in ("a", "b")] == [F(1, 2), F(1)]
        assert net.bank("b").alpha == 1
        assert [claim.liability for claim in net.claims] == [F(1, 2), F(1, 2)]

    @pytest.mark.parametrize(
        "entry, key",
        [
            ('{"id":"a","alpha":"1/2","beta":1,"alpha":"1/2"}', "alpha"),
            ('{"id":"a","beta":1,"alpha":0,"alpha":1,"beta":1}', "alpha"),
            ('{"id":"a","id":"a"}', "id"),
        ],
    )
    def test_repeated_key_is_named(self, entry, key, tmp_path, capsys):
        doc = f'{{"format_version": "1", "banks": [{entry}], "claims": []}}'
        with pytest.raises(ParseError, match=f"^duplicate key '{key}'$"):
            parse_network(io.StringIO(doc))
        path = tmp_path / "dup.json"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: duplicate key '{key}'\n"

    @pytest.mark.parametrize("command", ["validate", "min-clear"])
    def test_magnitude_limit(self, command, tmp_path, capsys):
        # "1e5000" builds a 5001-digit integer that Python refuses to print;
        # the bound must stop it, and a huge exponent, before any work.
        for text in ("1e5000", "1/1" + "0" * 1000, "1e100000000", "1e-1_000_000_000"):
            doc = json.loads(json.dumps(TWO_CYCLE))
            doc["banks"][0]["external_assets"] = text
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(doc))
            start = time.perf_counter()
            assert main([command, str(path)]) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{MAX_DIGITS} digits" in captured.err

    def test_magnitude_limit_boundary(self):
        assert parse_exact("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
        assert parse_exact(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
        for value in ("1" + "0" * MAX_DIGITS, f"1e{MAX_DIGITS}", 10**MAX_DIGITS):
            with pytest.raises(ValueError, match=f"{MAX_DIGITS} digits"):
                parse_exact(value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("claims", 5),
            ("claims", {}),
            ("targets", 5),
            ("edges", 5),
            ("order", 5),
            ("order", "bc"),
            ("order", ["b", 5]),
            ("classes", [5]),
            ("classes", "bc"),
            ("classes", [["b"], [5]]),
        ],
    )
    def test_container_shapes_rejected(self, field, value, tmp_path, capsys):
        # Each of these once raised TypeError (exit 1) or was read character
        # by character (exit 0).
        scheme_types = {
            "edges": "piecewise",
            "order": "edge_ranking",
            "classes": "priority_proportional",
        }
        doc = json.loads(json.dumps(TWO_CYCLE))
        doc["banks"].append({"id": "c"})
        doc["claims"].append({"debtor": "b", "creditor": "c", "liability": 1})
        targets = {"targets": [{"bank": "a", "lo": 0, "hi": 1}]}
        if field == "claims":
            doc["claims"] = value
        elif field == "targets":
            targets["targets"] = value
        else:
            doc["payment_schemes"]["b"] = {"type": scheme_types[field], field: value}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(doc))
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(targets))
        argv = ["validate", str(net_path)]
        if field == "targets":
            argv = ["range", str(net_path), "--targets", str(targets_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field!r} must be" in captured.err

    @pytest.mark.parametrize("where", ["document", "banks", "targets"])
    def test_deep_nesting_rejected(self, where, two_cycle_file, tmp_path, capsys):
        # The JSON scanner recurses once per level, so deep nesting raised
        # RecursionError with a traceback (exit 1); at 100,000 levels it does
        # so whatever the caller's stack depth.
        deep = "[" * 100_000
        path = tmp_path / "deep.json"
        if where == "document":
            path.write_text(deep)
        elif where == "banks":
            path.write_text('{"format_version": "1", "banks": ' + deep)
        else:
            path.write_text('{"targets": ' + deep)
        argv = ["validate", str(path)]
        if where == "targets":
            argv = ["range", two_cycle_file, "--targets", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "scheme, message",
        [
            ({"type": ["proportional"]}, "unknown scheme type"),
            (
                {"type": "piecewise", "edges": [{"creditor": ["a"], "borders": [0, 1]}]},
                "'creditor' must be",
            ),
            ({"type": "piecewise", "edges": [{"borders": [0, 1]}]}, "'creditor' must be"),
        ],
    )
    def test_scheme_scalar_shapes_rejected(self, scheme, message, tmp_path, capsys):
        # Each of these once escaped as TypeError or KeyError with a traceback.
        doc = json.loads(json.dumps(TWO_CYCLE))
        doc["payment_schemes"]["b"] = scheme
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, index, value", [("borders", 1, True), ("slopes", 0, False)])
    def test_bool_in_piecewise_scheme_rejected(self, field, index, value, tmp_path, capsys):
        # JSON true and false are Python ints; they once reached the engine
        # and exited 3 with an internal error.
        doc = json.loads(json.dumps(TWO_CYCLE))
        doc["banks"].append({"id": "c"})
        doc["claims"].append({"debtor": "b", "creditor": "c", "liability": 1})
        edges = [
            {"creditor": "a", "borders": [0, 1, 2], "slopes": [1, 0]},
            {"creditor": "c", "borders": [0, 1, 2], "slopes": [0, 1]},
        ]
        doc["payment_schemes"]["b"] = {"type": "piecewise", "edges": edges}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        edges[1][field][index] = value
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{field!r} entries must be integers or exact strings" in captured.err

    def test_path_starting_with_a_brace_is_a_path(self, tmp_path, monkeypatch, capsys):
        # a path is never read as JSON text, whatever its first character
        monkeypatch.chdir(tmp_path)
        Path("{a}.json").write_text(json.dumps(TWO_CYCLE))
        assert main(["validate", "{a}.json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["banks"] == 2

    def test_wrong_version_rejected(self):
        doc = dict(TWO_CYCLE)
        doc["format_version"] = "2"
        with pytest.raises(ParseError):
            parse_network(io.StringIO(json.dumps(doc)))

    def test_round_trip_identity(self):
        rng = random.Random(727)
        for _ in range(40):
            net = random_network(rng, default_cost=rng.random() < 0.5)
            doc = serialize_network(net)
            reparsed = parse_network(io.StringIO(json.dumps(doc)))
            assert serialize_network(reparsed) == doc
            assert reparsed.bank_ids() == net.bank_ids()
            for claim in net.claims:
                twin = reparsed.claim(*claim.pair)
                assert twin.liability == claim.liability
                assert twin.payment == claim.payment
                assert twin.payment == claim.payment


class TestResultDocument:
    def test_fields_and_projection(self):
        net = build_network(banks=[("a", "1/3"), ("b", 0)], claims=[("a", "b", 1)])
        state = ClearingState({"a": F(1, 3), "b": F(1, 3)})
        doc = result_document("min-clear", net, state, step_count=1)
        assert doc["assets"]["a"] == {"exact": "1/3", "decimal": "0.333333333333"}
        assert doc["payments"][0]["debtor"] == "a"
        assert doc["metadata"]["operation"] == "min-clear"
        assert doc["metadata"]["solver_version"] == "0.1.0"

    def test_decimal_str_matches_a_fresh_local_context(self):
        """The module-level display context rounds exactly as a fresh
        ``localcontext`` at 12 digits: zero, exact ties at the 12th digit,
        negative values and 1000-digit numerators and denominators."""
        rng = random.Random(1212)
        values = [F(0), F(1), F(-1), F(1, 3), F(2, 3), F(10**12 - 1, 10**12)]
        for _ in range(300):  # ties: 13 significant digits ending in 5
            digits = rng.randint(10**11, 10**12 - 1) * 10 + 5
            values.append(F(digits * rng.choice((1, -1)), 10 ** rng.randint(0, 30)))
            values.append(F(digits, 1) * 10 ** rng.randint(0, 20))
        for _ in range(300):
            values.append(F(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9)))
        for _ in range(100):
            values.append(
                F(rng.randint(1, 10**MAX_DIGITS - 1), rng.randint(1, 10**MAX_DIGITS - 1))
            )
            values.append(F(rng.randint(1, 10**MAX_DIGITS - 1), rng.randint(1, 99)))
            values.append(F(rng.randint(1, 99), rng.randint(1, 10**MAX_DIGITS - 1)))
        for value in values:
            assert decimal_str(value) == localcontext_decimal_str(value), value

    def test_exact_fields_reverify(self, example3_file, capsys):
        assert main(["min-clear", example3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        net = parse_network(example3_file)
        state = ClearingState(
            {v: F(entry["exact"]) for v, entry in doc["assets"].items()}
        )
        assert is_clearing_state(net, state).ok

    @pytest.mark.parametrize("command", ["max-clear", "min-clear"])
    def test_exact_fields_past_the_int_str_limit(self, command, tmp_path, capsys):
        # Three banks that each owe both others, every amount a ratio of two
        # random 999-digit integers, within MAX_DIGITS: the clearing state's
        # numerators run past the digits str() takes by default, and the
        # document carries them exactly while that limit stays in place.
        rng = random.Random(31)

        def amount():
            return f"{rng.randint(10**998, 10**999 - 1)}/{rng.randint(10**998, 10**999 - 1)}"

        ids = ["a", "b", "c"]
        doc = {
            "format_version": "1",
            "banks": [{"id": v, "external_assets": amount()} for v in ids],
            "payment_schemes": {},
            "claims": [
                {"debtor": u, "creditor": v, "liability": amount()}
                for u in ids
                for v in ids
                if u != v
            ],
        }
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        limit = sys.get_int_max_str_digits()
        assert main([command, str(path)]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = json.loads(capsys.readouterr().out)
        net = parse_network(str(path))
        if command == "max-clear":
            state = compute_max_clearing_pp(net)
        else:
            state = run_min_clearing(net).state
        sys.set_int_max_str_digits(0)
        try:
            assets = {v: str(state[v]) for v in ids}
            paid = {pair: str(value) for pair, value in payments(net, state).items()}
        finally:
            sys.set_int_max_str_digits(limit)
        assert {v: entry["exact"] for v, entry in out["assets"].items()} == assets
        assert {(p["debtor"], p["creditor"]): p["exact"] for p in out["payments"]} == paid
        assert max(len(part) for x in assets.values() for part in x.split("/")) > limit


TRADE_ARGS = ("--claim", "u", "v", "--buyer", "w")


def raised(state):
    """``state`` with its first bank id raised by 1/7. The asset map moves it
    back, as a bank's own assets do not enter its image."""
    assets = state.as_dict()
    assets[min(assets)] += F(1, 7)
    return ClearingState(assets)


# Each solver the CLI calls, as the wrapper that raises the state in its result.
PLANTED = {
    "run_min_clearing": lambda run: MinClearingRun(
        raised(run.state), run.step_count, run.flood_count
    ),
    "compute_max_clearing_pp": raised,
    "compute_max_clearing_flood": raised,
    "solve_range_clearing": lambda r: RangeResult(True, raised(r.state), None, None, None),
    "evaluate_return": lambda r: (r[0], raised(r[1]), r[2]),
    "optimal_creditor_positive_return": lambda r: TradeResult(
        r.rho_min, r.rho_star, raised(r.post_state)
    ),
}


class TestCli:
    def test_validate(self, example3_file, capsys):
        assert main(["validate", example3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["banks"] == 4

    def test_min_clear_example3(self, example3_file, capsys):
        assert main(["min-clear", example3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = {"u": "1", "v": "5", "w": "2", "y": "2"}
        assert {v: entry["exact"] for v, entry in doc["assets"].items()} == expected

    def test_max_clear_flood_two_cycle(self, two_cycle_file, capsys):
        assert main(["max-clear", two_cycle_file, "--method", "flood"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {v: e["exact"] for v, e in doc["assets"].items()} == {"a": "1", "b": "1"}

    def test_max_clear_methods_agree(self, example3_file, capsys):
        assert main(["max-clear", example3_file, "--method", "flood"]) == 0
        flood = json.loads(capsys.readouterr().out)
        assert main(["max-clear", example3_file, "--method", "pp"]) == 0
        descent = json.loads(capsys.readouterr().out)
        assert flood["assets"] == descent["assets"]

    def test_byte_identical_determinism(self, example3_file, capsys):
        main(["min-clear", example3_file])
        first = capsys.readouterr().out
        main(["min-clear", example3_file])
        second = capsys.readouterr().out
        assert first == second
        main(["max-clear", example3_file, "--method", "pp"])
        third = capsys.readouterr().out
        main(["max-clear", example3_file, "--method", "pp"])
        assert third == capsys.readouterr().out

    def test_range_feasible(self, two_cycle_file, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(
            json.dumps({"targets": [{"bank": "a", "lo": "1/2", "hi": "7/10"}]})
        )
        assert main(["range", two_cycle_file, "--targets", str(targets)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["assets"]["a"]["exact"] == "1/2"

    def test_range_infeasible_exit_code(self, two_cycle_file, tmp_path, capsys):
        targets = tmp_path / "above.json"
        targets.write_text(json.dumps({"targets": [{"bank": "a", "lo": 2, "hi": 3}]}))
        assert main(["range", two_cycle_file, "--targets", str(targets)]) == 1
        err = capsys.readouterr().err
        assert "infeasible" in err

    def test_range_conflict_names_both_banks(self, tmp_path, capsys):
        ring = dict(
            TWO_CYCLE,
            claims=[
                {"debtor": "a", "creditor": "b", "liability": 4},
                {"debtor": "b", "creditor": "a", "liability": 4},
            ],
        )
        network, targets = tmp_path / "ring.json", tmp_path / "targets.json"
        network.write_text(json.dumps(ring))
        targets.write_text(
            json.dumps(
                {"targets": [{"bank": "a", "lo": 3, "hi": 4}, {"bank": "b", "lo": 0, "hi": 1}]}
            )
        )
        assert main(["range", str(network), "--targets", str(targets)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "infeasible: conflict (bank 'a', conflicts with 'b')\n"

    def test_oracle_needs_a_step(self, two_cycle_file, capsys):
        argv = ["oracle", two_cycle_file, "--direction", "bottom", "--steps", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --steps must be at least 1\n")

    def test_trade_optimal(self, trade_walk_file, capsys):
        code = main(["trade", trade_walk_file, "--claim", "u", "v", "--buyer", "w"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metadata"]["rho_star"] == "2"
        assert out["metadata"]["rho_min"] == "1"
        assert out["metadata"]["interval"] == ["1", "2"]

    @pytest.mark.parametrize("rho, code", [("3/2", 0), ("1", 1)])
    def test_trade_return_verdict(self, rho, code, trade_walk_file, capsys):
        # The claim u -> v pays 1 before the trade; a return of 3/2 raises the
        # seller v above that and the buyer w recovers it, a return of 1 does
        # not raise v.
        argv = ["trade", trade_walk_file, "--claim", "u", "v", "--buyer", "w", "--return", rho]
        assert main(argv) == code
        exact = {"u": "1", "v": rho, "w": "5", "y": "0"}
        paid = [("u", "w", "1"), ("v", "w", rho), ("v", "y", "0"), ("y", "v", "0")]
        expected = {
            "assets": {b: {"decimal": decimal_str(F(x)), "exact": x} for b, x in exact.items()},
            "metadata": {
                "creditor_positive": code == 0,
                "flood_count": 0,
                "operation": "trade",
                "return": rho,
                "solver_version": "0.1.0",
                "step_count": 0,
            },
            "payments": [
                {"creditor": c, "debtor": d, "decimal": decimal_str(F(x)), "exact": x}
                for d, c, x in paid
            ],
        }
        assert capsys.readouterr().out == dump_document(expected)

    def test_trade_no_creditor_positive_exit(self, tmp_path, capsys):
        # v's onward payments go to z, never back to the buyer w
        doc = {
            "format_version": "1",
            "banks": [
                {"id": "u", "external_assets": 1},
                {"id": "v", "external_assets": 0},
                {"id": "w", "external_assets": 4},
                {"id": "z", "external_assets": 0},
            ],
            "payment_schemes": {},
            "claims": [
                {"debtor": "u", "creditor": "v", "liability": 2},
                {"debtor": "v", "creditor": "z", "liability": 3},
            ],
        }
        path = tmp_path / "loser.json"
        path.write_text(json.dumps(doc))
        code = main(["trade", str(path), "--claim", "u", "v", "--buyer", "w"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err

    def test_trade_cap_at_current_payment_gives_reason(self, tmp_path, capsys):
        # u pays its claim of 2 with its 1 in cash; the buyer w holds only 1,
        # so no return can exceed the current payment
        doc = {
            "format_version": "1",
            "banks": [
                {"id": "u", "external_assets": 1},
                {"id": "v"},
                {"id": "w", "external_assets": 1},
            ],
            "claims": [{"debtor": "u", "creditor": "v", "liability": 2}],
        }
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        assert main(["trade", str(path), "--claim", "u", "v", "--buyer", "w"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "no creditor-positive return exists: "
            "the return cap 1 does not exceed the current payment 1\n"
        )

    def test_oracle_bottom_nonconvergent_exit(self, two_cycle_file, capsys):
        assert main(["oracle", two_cycle_file, "--direction", "bottom", "--steps", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["converged"] is True

    def test_oracle_top(self, two_cycle_file, capsys):
        assert main(["oracle", two_cycle_file, "--direction", "top", "--steps", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {v: e["exact"] for v, e in doc["assets"].items()} == {"a": "1", "b": "1"}

    def test_oracle_nonconvergence_is_domain_negative(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "banks": [
                {"id": "u", "external_assets": 1},
                {"id": "v"},
                {"id": "w"},
            ],
            "payment_schemes": {},
            "claims": [
                {"debtor": "u", "creditor": "v", "liability": 1},
                {"debtor": "u", "creditor": "w", "liability": 1},
                {"debtor": "w", "creditor": "u", "liability": 1},
            ],
        }
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path), "--direction", "bottom", "--steps", "50"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["metadata"]["converged"] is False

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["min-clear", missing]) == 2
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2
        capsys.readouterr()
        invalid = tmp_path / "invalid.json"
        invalid.write_text(
            json.dumps(
                {
                    "format_version": "1",
                    "banks": [{"id": "a"}],
                    "claims": [{"debtor": "a", "creditor": "a", "liability": 1}],
                }
            )
        )
        assert main(["validate", str(invalid)]) == 2
        assert "self_loop" in capsys.readouterr().err
        assert main(["bogus-command"]) == 2

    def test_internal_error_exit_3(self, example3_file, monkeypatch, capsys):
        def broken(net):
            raise InternalInvariantError("stale active graph")

        monkeypatch.setattr(cli, "run_min_clearing", broken)
        assert main(["min-clear", example3_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: stale active graph\n"

    def test_engine_fault_exit_3_without_traceback(self, example3_file, monkeypatch, capsys):
        def broken(net):
            raise KeyError("v")

        monkeypatch.setattr(cli, "run_min_clearing", broken)
        assert main(["min-clear", example3_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: KeyError('v')\n"

    def test_engine_value_error_exit_3(self, example3_file, monkeypatch, capsys):
        # a ValueError the engine raises is a fault, not an input error
        def broken(net):
            raise ValueError("need a square system")

        monkeypatch.setattr(cli, "compute_max_clearing_pp", broken)
        assert main(["max-clear", example3_file, "--method", "pp"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: ValueError('need a square system')\n"

    @pytest.mark.parametrize(
        "solver, argv",
        [
            ("run_min_clearing", ["min-clear", "{example3}"]),
            ("compute_max_clearing_pp", ["max-clear", "{example3}", "--method", "pp"]),
            ("compute_max_clearing_flood", ["max-clear", "{example3}", "--method", "flood"]),
            ("solve_range_clearing", ["range", "{two_cycle}", "--targets", "{targets}"]),
            ("evaluate_return", ["trade", "{trade}", *TRADE_ARGS, "--return", "3/2"]),
            ("evaluate_return", ["trade", "{trade}", *TRADE_ARGS, "--return", "1"]),
            ("optimal_creditor_positive_return", ["trade", "{trade}", *TRADE_ARGS]),
        ],
        ids=[
            "min-clear", "max-clear-pp", "max-clear-flood", "range", "trade-return-exit-0",
            "trade-return-exit-1", "trade-optimal",
        ],
    )
    def test_emitted_state_off_the_fixed_point_exit_3(
        self, solver, argv, example3_file, two_cycle_file, trade_walk_file, tmp_path,
        monkeypatch, capsys,
    ):
        """Each solver's state is raised at one bank by 1/7 on its way to
        the CLI, which the asset map then moves back: the CLI's one check
        refuses it, and nothing reaches stdout."""
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [{"bank": "a", "lo": "1/2", "hi": 1}]}))
        files = {"example3": example3_file, "two_cycle": two_cycle_file,
                 "trade": trade_walk_file, "targets": str(targets)}
        real, plant = getattr(cli, solver), PLANTED[solver]
        monkeypatch.setattr(cli, solver, lambda *args: plant(real(*args)))
        assert main([arg.format(**files) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line; the raised bank comes first in each example, and its
        # creditors move with it
        assert re.fullmatch(
            r"internal error: emitted state is not a clearing state: the asset map "
            r"moves [1-4] bank\(s\), first '[ua]'\n",
            captured.err,
        )

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exit_2(self, example3_file, unbuffered):
        # the read end of stdout is closed before the child starts: with
        # stdout buffered or not, writing the result fails inside main, and
        # its one line is all that stderr gets
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "netclear.cli", "validate", example3_file],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write the result: ")

    @pytest.mark.parametrize(
        "rho, err",
        [
            ("abc", "not an exact number: 'abc'"),
            ("1/0", "not an exact number: '1/0'"),
            ("1e5000", "exact numbers are limited to 1000 digits"),
        ],
    )
    def test_unreadable_return_exit_2(self, rho, err, two_cycle_file, capsys):
        argv = ["trade", two_cycle_file, "--claim", "a", "b", "--buyer", "zz", "--return", rho]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_dump_document_stable(self):
        net = parse_network(io.StringIO(json.dumps(TWO_CYCLE)))
        doc = result_document("validate", net, None, extra={"b": 1, "a": {"z": 2, "y": 3}})
        assert dump_document(doc) == dump_document(doc)
        assert dump_document(doc).endswith("\n")
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--claim", "a", "b", "--buyer", "zz", "--return", "0"], "unknown bank id: 'zz'"),
            (["--claim", "a", "b", "--buyer", "zz"], "unknown bank id: 'zz'"),
            (["--claim", "x", "y", "--buyer", "a", "--return", "0"], "no claim from 'x' to 'y'"),
        ],
    )
    def test_unknown_bank_and_claim_unquoted(self, argv, err, two_cycle_file, capsys):
        assert main(["trade", two_cycle_file, *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "target, err",
        [
            ({"bank": "zz", "lo": 0, "hi": 1}, "unknown bank id: 'zz'"),
            ({"bank": "a", "lo": 1, "hi": 0}, "interval for 'a' must satisfy 0 <= lo <= hi"),
            (
                {"bank": "a", "lo": 0, "hi": 1},
                "solve_range_clearing is defined for networks without default cost",
            ),
        ],
    )
    def test_range_checks_targets_before_default_cost(self, target, err, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "banks": [
                {"id": "a", "external_assets": 1, "alpha": "1/2", "beta": "1/2"},
                {"id": "b", "alpha": "1/2", "beta": "1/2"},
            ],
            "claims": [{"debtor": "a", "creditor": "b", "liability": 2}],
        }
        net = tmp_path / "costly.json"
        net.write_text(json.dumps(doc))
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [target]}))
        assert main(["range", str(net), "--targets", str(targets)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_unknown_target_bank_unquoted(self, two_cycle_file, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [{"bank": "zz", "lo": 0, "hi": 1}]}))
        assert main(["range", two_cycle_file, "--targets", str(targets)]) == 2
        assert capsys.readouterr().err == "error: unknown bank id: 'zz'\n"


DELETE = object()


def set_in(path, value):
    """A change to a network document: ``value`` at the key ``path``, or the
    key removed when ``value`` is ``DELETE``."""

    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value

    return change


# Each row: a change to the TWO_CYCLE document, or a targets document for
# ``range`` on it, and the one error line the CLI prints for it. A network
# document's fault is the same ``ParseError`` from ``validate_network`` and
# from ``parse_network``.
PARSE_ERRORS = {
    "bank not an object": (set_in(("banks", 1), "b"), "banks[1]: expected an object"),
    "claim without liability": (
        set_in(("claims", 0, "liability"), DELETE), "claims[0]: missing field 'liability'"
    ),
    "null number": (
        set_in(("banks", 0, "external_assets"), None),
        "banks[0]: 'external_assets' must be an integer or exact string",
    ),
    "endpoint not a string": (
        set_in(("claims", 1, "creditor"), 7), "claims[1]: 'creditor' must be a bank id string"
    ),
    "schemes as a list": (
        set_in(("payment_schemes",), []),
        "payment_schemes: payment_schemes must map bank ids to schemes",
    ),
    "scheme without type": (
        set_in(("payment_schemes", "a"), {"order": ["b"]}),
        "payment_schemes['a']: scheme must be an object with a 'type'",
    ),
    "unknown scheme type": (
        set_in(("payment_schemes", "a"), {"type": "waterfall"}),
        "payment_schemes['a']: unknown scheme type 'waterfall'",
    ),
    "borders as a string": (
        set_in(
            ("payment_schemes", "a"),
            {"type": "piecewise", "edges": [{"creditor": "b", "borders": "0 1", "slopes": [1]}]},
        ),
        "payment_schemes['a'].edges[0]: 'borders' must be a list",
    ),
    "bad border literal": (
        set_in(
            ("payment_schemes", "a"),
            {"type": "piecewise", "edges": [{"creditor": "b", "borders": [0, "x"], "slopes": [1]}]},
        ),
        "payment_schemes['a'].edges[0].borders[1]: not an exact number: 'x'",
    ),
    "target bank not a string": (
        {"targets": [{"bank": 1, "lo": 0, "hi": 1}]},
        "targets[0]: 'bank' must be a bank id string",
    ),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_error_lines(case, tmp_path, capsys):
    fault, line = PARSE_ERRORS[case]
    doc = copy.deepcopy(TWO_CYCLE)
    network = tmp_path / "network.json"
    argv = ["validate", str(network)]
    if isinstance(fault, dict):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(fault))
        argv = ["range", str(network), "--targets", str(targets)]
    else:
        fault(doc)
        for read in (validate_network, lambda d: parse_network(io.StringIO(json.dumps(d)))):
            with pytest.raises(ParseError) as err:
                read(doc)
            assert str(err.value) == line
    network.write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


class TestParseTargets:
    def test_round_trip(self, two_cycle_file, tmp_path):
        net = parse_network(two_cycle_file)
        path = tmp_path / "targets.json"
        path.write_text(
            json.dumps({"targets": [{"bank": "a", "lo": 0, "hi": "1/2"}]})
        )
        assert parse_targets(str(path)) == {"a": (F(0), F(1, 2))}

    def test_unknown_fields(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"targets": [{"bank": "a", "lo": 0, "hi": 1, "x": 2}]}))
        with pytest.raises(ParseError):
            parse_targets(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text('{"targets": [{"bank": "a", "lo": 0, "lo": 1, "hi": 1}]}')
        with pytest.raises(ParseError, match="duplicate key 'lo'"):
            parse_targets(str(path))
        # equal values repeated, and the first of two repeated keys named
        path.write_text('{"targets": [{"bank": "a", "lo": 1, "hi": 2, "bank": "a", "lo": 1}]}')
        with pytest.raises(ParseError, match="^duplicate key 'bank'$"):
            parse_targets(str(path))

    def test_bool_beside_its_int(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text('{"targets": [{"bank": "a", "lo": 1, "hi": true}]}')
        with pytest.raises(ParseError, match=r"^targets\[0\]\.hi: booleans are not numbers$"):
            parse_targets(str(path))
        targets = [{"bank": "a", "lo": 0, "hi": "1/2"}, {"bank": "b", "lo": "0", "hi": 1}]
        path.write_text(json.dumps({"targets": targets}))
        assert parse_targets(str(path)) == {"a": (F(0), F(1, 2)), "b": (F(0), F(1))}

    def test_repeated_bank(self, two_cycle_file, tmp_path, capsys):
        path = tmp_path / "targets.json"
        targets = [{"bank": "a", "lo": 0, "hi": 9}, {"bank": "a", "lo": 5, "hi": 9}]
        path.write_text(json.dumps({"targets": targets}))
        with pytest.raises(ParseError, match=r"targets\[1\]: bank 'a' has more than one target"):
            parse_targets(str(path))
        assert main(["range", two_cycle_file, "--targets", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: targets[1]: bank 'a' has more than one target\n"


# EXAMPLE3 with bank ids that json escapes: a quote, a backslash, non-ASCII
# letters and a control character.
ODD_IDS = {"u": 'quo"te', "v": "bänk", "w": "back\\slash", "y": "銀行\t"}


def odd_ids_network(claims, externals):
    ids = [ODD_IDS[v] for v in "uvwy"]
    return {
        "format_version": "1",
        "banks": [{"id": v, "external_assets": x} for v, x in zip(ids, externals)],
        "payment_schemes": {ODD_IDS["v"]: {"type": "edge_ranking", "order": ids[2:]}},
        "claims": [
            {"debtor": ODD_IDS[d], "creditor": ODD_IDS[c], "liability": x}
            for d, c, x in claims
        ],
    }


class TestDumpDocument:
    """``dump_document`` writes exactly what ``json.dumps(doc, indent=2,
    sort_keys=True)`` writes, on the documents of every CLI operation."""

    @pytest.fixture
    def cli_documents(self, tmp_path, monkeypatch, capsys):
        documents = []

        def recording(doc):
            documents.append(doc)
            return dump_document(doc)

        monkeypatch.setattr(cli.netio, "dump_document", recording)
        # EXAMPLE3's claims; the trade network is test_trade_optimal's
        claims = [("u", "v", 2), ("v", "w", 2), ("v", "y", 2), ("y", "v", 2)]
        net = tmp_path / "odd.json"
        net.write_text(json.dumps(odd_ids_network(claims, [1, 2, 0, 0])))
        claims[1] = ("v", "w", 3)
        trade = tmp_path / "trade.json"
        trade.write_text(json.dumps(odd_ids_network(claims, [1, 0, 4, 0])))
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [{"bank": ODD_IDS["u"], "lo": 0, "hi": 9}]}))
        claim = ["--claim", ODD_IDS["u"], ODD_IDS["v"], "--buyer", ODD_IDS["w"]]
        for argv in (
            ["validate", net],
            ["min-clear", net],
            ["max-clear", net, "--method", "flood"],
            ["max-clear", net, "--method", "pp"],
            ["range", net, "--targets", targets],
            ["trade", trade, *claim],
            ["trade", trade, *claim, "--return", "3/2"],
            ["trade", trade, *claim, "--return", "0"],
            ["oracle", net, "--direction", "bottom", "--steps", "1"],
            ["oracle", net, "--direction", "top", "--steps", "50"],
        ):
            assert main([str(x) for x in argv]) in (0, 1)
        capsys.readouterr()
        return documents

    def test_every_operation_byte_identical(self, cli_documents):
        for doc in cli_documents:
            assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_covers_every_shape(self, cli_documents):
        metadata = [doc["metadata"] for doc in cli_documents]
        assert {m["operation"] for m in metadata} == {
            "validate", "min-clear", "max-clear:flood", "max-clear:pp", "range",
            "trade", "oracle:bottom", "oracle:top",
        }
        assert {k for m in metadata for k in m} == {
            "operation", "step_count", "flood_count", "solver_version", "banks",
            "claims", "return", "creditor_positive", "rho_min", "rho_star",
            "interval", "converged",
        }
        assert {m.get("creditor_positive") for m in metadata} == {None, True, False}
        assert {m.get("converged") for m in metadata} == {None, True, False}
        assert any(not doc["assets"] for doc in cli_documents)
        ids = {v for doc in cli_documents for v in doc["assets"]}
        assert ids == set(ODD_IDS.values())

    def test_random_networks_byte_identical(self):
        rng = random.Random(4242)
        for _ in range(20):
            net = random_network(rng, max_banks=8)
            for operation, state in (
                ("min-clear", compute_min_clearing(net)),
                ("max-clear:pp", compute_max_clearing_pp(net)),
            ):
                doc = result_document(operation, net, state, extra={"nested": [[], {}, [1]]})
                assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_unwritable_metadata_raises(self):
        doc = result_document("validate", parse_network(io.StringIO(json.dumps(TWO_CYCLE))), None,
                              extra={"x": F(1, 2)})
        with pytest.raises(TypeError):
            dump_document(doc)


# The options of each command as `netclear --help` documents them.
PLAIN_OPTIONS = {
    "validate": (),
    "min-clear": (),
    "max-clear": ("--method",),
    "range": ("--targets",),
    "trade": ("--claim", "--buyer", "--return"),
    "oracle": ("--direction", "--steps"),
}
VALID_VALUES = {
    "--method": ("pp", "flood"),
    "--targets": ("t.json",),
    "--claim": ("u", "v"),
    "--buyer": ("w",),
    "--return": ("3/2", "0"),
    "--direction": ("bottom", "top"),
    "--steps": ("5", " 5", "+4", "1_0", "٣", "12 "),
}
# Values that int() or a choices check refuses, or that start with "-".
ODD_VALUES = ("", "-", "-1/2", "-1", "1.5", "five", "fast", "x y", "validate", "--method")
# Tokens that must send the argv to argparse: help, abbreviations, joined
# values, the separator and unknown options.
DEFERRING = (
    "-h", "--help", "--meth", "--targ", "--cl", "--buy", "--ret", "--dir", "--st",
    "--method=pp", "--steps=5", "--", "-x", "--bogus",
)
# Argvs close to the plain spelling but not in it: each must go to argparse.
DEFERRED_ARGVS = [
    [],
    ["bogus", "f"],
    ["-h"],
    ["max-clear", "f", "-h"],
    ["max-clear", "f", "--help"],
    ["max-clear", "f", "--meth", "pp"],
    ["max-clear", "f", "--method=pp"],
    ["max-clear", "--", "f"],
    ["trade", "f", "--claim", "u", "v", "--buyer", "w", "--return", "-1/2"],
    ["trade", "f", "--claim", "u", "v", "--buyer", "w", "--return", "-1"],
    ["max-clear", "f", "--method", "pp", "--method", "pp"],
    ["trade", "f", "--buyer", "w", "--claim", "u"],
    ["trade", "f", "--claim", "u", "--buyer", "w"],
    ["max-clear", "f", "--method"],
    ["max-clear", "f", "--method", "fast"],
    ["oracle", "f", "--direction", "top", "--steps", "five"],
    ["oracle", "f", "--direction", "top", "--steps", ""],
    ["oracle", "f", "--direction", "top", "--steps", "1.5"],
    ["validate", "f", "g"],
    ["range", "f"],
    ["oracle", "f", "--steps", "5"],
    ["max-clear", "--method", "pp"],
    ["validate", "f", "--method", "pp"],
]


def random_argv(rng):
    if rng.random() < 0.05:
        return rng.choice(([], ["bogus"], [""], ["-h"], ["--help"], ["max"], ["net.json"]))
    command = rng.choice(list(PLAIN_OPTIONS))
    options = PLAIN_OPTIONS[command]

    def piece(option):
        count = 2 if option == "--claim" else 1
        pool = VALID_VALUES.get(option, ("u",)) if rng.random() < 0.9 else ODD_VALUES
        return [option] + [rng.choice(pool) for _ in range(count)]

    pieces = [["net.json"]] if rng.random() < 0.95 else []
    pieces += [piece(o) for o in options if rng.random() < 0.9]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        roll = rng.randrange(5)
        if roll == 0:
            pieces.append([rng.choice(("g.json", "", "pp"))])
        elif roll == 1 and options:
            pieces.append(piece(rng.choice(options)))
        elif roll == 2:
            pieces.append(piece(rng.choice([o for opts in PLAIN_OPTIONS.values() for o in opts])))
        elif roll == 3:
            pieces.append([rng.choice(DEFERRING)] + [rng.choice(("pp", "5"))] * rng.randrange(2))
        elif pieces:
            shortened = rng.choice(pieces)
            del shortened[-1:]
    rng.shuffle(pieces)
    return [command] + [token for p in pieces for token in p]


def argparse_outcome(parser, argv):
    """What argparse makes of ``argv``: the namespace's fields or the exit
    code, then what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def bench_argvs(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        return [
            list(op.argv)
            for name in workloads.BUILDERS
            for op in workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path / name))
        ]
    finally:
        del sys.modules[spec.name]


def readme_argvs():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line.partition("#")[0])[1:] for line in lines if line.startswith("netclear ")]


class TestPlainReader:
    """``cli._parse_plain`` reads plain argvs exactly as argparse does and
    leaves every other argv to argparse."""

    def test_agrees_with_argparse(self):
        parser = cli._build_parser()
        rng = random.Random(20260217)
        accepted = 0
        for _ in range(20_000):
            argv = random_argv(rng)
            plain = cli._parse_plain(list(argv))
            if plain is None:
                continue
            accepted += 1
            dashed = [token for token in argv[1:] if token[:1] == "-"]
            assert set(dashed) <= set(PLAIN_OPTIONS[argv[0]]), argv
            assert len(set(dashed)) == len(dashed), argv
            assert argparse_outcome(parser, argv) == (vars(plain), "", ""), argv
        assert accepted > 4000

    @pytest.mark.parametrize("argv", DEFERRED_ARGVS)
    def test_defers_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None

    def test_reads_bench_and_readme_argvs(self, tmp_path):
        parser = cli._build_parser()
        for argv in bench_argvs(tmp_path) + readme_argvs():
            plain = cli._parse_plain(argv)
            assert plain is not None, argv
            assert argparse_outcome(parser, argv) == (vars(plain), "", ""), argv


class TestCommandTable:
    """``cli._COMMANDS`` declares the grammar once. The parser built from it
    matches ``reference_parser``, the grammar written out call by call, and
    the plain reader's fuzzing covers every option it declares."""

    def test_help_matches_reference(self):
        ours, theirs = cli._build_parser(), reference_parser()
        assert ours.format_help() == theirs.format_help()
        for command in PLAIN_OPTIONS:
            # --help prints the subcommand's format_help() and exits 0
            help_text = argparse_outcome(ours, [command, "--help"])
            assert help_text[0] == 0 and help_text[1].startswith("usage: netclear " + command)
            assert help_text == argparse_outcome(theirs, [command, "--help"])

    def test_parses_like_reference(self):
        ours, theirs = cli._build_parser(), reference_parser()
        rng = random.Random(20260217)
        argvs = [random_argv(rng) for _ in range(20_000)] + DEFERRED_ARGVS
        for argv in argvs:
            assert argparse_outcome(ours, argv) == argparse_outcome(theirs, argv), argv

    def test_plain_options_cover_the_table(self):
        table = {command: tuple(options) for command, (_, _, options) in cli._COMMANDS.items()}
        assert table == PLAIN_OPTIONS

    def test_option_specs_use_only_keys_the_plain_reader_reads(self):
        # an ``action=`` or ``const=`` would change what argparse does in a way
        # ``_parse_plain`` cannot follow
        keys = {"dest", "nargs", "choices", "type", "required", "default", "help", "metavar"}
        for _, _, options in cli._COMMANDS.values():
            for option, spec in options.items():
                assert set(spec) <= keys and "dest" in spec, option
