"""Document parsing, serialization round-trips, and the CLI surface."""

import json
import random
import time
from fractions import Fraction as F

import pytest

from netclear import ClearingState, build_network, is_clearing_state
from netclear import cli
from netclear.cli import main
from netclear.errors import InternalInvariantError, ParseError
from netclear.io import (
    dump_document,
    parse_network,
    parse_targets,
    result_document,
)
from netclear.rationals import MAX_DIGITS, decimal_str, parse_exact

from corpus import random_network, serialize_network
from oracles import localcontext_decimal_str

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


@pytest.fixture
def example3_file(tmp_path):
    path = tmp_path / "example3.json"
    path.write_text(json.dumps(EXAMPLE3))
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
            parse_network(json.dumps({"format_version": "1", "banks": [], "claims": []}))

    def test_decimal_strings_parse_exactly(self):
        doc = {
            "format_version": "1",
            "banks": [{"id": "a", "external_assets": "0.1"}],
            "claims": [],
        }
        net = parse_network(json.dumps(doc))
        assert net.bank("a").external_assets == F(1, 10)

    def test_float_literal_rejected(self):
        doc = '{"format_version": "1", "banks": [{"id": "a", "external_assets": 0.1}], "claims": []}'
        with pytest.raises(ParseError):
            parse_network(doc)

    def test_unknown_fields_rejected(self):
        doc = dict(EXAMPLE3)
        doc["banks"] = [{"id": "a", "extra": 1}]
        with pytest.raises(ParseError):
            parse_network(json.dumps(doc))

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        doc = (
            '{"format_version": "1", "banks": '
            '[{"id":"a","external_assets":1,"external_assets":5}], "claims": []}'
        )
        with pytest.raises(ParseError, match="duplicate key 'external_assets'"):
            parse_network(doc)
        path = tmp_path / "dup.json"
        path.write_text(doc)
        assert main(["min-clear", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate key 'external_assets'" in captured.err

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

    def test_wrong_version_rejected(self):
        doc = dict(TWO_CYCLE)
        doc["format_version"] = "2"
        with pytest.raises(ParseError):
            parse_network(json.dumps(doc))

    def test_round_trip_identity(self):
        rng = random.Random(727)
        for _ in range(40):
            net = random_network(rng, default_cost=rng.random() < 0.5)
            doc = serialize_network(net)
            reparsed = parse_network(json.dumps(doc))
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

    def test_trade_optimal(self, tmp_path, capsys):
        doc = {
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
        path = tmp_path / "trade.json"
        path.write_text(json.dumps(doc))
        code = main(["trade", str(path), "--claim", "u", "v", "--buyer", "w"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metadata"]["rho_star"] == "2"
        assert out["metadata"]["rho_min"] == "1"

        code = main(
            ["trade", str(path), "--claim", "u", "v", "--buyer", "w", "--return", "3/2"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metadata"]["creditor_positive"] is True

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

    def test_dump_document_stable(self):
        doc = {"b": 1, "a": {"z": 2, "y": 3}}
        assert dump_document(doc) == dump_document(doc)
        assert dump_document(doc).endswith("\n")


class TestParseTargets:
    def test_round_trip(self, two_cycle_file, tmp_path):
        net = parse_network(two_cycle_file)
        path = tmp_path / "targets.json"
        path.write_text(
            json.dumps({"targets": [{"bank": "a", "lo": 0, "hi": "1/2"}]})
        )
        spec = parse_targets(str(path), net)
        assert spec.targets == {"a": (F(0), F(1, 2))}

    def test_unknown_fields(self, two_cycle_file, tmp_path):
        net = parse_network(two_cycle_file)
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"targets": [{"bank": "a", "lo": 0, "hi": 1, "x": 2}]}))
        with pytest.raises(ParseError):
            parse_targets(str(path), net)

    def test_duplicate_key(self, two_cycle_file, tmp_path):
        net = parse_network(two_cycle_file)
        path = tmp_path / "targets.json"
        path.write_text('{"targets": [{"bank": "a", "lo": 0, "lo": 1, "hi": 1}]}')
        with pytest.raises(ParseError, match="duplicate key 'lo'"):
            parse_targets(str(path), net)
