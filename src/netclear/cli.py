"""Command-line interface.

Exit codes: 0 on success, 1 on a domain-negative result (infeasible range,
no creditor-positive trade, oracle non-convergence), 2 on input or usage
errors, 3 on an internal error (a violated engine invariant, reported in one
line without a traceback). Results are JSON ResultDocuments on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import io as netio
from . import errors
from .clearing import bottom_iterate, is_clearing_state, payments, top_iterate
from .lattice import compute_max_clearing_flood, solve_range_clearing
from .minimal import run_min_clearing
from .priority import compute_max_clearing_pp
from .rationals import exact_str, parse_exact
from .trade import apply_trade, evaluate_return, optimal_creditor_positive_return


def _build_parser() -> argparse.ArgumentParser:
    """The one owner of every usage, help and error text, built from
    ``_COMMANDS``. ``argparse`` is imported here, so a run that ``_parse_plain``
    reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="netclear",
        description="Exact clearing-state computations on financial networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("file")
        for option, spec in options.items():
            p.add_argument(option, **spec)
    return parser


def _parse_plain(argv):
    """The namespace ``_build_parser().parse_args(argv)`` returns, for an argv
    spelled the plain way: a command, one file, and each option of that command
    at most once by its exact name with valid values. None for any other argv,
    which argparse then reads (help, abbreviations, ``--opt=value``, ``--``,
    values starting with ``-``, and every usage error)."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command[2]
    found = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if "file" in found:
                return None
            found["file"] = token
            continue
        spec = options.get(token)
        if spec is None or spec["dest"] in found:
            return None
        # a missing value reads as "-", which defers like a dashed one
        values = [next(tokens, "-") for _ in range(spec.get("nargs", 1))]
        if any(value[:1] == "-" for value in values):
            return None
        try:
            values = [spec.get("type", str)(value) for value in values]
        except ValueError:
            return None
        choices = spec.get("choices")
        if choices and any(value not in choices for value in values):
            return None
        found[spec["dest"]] = values if "nargs" in spec else values[0]
    for spec in options.values():
        if spec["dest"] not in found:
            if spec.get("required"):
                return None
            found[spec["dest"]] = spec.get("default")
    return SimpleNamespace(**found) if "file" in found else None


def _emit(doc: dict) -> None:
    # flushed here, so that a closed stdout fails inside ``main``
    sys.stdout.write(netio.dump_document(doc))
    sys.stdout.flush()


def _checked(net, state) -> tuple:
    """``state`` and its payments, once the asset map of ``net`` leaves it in
    place: the check sums each bank's inflow from the payments that the
    result document then writes."""
    paid = payments(net, state)
    moved = is_clearing_state(net, state, paid).violations
    if moved:
        raise errors.InternalInvariantError(
            "emitted state is not a clearing state: the asset map moves "
            f"{len(moved)} bank(s), first {moved[0][0]!r}"
        )
    return state, paid


def _run_validate(args, net) -> int:
    _emit(
        netio.result_document(
            "validate",
            net,
            None,
            extra={"banks": len(net.bank_ids()), "claims": len(net.claims)},
        )
    )
    return 0


def _run_min_clear(args, net) -> int:
    run = run_min_clearing(net)
    _emit(
        netio.result_document(
            "min-clear",
            net,
            *_checked(net, run.state),
            step_count=run.step_count,
            flood_count=run.flood_count,
        )
    )
    return 0


def _run_max_clear(args, net) -> int:
    if args.method == "flood":
        state = compute_max_clearing_flood(net)
    else:
        state = compute_max_clearing_pp(net)
    _emit(netio.result_document(f"max-clear:{args.method}", net, *_checked(net, state)))
    return 0


def _run_range(args, net) -> int:
    result = solve_range_clearing(net, netio.parse_targets(args.targets))
    if not result.feasible:
        detail = f"infeasible: {result.reason} (bank {result.witness!r}"
        if result.conflicting:
            detail += f", conflicts with {result.conflicting!r}"
        detail += ")"
        print(detail, file=sys.stderr)
        return 1
    _emit(netio.result_document("range", net, *_checked(net, result.state)))
    return 0


def _run_trade(args, net) -> int:
    claim_pair = tuple(args.claim)
    if args.rho is not None:
        try:
            rho = parse_exact(args.rho)
        except ValueError as exc:
            raise errors.ParseError(str(exc)) from None
        traded, post, positive = evaluate_return(net, claim_pair, args.buyer, rho)
        _emit(
            netio.result_document(
                "trade",
                traded,
                *_checked(traded, post),
                extra={"return": exact_str(rho), "creditor_positive": positive},
            )
        )
        return 0 if positive else 1
    try:
        result = optimal_creditor_positive_return(net, claim_pair, args.buyer)
    except errors.NoCreditorPositiveTradeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    traded = apply_trade(net, claim_pair, args.buyer, result.rho_star)
    _emit(
        netio.result_document(
            "trade",
            traded,
            *_checked(traded, result.post_state),
            extra={
                "rho_min": exact_str(result.rho_min),
                "rho_star": exact_str(result.rho_star),
                "interval": [exact_str(result.rho_min), exact_str(result.rho_star)],
            },
        )
    )
    return 0


def _run_oracle(args, net) -> int:
    if args.steps < 1:
        raise errors.ParseError("--steps must be at least 1")
    if args.direction == "bottom":
        result = bottom_iterate(net, args.steps)
    else:
        result = top_iterate(net, args.steps)
    _emit(
        netio.result_document(
            f"oracle:{args.direction}",
            net,
            result.state,
            step_count=result.steps,
            extra={"converged": result.converged},
        )
    )
    return 0 if result.converged else 1


# Each command: its handler, its help line, and its options as the keyword
# arguments of ``argparse.add_argument``. ``_build_parser`` passes them on and
# ``_parse_plain`` reads dest, nargs, choices, type, required and default.
_COMMANDS = {
    "validate": (_run_validate, "validate a network file", {}),
    "min-clear": (_run_min_clear, "compute the minimal clearing state", {}),
    "max-clear": (
        _run_max_clear,
        "compute the maximal clearing state",
        {
            "--method": {
                "dest": "method",
                "choices": ("flood", "pp"),
                "default": "pp",
                "help": "flood: the pp maximum, certified by flooding (no default costs); "
                "pp: priority-proportional descent (default, allows default costs)",
            },
        },
    ),
    "range": (
        _run_range,
        "find a clearing state inside target intervals",
        {"--targets": {"dest": "targets", "required": True, "help": "targets JSON file"}},
    ),
    "trade": (
        _run_trade,
        "evaluate or optimize a claims trade",
        {
            "--claim": {
                "dest": "claim",
                "nargs": 2,
                "metavar": ("DEBTOR", "CREDITOR"),
                "required": True,
            },
            "--buyer": {"dest": "buyer", "required": True},
            "--return": {
                "dest": "rho",
                "help": "evaluate this return; omit to compute the optimal one",
            },
        },
    ),
    "oracle": (
        _run_oracle,
        "run a fixed-point iteration oracle",
        {
            "--direction": {"dest": "direction", "choices": ("bottom", "top"), "required": True},
            "--steps": {"dest": "steps", "type": int, "required": True},
        },
    ),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args, netio.parse_network(args.file))
    except errors.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.NetworkValidationError as exc:
        for violation in exc.violations:
            print(f"invalid network: {violation!r}", file=sys.stderr)
        return 2
    except (
        errors.DefaultCostUnsupportedError,
        errors.InvalidSpecError,
        errors.TradeError,
        errors.UnknownBankError,
        errors.UnknownClaimError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.NetclearError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:  # the reader of stdout has closed it
        print(f"error: cannot write the result: {exc}", file=sys.stderr)
        # what stdout still buffers would fail again when it is flushed at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except Exception as exc:  # an engine fault outside the error hierarchy
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
