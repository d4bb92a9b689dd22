"""Command-line interface.

Exit codes: 0 on success, 1 on a domain-negative result (infeasible range,
no creditor-positive trade, oracle non-convergence), 2 on input or usage
errors, 3 on an internal error (a violated engine invariant, reported in one
line without a traceback). Results are JSON ResultDocuments on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import io as netio
from . import errors
from .clearing import bottom_iterate, top_iterate
from .lattice import compute_max_clearing_flood, solve_range_clearing
from .minimal import compute_min_clearing, run_min_clearing
from .priority import compute_max_clearing_pp
from .rationals import exact_str, parse_exact
from .trade import TradeSpec, apply_trade, optimal_creditor_positive_return


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netclear",
        description="Exact clearing-state computations on financial networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("file")

    p = sub.add_parser("min-clear", help="compute the minimal clearing state")
    p.add_argument("file")

    p = sub.add_parser("max-clear", help="compute the maximal clearing state")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=("flood", "pp"),
        default="pp",
        help="flood: greedy flooding (no default costs); "
        "pp: priority-proportional descent (default, allows default costs)",
    )

    p = sub.add_parser("range", help="find a clearing state inside target intervals")
    p.add_argument("file")
    p.add_argument("--targets", required=True, help="targets JSON file")

    p = sub.add_parser("trade", help="evaluate or optimize a claims trade")
    p.add_argument("file")
    p.add_argument("--claim", nargs=2, metavar=("DEBTOR", "CREDITOR"), required=True)
    p.add_argument("--buyer", required=True)
    p.add_argument(
        "--return",
        dest="rho",
        default=None,
        help="evaluate this return; omit to compute the optimal one",
    )

    p = sub.add_parser("oracle", help="run a fixed-point iteration oracle")
    p.add_argument("file")
    p.add_argument("--direction", choices=("bottom", "top"), required=True)
    p.add_argument("--steps", type=int, required=True)
    return parser


def _emit(doc: dict) -> None:
    sys.stdout.write(netio.dump_document(doc))


def _run_validate(args) -> int:
    net = netio.parse_network(args.file)
    _emit(
        netio.result_document(
            "validate",
            net,
            None,
            extra={"banks": len(net.bank_ids()), "claims": len(net.claims)},
        )
    )
    return 0


def _run_min_clear(args) -> int:
    net = netio.parse_network(args.file)
    run = run_min_clearing(net)
    _emit(
        netio.result_document(
            "min-clear",
            net,
            run.state,
            step_count=run.step_count,
            flood_count=len(run.flood_steps),
        )
    )
    return 0


def _run_max_clear(args) -> int:
    net = netio.parse_network(args.file)
    if args.method == "flood":
        state = compute_max_clearing_flood(net)
    else:
        state = compute_max_clearing_pp(net)
    _emit(
        netio.result_document(
            f"max-clear:{args.method}",
            net,
            state,
        )
    )
    return 0


def _run_range(args) -> int:
    net = netio.parse_network(args.file)
    spec = netio.parse_targets(args.targets, net)
    result = solve_range_clearing(net, spec)
    if not result.feasible:
        detail = f"infeasible: {result.reason} (bank {result.witness!r}"
        if result.conflicting:
            detail += f", conflicts with {result.conflicting!r}"
        detail += ")"
        print(detail, file=sys.stderr)
        return 1
    _emit(netio.result_document("range", net, result.state))
    return 0


def _run_trade(args) -> int:
    net = netio.parse_network(args.file)
    claim_pair = tuple(args.claim)
    if args.rho is not None:
        rho = parse_exact(args.rho)
        traded = apply_trade(net, TradeSpec(claim_pair, args.buyer, rho))
        base = compute_min_clearing(net)
        post = compute_min_clearing(traded)
        creditor, buyer = claim_pair[1], args.buyer
        positive = post[creditor] > base[creditor] and post[buyer] >= base[buyer]
        _emit(
            netio.result_document(
                "trade",
                traded,
                post,
                extra={"return": exact_str(rho), "creditor_positive": positive},
            )
        )
        return 0 if positive else 1
    try:
        result = optimal_creditor_positive_return(net, claim_pair, args.buyer)
    except errors.NoCreditorPositiveTradeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    traded = apply_trade(net, TradeSpec(claim_pair, args.buyer, result.rho_star))
    _emit(
        netio.result_document(
            "trade",
            traded,
            result.post_state,
            extra={
                "rho_min": exact_str(result.rho_min),
                "rho_star": exact_str(result.rho_star),
                "interval": [exact_str(result.interval[0]), exact_str(result.interval[1])],
            },
        )
    )
    return 0


def _run_oracle(args) -> int:
    net = netio.parse_network(args.file)
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


_HANDLERS = {
    "validate": _run_validate,
    "min-clear": _run_min_clear,
    "max-clear": _run_max_clear,
    "range": _run_range,
    "trade": _run_trade,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
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
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.NetclearError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
