"""The clearing fixed-point map ``phi``, the exact check
``is_clearing_state``, which the CLI runs once on every state it writes, and
the iteration oracles. Both read each bank's external assets off the
network it is given: a state with other externals, such as the injection
driver's working state, is checked against a network built with them."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from . import errors
from .model import FinancialNetwork, _Value
from .rationals import ZERO, sum_ratio


class ClearingState(Mapping):
    """Immutable asset vector; payments are always derived from it."""

    __slots__ = ("_assets",)

    def __init__(self, assets: Mapping[str, Fraction]):
        self._assets = dict(assets)

    def __getitem__(self, bank_id: str) -> Fraction:
        try:
            return self._assets[bank_id]
        except KeyError:
            raise errors.UnknownBankError(bank_id) from None

    def __iter__(self):
        return iter(self._assets)

    def __len__(self):
        return len(self._assets)

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self._assets.items())
        return f"ClearingState({{{inner}}})"

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self._assets)


def require_no_default_cost(net: FinancialNetwork, operation: str) -> None:
    """Reject networks with default cost from ``operation``, which is only
    defined without it."""
    if net.has_default_cost():
        raise errors.DefaultCostUnsupportedError(
            f"{operation} is defined for networks without default cost"
        )


def payments(net: FinancialNetwork, state: Mapping) -> dict[tuple[str, str], Fraction]:
    return {c.pair: c.payment.value_at(state[c.debtor]) for c in net.claims}


def phi(net: FinancialNetwork, state: Mapping, paid: Mapping | None = None) -> ClearingState:
    """One application of the asset-axiom map: a bank keeps its full incoming
    assets when they cover its liabilities, and the haircut assets otherwise.
    The inflows are summed from ``paid``, which is ``payments(net, state)``
    and is computed here when not given.

    Per bank the inflow is one integer sum (``rationals.sum_ratio``), the
    solvency test is a cross-multiplication, and the result is one
    ``Fraction``."""
    if paid is None:
        paid = payments(net, state)
    result: dict[str, Fraction] = {}
    for v, bank in net.banks.items():
        en, ed = bank.external_assets.as_integer_ratio()
        fn, fd = sum_ratio(paid[c.debtor, v] for c in net.in_claims(v))
        # ext + inflow = num / den
        num, den = en * fd + fn * ed, ed * fd
        tn, td = net.total_out(v).as_integer_ratio()
        if num * td >= tn * den:
            result[v] = Fraction(num, den)
        else:
            an, ad = bank.alpha.as_integer_ratio()
            bn, bd = bank.beta.as_integer_ratio()
            result[v] = Fraction(an * en * bd * fd + bn * fn * ad * ed, ad * ed * bd * fd)
    return ClearingState(result)


class ClearingCheck(_Value):
    """Whether a state is a fixed point of the asset map (``ok``), and the
    ``violations``: a ``(bank, phi value, state value)`` triple for each
    bank it moves."""

    __slots__ = ("ok", "violations")

    def __bool__(self):
        return self.ok


def is_clearing_state(
    net: FinancialNetwork, state: Mapping, paid: Mapping | None = None
) -> ClearingCheck:
    """Whether ``phi`` leaves ``state`` in place; ``paid`` is passed on."""
    image = phi(net, state, paid)
    bad = tuple(
        (v, image[v], state[v]) for v in net.bank_ids() if image[v] != state[v]
    )
    return ClearingCheck(not bad, bad)


class IterationResult(_Value):
    """The last ``state`` of an iteration of the asset map, whether it
    ``converged`` (the map left it unchanged) and the ``steps`` taken."""

    __slots__ = ("state", "converged", "steps")


def _iterate(net: FinancialNetwork, start: dict, max_steps: int) -> IterationResult:
    """Apply the asset map from ``start`` until it repeats a state exactly,
    for at most ``max_steps`` steps."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    current = ClearingState(start)
    for step in range(1, max_steps + 1):
        nxt = phi(net, current)
        if nxt.as_dict() == current.as_dict():
            return IterationResult(current, True, step - 1)
        current = nxt
    return IterationResult(current, False, max_steps)


def bottom_iterate(net: FinancialNetwork, max_steps: int) -> IterationResult:
    """Iterate the asset map from the all-zero vector.

    Iterates are monotone non-decreasing and stay below the minimal clearing
    state. Convergence is tested exactly; networks with insolvent cycles
    typically converge only in the limit and are reported honestly as
    non-converged.
    """
    return _iterate(net, {v: ZERO for v in net.bank_ids()}, max_steps)


def top_iterate(net: FinancialNetwork, max_steps: int) -> IterationResult:
    """Iterate the asset map from the lattice top, as a verification oracle.

    Restricted to networks without default cost: the solvency case split makes
    the map discontinuous from above otherwise, so top iteration is unreliable
    there.
    """
    require_no_default_cost(net, "top_iterate")
    top = {v: net.bank(v).external_assets + net.total_in(v) for v in net.bank_ids()}
    return _iterate(net, top, max_steps)
