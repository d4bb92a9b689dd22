"""Payment functions, the class schemes that build them, and the payment
axioms that validation ends with.

A ``PaymentFunction`` is its interval borders plus per-interval slopes;
values at borders are accumulated from the slopes, which makes continuity
structural rather than something to check. Intervals are half-open
``[x_{i-1}, x_i)``: evaluation exactly at a border uses the next segment,
found by bisecting the borders' integer numerators over their common
denominator. ``value_at`` returns one numerator over one denominator.

Each function holds a grid (its borders, also as integer numerators) and a
window on it: the segments from its first nonzero slope through its last,
with zero below and its final value above. The class schemes
(``make_proportional``, ``make_edge_ranking``,
``make_priority_proportional``) give all functions of a debtor one shared
grid, the class borders, and each creditor a one-segment window on its
class, so a debtor with ``k`` creditors costs ``O(k)``. They leave each
function's class index and liability numerator on it, from which
``bank_classes`` reads a debtor's integer class grid; any other debtor's
grid is scaled from ``merged_slopes``. ``check_payment_axioms`` builds each
grid once, checks the slope-sum axiom on it in integers and holds it on the
network (``_classes``), where ``priority.priority_structure`` finds it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import lt

from . import errors
from .errors import Violation
from .rationals import ZERO


_set = object.__setattr__


class _Value:
    """Base of the package's records. Their fields are their ``__slots__``,
    set once by ``__init__``, which takes them all by position unless a
    record defines its own; a name starting with ``_`` is derived and takes
    no part in equality, hashing or the repr. Records of one class with equal
    fields are equal and hash alike, and assigning or deleting a field
    raises ``AttributeError``. Pickling and copying rebuild a record through
    its ``__init__``."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            _set(self, name, value)

    def _items(self):
        return [(name, getattr(self, name)) for name in self.__slots__ if name[0] != "_"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self):
        return hash(tuple(self._items()))

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: assignment raises
        return self.__class__, tuple(value for _, value in self._items())


class PaymentFunction(_Value):
    """Monotone piecewise-linear payment function, equal to another exactly
    when their ``borders`` and ``slopes`` are.

    ``slopes[i]`` applies on ``[borders[i], borders[i+1])``; the function is
    constant at and beyond the last border, which is the debtor's total
    out-liability. ``_scaled`` holds the borders as integer numerators over
    one denominator ``_den``; the functions of a class-scheme debtor share
    all three, its class grid. Past that grid a function stores only its
    window: ``_lo``, the index of its first segment with a nonzero slope, and
    in ``_window`` one ``(slope, value at the segment's lower border)`` pair
    of integer ratios per segment from there through its last nonzero slope.
    Below the window it pays zero, from its top on ``_final``. ``_rates``,
    the window's slopes as ``Fraction``s, is built on first read; ``slopes``
    and ``_values`` are built from the window on each read, which only
    equality, hashing, pickling, ``merged_slopes`` and the tests do. So a
    class-scheme creditor costs O(1) however many classes its debtor has.
    ``_piece`` is a class scheme's ``(class index, liability numerator)``,
    else None.

    ``value_at``, ``slope_at`` and ``active_segment`` find the segment of
    ``a`` by bisecting ``_scaled`` with ``floor(a * _den)``: a border
    numerator is an int, so it is at most ``a * _den`` exactly when it is at
    most that floor. ``lower_segment`` reads the segment just below ``a``
    the same way, with the ceiling.
    """

    __slots__ = ("borders", "_scaled", "_den", "_lo", "_window", "_final", "_piece", "_rates")

    def __init__(self, borders: tuple[Fraction, ...], slopes: tuple[Fraction, ...]):
        if len(slopes) != len(borders) - 1:
            raise ValueError("need exactly one slope per interval between borders")
        values = [ZERO]
        for i, slope in enumerate(slopes):
            values.append(values[-1] + slope * (borders[i + 1] - borders[i]))
        den = lcm(*(x.denominator for x in borders))
        scaled = tuple(x.numerator * (den // x.denominator) for x in borders)
        # the window runs from the first nonzero slope through the last; empty
        # when there is none
        paying = [i for i, slope in enumerate(slopes) if slope] or [0, -1]
        lo, hi = paying[0], paying[-1] + 1
        window = tuple(
            (*slopes[i].as_integer_ratio(), *values[i].as_integer_ratio()) for i in range(lo, hi)
        )
        self._fill(borders, scaled, den, lo, window, values[-1], None, tuple(slopes[lo:hi]))

    def _fill(self, borders, scaled, den, lo, window, final, piece, rates) -> "PaymentFunction":
        """``self`` with every slot set. A class scheme fills a bare
        ``object.__new__(PaymentFunction)`` on the grid it already holds,
        with ``rates`` None until they are read; one call per slot, as a loop
        over the slots adds a fifth to a class-scheme creditor's load."""
        _set(self, "borders", borders)
        _set(self, "_scaled", scaled)
        _set(self, "_den", den)
        _set(self, "_lo", lo)
        _set(self, "_window", window)
        _set(self, "_final", final)
        _set(self, "_piece", piece)
        _set(self, "_rates", rates)
        return self

    def _items(self):
        return [("borders", self.borders), ("slopes", self.slopes)]

    def _cached_rates(self) -> tuple[Fraction, ...]:
        if self._rates is None:
            _set(self, "_rates", tuple(Fraction(sn, sd) for sn, sd, _, _ in self._window))
        return self._rates

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        rates = self._cached_rates()
        above = len(self.borders) - 1 - self._lo - len(rates)
        return (ZERO,) * self._lo + rates + (ZERO,) * above

    @property
    def _values(self) -> tuple[Fraction, ...]:
        """The values at the borders."""
        inner = tuple(Fraction(vn, vd) for _, _, vn, vd in self._window)
        above = len(self.borders) - self._lo - len(inner)
        return (ZERO,) * self._lo + inner + (self._final,) * above

    def value_at(self, a: Fraction) -> Fraction:
        """The payment at assets ``a``, as one numerator over one
        denominator: ``value + slope * (a - border)`` on the segment of
        ``a``."""
        an, ad = a.as_integer_ratio()
        bd = self._den
        idx = bisect_right(self._scaled, an * bd // ad) - 1
        i = idx - self._lo
        if i < 0:
            return ZERO
        window = self._window
        if i >= len(window):
            return self._final
        sn, sd, vn, vd = window[i]
        den = sd * ad * bd
        return Fraction(vn * den + vd * sn * (an * bd - self._scaled[idx] * ad), vd * den)

    def slope_at(self, a: Fraction) -> Fraction:
        idx = max(bisect_right(self._scaled, a.numerator * self._den // a.denominator) - 1, 0)
        i = idx - self._lo
        return self._cached_rates()[i] if 0 <= i < len(self._window) else ZERO

    def active_segment(self, a: Fraction) -> tuple[Fraction, Fraction] | None:
        """``(slope_at(a), next border strictly above a)`` when that slope is
        positive, else None; one bisection for both."""
        pos = bisect_right(self._scaled, a.numerator * self._den // a.denominator)
        i = max(pos - 1, 0) - self._lo
        window = self._window
        if i < 0 or i >= len(window) or window[i][0] <= 0:
            return None
        return (self._rates or self._cached_rates())[i], self.borders[pos]

    def lower_segment(self, a: Fraction) -> tuple[Fraction, Fraction] | None:
        """``(slope just below a, the border its segment starts at)`` when
        that slope is positive, else None: the segment
        ``bisect_left(borders, a) - 1``, found with ``ceil(a * _den)``, as a
        border numerator lies below ``a * _den`` exactly when it lies below
        that ceiling. None at 0 and past the last border."""
        j = bisect_left(self._scaled, -(-a.numerator * self._den // a.denominator)) - 1
        i = j - self._lo
        window = self._window
        if i < 0 or i >= len(window) or window[i][0] <= 0:
            return None
        return (self._rates or self._cached_rates())[i], self.borders[j]

    @property
    def final_value(self) -> Fraction:
        return self._final


# --- payment scheme constructors -------------------------------------------

def _class_functions(
    liabilities: dict[str, Fraction], classes: list[list[str]]
) -> dict[str, PaymentFunction]:
    """Shared builder for ranked-class schemes: each class is paid
    proportionally and in full before the next class starts.

    Every function of a debtor shares one borders tuple, the class grid
    (classes with zero total get no segment). A creditor in the class on
    segment ``j`` has slope ``liability / class total`` there and zero
    elsewhere, so its window is that one segment, its value zero at the
    class's lower border and its liability from the upper border on.

    The liabilities are read once as integer numerators over their common
    denominator, so class totals are int sums, each border is one
    normalized ``Fraction`` and each window one tuple of ints; the functions
    share the border numerators over that denominator too."""
    den = lcm(*(x.denominator for x in liabilities.values()))
    scaled = {c: x.numerator * (den // x.denominator) for c, x in liabilities.items()}
    if sum(scaled.values()) == 0:
        flat = PaymentFunction(borders=(ZERO,), slopes=())
        return {creditor: flat for creditor in liabilities}

    grid = [ZERO]
    ints = [0]
    upper = 0
    nonzero: list[tuple[int, list[str]]] = []
    for members in classes:
        class_total = sum([scaled[c] for c in members])
        if class_total == 0:
            continue
        upper += class_total
        grid.append(Fraction(upper, den))
        ints.append(upper)
        nonzero.append((class_total, members))

    borders, ints = tuple(grid), tuple(ints)
    fill, new = PaymentFunction._fill, object.__new__
    functions = {}
    for j, (class_total, members) in enumerate(nonzero):
        for creditor in members:
            x = scaled[creditor]
            window = ((x, class_total, 0, 1),) if x else ()
            final = liabilities[creditor]
            functions[creditor] = fill(
                new(PaymentFunction), borders, ints, den, j, window, final, (j, x), None
            )
    if len(functions) < len(liabilities):
        # creditors whose whole class had zero liability pay nothing
        unpaid = fill(new(PaymentFunction), borders, ints, den, 0, (), ZERO, (0, 0), None)
        for creditor in liabilities:
            functions.setdefault(creditor, unpaid)
    return functions


def make_proportional(liabilities: dict[str, Fraction]) -> dict[str, PaymentFunction]:
    return _class_functions(liabilities, [list(liabilities)])


def make_edge_ranking(
    liabilities: dict[str, Fraction], order: list[str]
) -> dict[str, PaymentFunction]:
    if sorted(order) != sorted(liabilities):
        raise ValueError("ranking order must list each creditor exactly once")
    return _class_functions(liabilities, [[c] for c in order])


def make_priority_proportional(
    liabilities: dict[str, Fraction], classes: list[list[str]]
) -> dict[str, PaymentFunction]:
    flat = [c for members in classes for c in members]
    if sorted(flat) != sorted(liabilities):
        raise ValueError("priority classes must partition the creditors")
    return _class_functions(liabilities, classes)


# --- class grids and the axiom check ---------------------------------------

class BankClasses(_Value):
    """Priority classes of one bank on its merged border grid, as integer
    numerators over the bank's one denominator ``den``: ``grid`` holds
    ``0 = x_0 < x_1 < ... < x_k = L+(v)`` and ``pieces[j]`` lists
    ``(creditor, piece liability)`` for class ``j + 1``."""

    __slots__ = ("den", "grid", "pieces")

    @property
    def class_count(self) -> int:
        return len(self.pieces)


def merged_slopes(claims) -> tuple[list[Fraction], list[list[tuple[str, Fraction]]]]:
    """The merged border grid of one bank's out-claims, and on each grid
    segment ``[grid[j], grid[j + 1])`` the ``(creditor, slope)`` of every
    claim whose slope there is not zero, in the order of ``claims``: its
    ``PaymentFunction.slope_at`` the segment's lower border. Every claim's
    borders must strictly increase, as validation checks before it calls
    this."""
    grid = sorted({x for claim in claims for x in claim.payment.borders})
    segments = []
    for x in grid[:-1]:
        slopes = [(claim.creditor, claim.payment.slope_at(x)) for claim in claims]
        segments.append([(creditor, slope) for creditor, slope in slopes if slope])
    return grid, segments


def bank_classes(claims) -> BankClasses:
    """The class grid of one bank's out-claims over one denominator. When
    every function comes from one class scheme (one shared borders tuple, and
    each carries ``_piece``, its class index and liability numerator), that
    scheme's denominator and border numerators are the grid; otherwise each
    piece is a claim's slope times its segment's width on the merged grid,
    and the denominator is the lcm of the grid's and the pieces'. Zero pieces
    are left out."""
    first = claims[0].payment
    pieces = [[] for _ in first.borders[1:]]
    for claim in claims:
        fn = claim.payment
        if fn.borders is not first.borders or fn._piece is None:
            break
        j, x = fn._piece
        if x:
            pieces[j].append((claim.creditor, x))
    else:
        return BankClasses(first._den, first._scaled, tuple(map(tuple, pieces)))
    grid, segments = merged_slopes(claims)
    pieces = [[(c, s * (hi - lo)) for c, s in e] for lo, hi, e in zip(grid, grid[1:], segments)]
    den = lcm(*(x.denominator for x in grid), *(x.denominator for e in pieces for _, x in e))
    return BankClasses(
        den,
        tuple(x.numerator * (den // x.denominator) for x in grid),
        tuple(tuple((c, x.numerator * (den // x.denominator)) for c, x in e) for e in pieces),
    )


_UNORDERED = "borders must strictly increase from 0"


def _border_fault(fn, total) -> str | None:
    """Why the borders of ``fn`` break the axioms, or None: they must strictly
    increase from 0, as their integer numerators over ``fn._den`` do, and end
    at the debtor's total out-liability."""
    scaled = fn._scaled
    if scaled[0] != 0 or not all(map(lt, scaled, scaled[1:])):
        return _UNORDERED
    if fn.borders[-1] != total:
        return f"borders must end at the total out-liability {total}"
    return None


def check_payment_axioms(net: FinancialNetwork, violations: list[Violation]) -> None:
    """Per-bank checks of the payment axioms: border lists anchored at 0 and
    L+(v), accumulated value equal to the liability, and slope sums equal to 1
    on every segment of the merged border grid below L+(v). A bank with a
    border list that does not strictly increase from 0 gets no slope-sum
    check: its slopes on the merged grid are not defined.

    The borders of each distinct tuple of a bank are checked once (the
    functions of a class scheme share one), and each claim on a bad tuple
    still gets its own violation. Slopes sum to 1 on a segment exactly when
    the integer pieces of its class sum to its width; each checked bank's
    ``bank_classes`` grid is kept in ``net._classes``."""
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out:
            continue
        total = net.total_out(v)
        unordered = False
        faults = {}
        for claim in out:
            fn = claim.payment
            key = id(fn.borders)
            if key not in faults:
                faults[key] = _border_fault(fn, total)
            fault = faults[key]
            if fault is not None:
                violations.append(
                    Violation(errors.BORDER_MISMATCH, fault, bank=v, claim=claim.pair)
                )
                unordered = unordered or fault == _UNORDERED
                continue
            # a class scheme's final value is the liability object itself
            if fn.final_value is not claim.liability and fn.final_value != claim.liability:
                violations.append(
                    Violation(
                        errors.LIABILITY_MISMATCH,
                        f"payment at L+ is {fn.final_value}, liability is {claim.liability}",
                        bank=v,
                        claim=claim.pair,
                    )
                )

        if total == 0 or unordered:
            continue
        classes = net._classes[v] = bank_classes(out)
        grid, den = classes.grid, classes.den
        for lo, hi, entries in zip(grid, grid[1:], classes.pieces):
            paid = sum([x for _, x in entries])
            if paid != hi - lo:
                violations.append(
                    Violation(
                        errors.SLOPE_SUM_VIOLATION,
                        f"slopes sum to {Fraction(paid, hi - lo)} on "
                        f"[{Fraction(lo, den)}, {Fraction(hi, den)})",
                        bank=v,
                    )
                )
