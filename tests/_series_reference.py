"""The Fraction-coefficient rational series, kept as a test reference.

This is the representation ``gramcalc.series`` used for rational series
before it moved to integer EGF numerators: a tuple of ``Fraction``
coefficients, products and reciprocals one ``_rational_dot`` per output
coefficient.  ``TruncatedSeries``, ``exp_series`` and ``closed_form`` are
copied unchanged; ``test_series_differential`` compares the package against
them.  It is not imported by the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, NamedTuple, Sequence

from gramcalc._names import CLOSED_FORMS
from gramcalc.laurent import LaurentPolynomial, exact_scalar
from gramcalc.series import EvalPoint, InadmissiblePointError

#: The largest order ``closed_form`` expands to; the work grows faster than
#: cubically in the order.
MAX_ORDER = 300


class Ring(NamedTuple):
    """The minimal contract a coefficient ring must provide.

    ``dot(xs, ys)`` is the sum of the products ``xs[i] * ys[i]``.
    """

    name: str
    zero: object
    one: object
    invert: Callable[[object], object]
    dot: Callable[[Sequence, Sequence], object]


def _rational_dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    # Integer numerators over the lcm of the products' denominators, so that
    # the only gcd normalisation is the one in the final Fraction.
    products = [
        (x.numerator * y.numerator, x.denominator * y.denominator)
        for x, y in zip(xs, ys) if x and y
    ]
    den = lcm(*(d for _, d in products))
    return Fraction(sum(n * (den // d) for n, d in products), den)


RATIONALS = Ring(
    name="rationals",
    zero=Fraction(0),
    one=Fraction(1),
    invert=lambda c: Fraction(1) / c,
    dot=_rational_dot,
)


def _exact(value):
    """``value``, if it is a polynomial or an exact scalar; floats raise ``TypeError``."""
    if not isinstance(value, LaurentPolynomial):
        exact_scalar(value)
    return value


class TruncatedSeries:
    """Coefficients of t^0 .. t^order; arithmetic never looks past order."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int, ring: Ring = RATIONALS) -> "TruncatedSeries":
        return cls(ring, [value] + [ring.zero] * order)

    # -- arithmetic ----------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"series orders differ ({self.order} vs {other.order}); "
                "truncate one of them first"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] + _exact(other)
            return TruncatedSeries(self.ring, coeffs)
        self._match(other)
        return TruncatedSeries(
            self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            coeffs = list(self.coeffs)
            coeffs[0] = coeffs[0] - _exact(other)
            return TruncatedSeries(self.ring, coeffs)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _exact(other)
            return TruncatedSeries(self.ring, [a * other for a in self.coeffs])
        self._match(other)
        a, b, dot = self.coeffs, other.coeffs, self.ring.dot
        return TruncatedSeries(
            self.ring, [dot(a[: k + 1], b[k::-1]) for k in range(self.order + 1)]
        )

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """The reciprocal series; the constant term must be invertible."""
        try:
            head = self.ring.invert(self.coeffs[0])
        except ZeroDivisionError:
            raise ValueError(
                "series constant term vanishes; reciprocal does not exist"
            ) from None
        c, dot = self.coeffs, self.ring.dot
        out = [head]
        for n in range(1, self.order + 1):
            out.append(-head * dot(c[1 : n + 1], out[n - 1 :: -1]))
        return TruncatedSeries(self.ring, out)

    def derivative(self) -> "TruncatedSeries":
        """d/dt, one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            self.ring, [(n + 1) * self.coeffs[n + 1] for n in range(self.order)]
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.ring, self.coeffs[: order + 1])

    def egf_coefficients(self) -> list:
        """The underlying EGF data: n! times the n-th coefficient."""
        return [factorial(n) * c for n, c in enumerate(self.coeffs)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def exp_series(alpha, order: int, ring: Ring = RATIONALS) -> TruncatedSeries:
    """exp(alpha * t) truncated: the n-th coefficient is alpha^n / n!."""
    alpha = _exact(alpha)
    coeffs = [ring.one]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * alpha * Fraction(1, n))
    return TruncatedSeries(ring, coeffs)


def _invert_denominator(denom: TruncatedSeries) -> TruncatedSeries:
    try:
        return denom.inverse()
    except ValueError:
        raise InadmissiblePointError(
            "denominator constant term vanishes at this point"
        ) from None


def closed_form(
    which: str,
    point: EvalPoint | None,
    order: int,
) -> TruncatedSeries:
    """A named closed-form EGF as an exact rational truncated series.

    ``gen_z`` and ``gen_y`` are the generating series of the derivatives of z
    and y under the four-variable grammar; ``carlitz_F`` the peak/valley
    quadruple series; ``gessel_T`` the exterior-peak count series in x;
    ``elizalde_noy_U`` the proper-double-descent count series in y;
    ``no_pdd_U0`` the reciprocal series counting permutations with no proper
    double descent (it needs no point).
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"series order {order} exceeds the limit {MAX_ORDER}")
    if which == "no_pdd_U0":
        if point is not None:
            raise InadmissiblePointError("closed form 'no_pdd_U0' takes no point")
        coeffs = []
        for n in range(order + 1):
            if n % 3 == 0:
                coeffs.append(Fraction(1, factorial(n)))
            elif n % 3 == 1:
                coeffs.append(Fraction(-1, factorial(n)))
            else:
                coeffs.append(Fraction(0))
        return TruncatedSeries(RATIONALS, coeffs).inverse()

    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r} (choose from {CLOSED_FORMS})")
    if point is None:
        raise InadmissiblePointError(f"closed form '{which}' needs an evaluation point")

    if which in ("gen_z", "gen_y", "carlitz_F"):
        x, y = point.value("x"), point.value("y")
        z, w = point.value("z"), point.value("w")
        delta = (w + y) ** 2 - 4 * x * z
        s = point.root_for(delta, "(w+y)^2 - 4xz")
        if which == "carlitz_F":
            u = (y + w + s) / 2
            v = (y + w - s) / 2
            exp_u = exp_series(u, order)
            exp_v = exp_series(v, order)
            return (exp_v - exp_u) * _invert_denominator(exp_u * v - exp_v * u)
        exp_s = exp_series(s, order)
        denom = TruncatedSeries.constant(w + y + s, order) - exp_s * (w + y - s)
        inv = _invert_denominator(denom)
        if which == "gen_z":
            return exp_series((w - y + s) / 2, order) * inv * (2 * z * s)
        return (exp_s - 1) * (2 * x * z) * inv + TruncatedSeries.constant(y, order)

    if which == "gessel_T":
        x = point.value("x")
        r = point.root_for(1 - x, "1 - x")
        denom = exp_series(r, order) * (r - 1) + exp_series(-r, order) * (r + 1)
        return _invert_denominator(denom) * (2 * r)

    # elizalde_noy_U
    y = point.value("y")
    q = point.root_for((y - 1) * (y + 3), "(y-1)(y+3)")
    num = exp_series((1 - y + q) / 2, order) * (2 * q)
    denom = TruncatedSeries.constant(1 + y + q, order) - exp_series(q, order) * (1 + y - q)
    return num * _invert_denominator(denom)
