"""Truncated exponential generating series with exact coefficients.

A ``TruncatedSeries`` holds the coefficients of ``t^0 .. t^order`` of a formal
power series in ``t``.  Every series is kept in one form: EGF numerators
``b[n]`` and two positive integer scales ``E`` and ``Q``, with the n-th
coefficient equal to ``b[n] / (E * n! * Q^n)``.  A numerator is an ``int`` or
a ``LaurentPolynomial``, and the series takes whichever numbers it is given:
the closed forms run on ``int``s alone, and a polynomial coefficient, scalar
or ``exp_series`` rate makes every numerator it meets a polynomial.  A
series is built by ``TruncatedSeries(coeffs)`` or ``exp_series(alpha, order)``.

Each operation has one algorithm.  ``exp(p/q * t)`` is ``b[n] = p^n`` with
``Q = q``; sums rescale both operands to the lcm of their scales, and a
scalar ``c`` joins a sum as ``exp_series(0, order) * c``; a product is the
binomial convolution ``sum C(n,k) a[k] b[n-k]``, one ``sum(map(mul, ...))``
per coefficient; and a quotient ``a / b`` runs Knuth's reciprocal recurrence
on the numerators once, with those of ``a`` on its right-hand side, so a
reciprocal is ``1 / s``.  Only the last step reads the divisor's constant term
``b[0]``: an ``int`` folds ``|b[0]|`` into ``E`` and ``Q``, and a polynomial
multiplies by powers of ``b[0]**-1``, so it must be a single term.

Nothing is reduced until the coefficients are read, and they are reduced
again on each read: ``coeffs``, ``egf_coefficients()``, ``==`` and ``repr``
multiply each numerator by ``Fraction(1, denominator)``, which gives a
``Fraction`` for an ``int`` numerator and a polynomial for a polynomial one.
There is no floating point anywhere: a float coefficient or scalar, added to
or multiplied into a series or passed to ``exp_series``, raises
``TypeError``.

``gen_series(p, g, order)`` is the exponential generating series of the
iterated derivatives of ``p`` under the grammar ``g``: its EGF numerators are
the polynomials ``D^n(p)``, with ``E = Q = 1``.  The named closed forms in
``closed_form`` produce the same kind of data as exact rational series,
evaluated at a point where every square root in the formula is itself
rational (an "admissible" point, supplied together with that root).  A point
assigns exactly the variables its form reads.  Each closed form builds a
numerator and a denominator from exponentials of linear terms, sums and
products, and divides once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._names import CLOSED_FORMS
from .grammar import Grammar, iter_derive
from .laurent import LaurentPolynomial, exact_scalar

#: The largest order ``closed_form`` expands to; the work grows faster than
#: cubically in the order.  At order 300 and 10-digit point values the slowest
#: forms (``gen_z``, ``gen_y``, ``carlitz_F``, ``elizalde_noy_U``) take 1.8-2.2 s
#: each (medians, as CLI children) on a 2-vCPU shared VM with Python 3.11.
MAX_ORDER = 300


class InadmissiblePointError(ValueError):
    """A closed form was asked for at a point it cannot be evaluated at."""


def _scalar(value) -> tuple:
    """``value`` as a numerator over a positive integer denominator.

    A polynomial is its own numerator; floats raise ``TypeError``.
    """
    if isinstance(value, LaurentPolynomial):
        return value, 1
    c = exact_scalar(value)
    return c.numerator, c.denominator


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("series order must be nonnegative")


def _pascal_rows(order: int):
    """The rows ``C(n, 0..n)`` for n = 0 .. order."""
    row = [1]
    for _ in range(order + 1):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


class TruncatedSeries:
    """Coefficients of t^0 .. t^order; arithmetic never looks past order.

    The series lives in ``_nums``, ``_e`` and ``_q`` (see the module
    docstring); ``coeffs`` is computed from them on each read.
    """

    __slots__ = ("_nums", "_e", "_q")

    def __init__(self, coeffs: Sequence):
        scalars = [_scalar(c) for c in coeffs]
        if not scalars:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        e = lcm(*(den for _, den in scalars))
        nums = [num * (factorial(n) * e // den) for n, (num, den) in enumerate(scalars)]
        self._nums, self._e, self._q = nums, e, 1

    @classmethod
    def _of(cls, nums: Sequence, e: int, q: int) -> "TruncatedSeries":
        """The series with n-th coefficient ``nums[n] / (e * n! * q^n)``."""
        self = cls.__new__(cls)
        self._nums, self._e, self._q = nums, e, q
        return self

    def _values(self, steps: Iterable[int]) -> list:
        """``nums[n] / (e * steps[0] * ... * steps[n-1])``, reduced, for each n."""
        dens = accumulate(steps, mul, initial=self._e)
        return [b * Fraction(1, d) for b, d in zip(self._nums, dens)]

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0 .. t^order, reduced on each read."""
        return tuple(self._values(n * self._q for n in range(1, self.order + 1)))

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    # -- arithmetic ----------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series orders differ ({self.order} vs {other.order})")

    def _rescaled(self, e: int, q: int) -> list:
        """The numerators over the scales ``e`` and ``q``, multiples of ``_e`` and ``_q``."""
        k, m = e // self._e, q // self._q
        return list(map(mul, self._nums, accumulate(repeat(m, self.order), mul, initial=k)))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = exp_series(0, self.order) * other
        self._match(other)
        e, q = lcm(self._e, other._e), lcm(self._q, other._q)
        nums = list(map(add, self._rescaled(e, q), other._rescaled(e, q)))
        return TruncatedSeries._of(nums, e, q)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of([-b for b in self._nums], self._e, self._q)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = exp_series(0, self.order) * other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            num, den = _scalar(other)
            return TruncatedSeries._of([b * num for b in self._nums], self._e * den, self._q)
        self._match(other)
        q = lcm(self._q, other._q)
        a, b = self._rescaled(self._e, q), other._rescaled(other._e, q)
        nums = [
            sum(map(mul, map(mul, row, a), b[n::-1]))
            for n, row in enumerate(_pascal_rows(self.order))
        ]
        return TruncatedSeries._of(nums, self._e * other._e, q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient series; the divisor's constant term must be invertible."""
        # Over a common Q, with numerators a and d, beta = d[0] and h = 1 / beta,
        # the quotient's numerators are E_d * f[n] * h^(n+1), where f[n] = a[n] *
        # beta^n - sum_{k>=1} C(n,k) * d[k] * beta^(k-1) * f[n-k].  An integer
        # beta folds m = |beta| into the scales and leaves h its sign.
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._match(other)
        q = lcm(self._q, other._q)
        a, d = self._rescaled(self._e, q), other._rescaled(other._e, q)
        beta = d[0]
        if beta == 0:
            raise ValueError("series constant term vanishes; reciprocal does not exist")
        h, m = (1 if beta > 0 else -1, abs(beta)) if isinstance(beta, int) else (beta ** -1, 1)
        powers = list(accumulate(repeat(beta, self.order), mul, initial=1))
        scaled = list(map(mul, d[1:], powers))
        f = []
        for row, a_n, power in zip(_pascal_rows(self.order), a, powers):
            f.append(a_n * power - sum(map(mul, map(mul, row[1:], scaled), reversed(f))))
        heads = accumulate(repeat(h, self.order), mul, initial=h * other._e)
        return TruncatedSeries._of(list(map(mul, f, heads)), self._e * m, q * m)

    def inverse(self) -> "TruncatedSeries":
        """The reciprocal series ``1 / self``; the constant term must be invertible."""
        return exp_series(0, self.order) / self

    def egf_coefficients(self) -> list:
        """The underlying EGF data: n! times the n-th coefficient."""
        return self._values(repeat(self._q, self.order))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def exp_series(alpha, order: int) -> TruncatedSeries:
    """exp(alpha * t) truncated: the n-th coefficient is alpha^n / n!."""
    _check_order(order)
    num, den = _scalar(alpha)
    return TruncatedSeries._of(list(accumulate(repeat(num, order), mul, initial=1)), 1, den)


def gen_series(p: LaurentPolynomial, g: Grammar, order: int) -> TruncatedSeries:
    """The generating series of p under g, with polynomial coefficients."""
    return TruncatedSeries._of(tuple(iter_derive(p, g, order)), 1, 1)


class _EvalPointFields(NamedTuple):
    assignment: Mapping[str, Fraction]
    discriminant_root: Fraction | None


class EvalPoint(_EvalPointFields):
    """A rational assignment, plus the exact square root a closed form needs."""

    __slots__ = ()
    __hash__ = None  # the assignment is a dict

    def __new__(
        cls,
        assignment: Mapping[str, Fraction],
        discriminant_root: Fraction | None = None,
    ):
        normalized = {name: exact_scalar(v) for name, v in assignment.items()}
        if discriminant_root is not None:
            discriminant_root = exact_scalar(discriminant_root)
        return super().__new__(cls, normalized, discriminant_root)

    def value(self, name: str) -> Fraction:
        try:
            return self.assignment[name]
        except KeyError:
            raise InadmissiblePointError(
                f"point is missing an assignment for '{name}'"
            ) from None

    def root_for(self, discriminant: Fraction, description: str) -> Fraction:
        """The stored root, checked exactly against the needed discriminant."""
        s = self.discriminant_root
        if s is None:
            raise InadmissiblePointError(
                f"closed form needs a rational square root of {description}"
            )
        if s * s != discriminant:
            raise InadmissiblePointError(
                f"root {s} squared is {s * s}, but {description} = {discriminant}"
            )
        return s


#: The variables each closed form's point assigns, no more and no fewer.
_POINT_VARIABLES = {
    "gen_z": ("x", "y", "z", "w"),
    "gen_y": ("x", "y", "z", "w"),
    "carlitz_F": ("x", "y", "z", "w"),
    "gessel_T": ("x",),
    "elizalde_noy_U": ("y",),
}


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
    _check_order(order)
    if order > MAX_ORDER:
        raise ValueError(f"series order {order} exceeds the limit {MAX_ORDER}")
    if which == "no_pdd_U0":
        if point is not None:
            raise InadmissiblePointError("closed form 'no_pdd_U0' takes no point")
        # 1 / sum over n = 0, 1 mod 3 of (-1)^n t^n / n!
        nums = [(1, -1, 0)[n % 3] for n in range(order + 1)]
        return TruncatedSeries._of(nums, 1, 1).inverse()

    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r} (choose from {CLOSED_FORMS})")
    if point is None:
        raise InadmissiblePointError(f"closed form '{which}' needs an evaluation point")
    reads = _POINT_VARIABLES[which]
    unread = sorted(set(point.assignment) - set(reads))
    if unread:
        raise InadmissiblePointError(
            f"closed form '{which}' reads only {', '.join(reads)}; "
            f"the point also assigns {', '.join(unread)}"
        )

    if which in ("gen_z", "gen_y", "carlitz_F"):
        x, y = point.value("x"), point.value("y")
        z, w = point.value("z"), point.value("w")
        s = point.root_for((w + y) ** 2 - 4 * x * z, "(w+y)^2 - 4xz")
        if which == "carlitz_F":
            u, v = (y + w + s) / 2, (y + w - s) / 2
            exp_u, exp_v = exp_series(u, order), exp_series(v, order)
            num, denom = exp_v - exp_u, exp_u * v - exp_v * u
        else:
            exp_s = exp_series(s, order)
            denom = (w + y + s) - exp_s * (w + y - s)
            if which == "gen_z":
                num = exp_series((w - y + s) / 2, order) * (2 * z * s)
            else:
                num = (exp_s - 1) * (2 * x * z) + denom * y
    elif which == "gessel_T":
        x = point.value("x")
        r = point.root_for(1 - x, "1 - x")
        num = exp_series(0, order) * (2 * r)
        denom = exp_series(r, order) * (r - 1) + exp_series(-r, order) * (r + 1)
    else:  # elizalde_noy_U
        y = point.value("y")
        q = point.root_for((y - 1) * (y + 3), "(y-1)(y+3)")
        num = exp_series((1 - y + q) / 2, order) * (2 * q)
        denom = (1 + y + q) - exp_series(q, order) * (1 + y - q)
    try:
        return num / denom
    except ValueError:
        raise InadmissiblePointError("denominator constant term vanishes at this point") from None
