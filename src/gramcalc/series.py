"""Truncated series arithmetic over an exact coefficient ring.

A ``TruncatedSeries`` holds the coefficients of ``t^0 .. t^order`` of a formal
power series in ``t``.  Coefficients live in an exact ring, either the
rationals or Laurent polynomials.  A ``Ring`` supplies ``zero``, ``one``,
``invert`` and ``dot`` (a sum of products); over any ring but ``RATIONALS``
a product or reciprocal is one ``dot`` per output coefficient, and over
``LAURENT`` that ``dot`` is ``laurent.dot``, which accumulates every term
product as an integer in one dict.

A series over ``RATIONALS`` is kept as integers: numerators ``b[n]`` and
two positive scales ``E`` and ``Q``, with the n-th coefficient equal to
``b[n] / (E * n! * Q^n)``.  ``exp(p/q * t)`` is ``b[n] = p^n`` with ``Q = q``;
sums rescale both operands to the lcm of their scales; a product is the
integer binomial convolution ``sum C(n,k) a[k] b[n-k]``; a reciprocal folds
its constant term into ``E`` and ``Q`` and stays integer.  Nothing is reduced
until the coefficients are read: ``coeffs``, ``egf_coefficients()``, ``==``
and ``repr`` give ``Fraction``s.  There is no floating point anywhere: a
float scalar, added to or multiplied into a series or passed to
``exp_series``, raises ``TypeError``.

``gen_series(p, g, order)`` is the exponential generating series of the
iterated derivatives of ``p`` under the grammar ``g``: its n-th coefficient is
the polynomial ``D^n(p) / n!``.  The named closed forms in ``closed_form``
produce the same kind of data as exact rational series, evaluated at a point
where every square root in the formula is itself rational (an "admissible"
point, supplied together with that root).  A point assigns exactly the
variables its form reads.  Closed forms are assembled purely from
exponentials of linear terms, sums, products and series inversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial, lcm
from operator import add, mul
from typing import Callable, Mapping, NamedTuple, Sequence

from ._names import CLOSED_FORMS
from .grammar import Grammar, derive_n
from .laurent import LaurentPolynomial, exact_scalar, dot as _laurent_dot

#: The largest order ``closed_form`` expands to; the work grows faster than
#: cubically in the order.  At order 300 the slowest forms (``gen_z``,
#: ``carlitz_F``, ``elizalde_noy_U``) take about 0.2 s each on a 2-vCPU
#: shared VM with Python 3.11.
MAX_ORDER = 300


class InadmissiblePointError(ValueError):
    """A closed form was asked for at a point it cannot be evaluated at."""


class Ring(NamedTuple):
    """The minimal contract a coefficient ring must provide.

    ``dot(xs, ys)`` is the sum of the products ``xs[i] * ys[i]``.
    """

    name: str
    zero: object
    one: object
    invert: Callable[[object], object]
    dot: Callable[[Sequence, Sequence], object]


RATIONALS = Ring(
    name="rationals",
    zero=Fraction(0),
    one=Fraction(1),
    invert=lambda c: Fraction(1) / c,
    dot=lambda xs, ys: sum(map(mul, xs, ys), Fraction(0)),
)

LAURENT = Ring(
    name="laurent",
    zero=LaurentPolynomial.zero(),
    one=LaurentPolynomial.one(),
    invert=lambda p: p ** -1,
    dot=_laurent_dot,
)


def _exact(value):
    """``value``, if it is a polynomial or an exact scalar; floats raise ``TypeError``."""
    if not isinstance(value, LaurentPolynomial):
        exact_scalar(value)
    return value


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

    Over ``RATIONALS`` the series lives in ``_nums``, ``_e`` and ``_q`` (see
    the module docstring) and ``coeffs`` is computed from them when first
    read; over any other ring ``_nums`` is ``None``.
    """

    __slots__ = ("ring", "_coeffs", "_nums", "_e", "_q")

    def __init__(self, ring: Ring, coeffs: Sequence):
        self.ring = ring
        self._coeffs = tuple(coeffs)
        self._nums = None
        if not self._coeffs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        if ring is RATIONALS:
            scaled = [exact_scalar(c) * factorial(n) for n, c in enumerate(self._coeffs)]
            self._e = lcm(*(c.denominator for c in scaled))
            self._q = 1
            self._nums = [c.numerator * (self._e // c.denominator) for c in scaled]

    @classmethod
    def _integral(cls, nums: list, e: int, q: int) -> "TruncatedSeries":
        """The rational series with n-th coefficient ``nums[n] / (e * n! * q^n)``."""
        self = cls.__new__(cls)
        self.ring, self._coeffs, self._nums, self._e, self._q = RATIONALS, None, nums, e, q
        return self

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0 .. t^order; rational ones are reduced when first read."""
        if self._coeffs is None:
            den, coeffs = self._e, []
            for n, b in enumerate(self._nums, 1):
                coeffs.append(Fraction(b, den))
                den *= n * self._q
            self._coeffs = tuple(coeffs)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs if self._nums is None else self._nums) - 1

    @classmethod
    def constant(cls, value, order: int, ring: Ring = RATIONALS) -> "TruncatedSeries":
        _check_order(order)
        return cls(ring, [value] + [ring.zero] * order)

    # -- arithmetic ----------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if self.ring is not other.ring:
            raise ValueError(f"series rings differ ({self.ring.name} vs {other.ring.name})")
        if self.order != other.order:
            raise ValueError(
                f"series orders differ ({self.order} vs {other.order}); "
                "truncate one of them first"
            )

    def _rescaled(self, e: int, q: int) -> list:
        """The numerators over the scales ``e`` and ``q``, multiples of ``_e`` and ``_q``."""
        k, m = e // self._e, q // self._q
        if m == 1:
            return [b * k for b in self._nums]
        return list(map(mul, self._nums, accumulate(repeat(m, self.order), mul, initial=k)))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            if self._nums is None:
                coeffs = list(self.coeffs)
                coeffs[0] = coeffs[0] + _exact(other)
                return TruncatedSeries(self.ring, coeffs)
            c = exact_scalar(other)
            e = lcm(self._e, c.denominator)
            nums = self._rescaled(e, self._q)
            nums[0] += c.numerator * (e // c.denominator)
            return TruncatedSeries._integral(nums, e, self._q)
        self._match(other)
        if self._nums is None:
            return TruncatedSeries(
                self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
            )
        e, q = lcm(self._e, other._e), lcm(self._q, other._q)
        nums = list(map(add, self._rescaled(e, q), other._rescaled(e, q)))
        return TruncatedSeries._integral(nums, e, q)

    __radd__ = __add__

    def __neg__(self):
        if self._nums is None:
            return TruncatedSeries(self.ring, [-a for a in self.coeffs])
        return TruncatedSeries._integral([-b for b in self._nums], self._e, self._q)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + (-_exact(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if self._nums is None:
                other = _exact(other)
                return TruncatedSeries(self.ring, [a * other for a in self.coeffs])
            c = exact_scalar(other)
            nums = [b * c.numerator for b in self._nums]
            return TruncatedSeries._integral(nums, self._e * c.denominator, self._q)
        self._match(other)
        if self._nums is None:
            a, b, dot = self.coeffs, other.coeffs, self.ring.dot
            return TruncatedSeries(
                self.ring, [dot(a[: k + 1], b[k::-1]) for k in range(self.order + 1)]
            )
        q = lcm(self._q, other._q)
        a, b = self._rescaled(self._e, q), other._rescaled(other._e, q)
        nums = [
            sum(map(mul, map(mul, row, a), b[n::-1]))
            for n, row in enumerate(_pascal_rows(self.order))
        ]
        return TruncatedSeries._integral(nums, self._e * other._e, q)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """The reciprocal series; the constant term must be invertible."""
        if self._nums is None:
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
        # With beta = b[0], the EGF numerators g[n] = gamma[n] / beta^(n+1) of
        # 1 / sum(b[n] u^n / n!) satisfy gamma[0] = 1 and
        # gamma[n] = -sum_{k>=1} C(n,k) * b[k] * beta^(k-1) * gamma[n-k].
        beta = self._nums[0]
        if beta == 0:
            raise ValueError("series constant term vanishes; reciprocal does not exist")
        powers = accumulate(repeat(beta, self.order - 1), mul, initial=1)
        scaled = list(map(mul, self._nums[1:], powers))
        gamma = [1]
        for row in islice(_pascal_rows(self.order), 1, None):
            gamma.append(-sum(map(mul, map(mul, row[1:], scaled), reversed(gamma))))
        sign = 1 if beta > 0 else -1
        nums = [self._e * g * sign ** (n + 1) for n, g in enumerate(gamma)]
        return TruncatedSeries._integral(nums, abs(beta), self._q * abs(beta))

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
        if self._nums is None:
            return [factorial(n) * c for n, c in enumerate(self.coeffs)]
        scales = accumulate(repeat(self._q, self.order), mul, initial=self._e)
        return list(map(Fraction, self._nums, scales))

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
    _check_order(order)
    if ring is RATIONALS:
        alpha = exact_scalar(alpha)
        powers = accumulate(repeat(alpha.numerator, order), mul, initial=1)
        return TruncatedSeries._integral(list(powers), 1, alpha.denominator)
    alpha = _exact(alpha)
    coeffs = [ring.one]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * alpha * Fraction(1, n))
    return TruncatedSeries(ring, coeffs)


def gen_series(p: LaurentPolynomial, g: Grammar, order: int) -> TruncatedSeries:
    """The generating series of p under g, with polynomial coefficients."""
    items = derive_n(p, g, order).items
    return TruncatedSeries(
        LAURENT, [items[n] * Fraction(1, factorial(n)) for n in range(order + 1)]
    )


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


def _invert_denominator(denom: TruncatedSeries) -> TruncatedSeries:
    try:
        return denom.inverse()
    except ValueError:
        raise InadmissiblePointError(
            "denominator constant term vanishes at this point"
        ) from None


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
        return TruncatedSeries._integral(nums, 1, 1).inverse()

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
        delta = (w + y) ** 2 - 4 * x * z
        s = point.root_for(delta, "(w+y)^2 - 4xz")
        if which == "carlitz_F":
            u = (y + w + s) / 2
            v = (y + w - s) / 2
            exp_u = exp_series(u, order)
            exp_v = exp_series(v, order)
            return (exp_v - exp_u) * _invert_denominator(exp_u * v - exp_v * u)
        exp_s = exp_series(s, order)
        inv = _invert_denominator((w + y + s) - exp_s * (w + y - s))
        if which == "gen_z":
            return exp_series((w - y + s) / 2, order) * inv * (2 * z * s)
        return (exp_s - 1) * (2 * x * z) * inv + y

    if which == "gessel_T":
        x = point.value("x")
        r = point.root_for(1 - x, "1 - x")
        denom = exp_series(r, order) * (r - 1) + exp_series(-r, order) * (r + 1)
        return _invert_denominator(denom) * (2 * r)

    # elizalde_noy_U
    y = point.value("y")
    q = point.root_for((y - 1) * (y + 3), "(y-1)(y+3)")
    num = exp_series((1 - y + q) / 2, order) * (2 * q)
    denom = (1 + y + q) - exp_series(q, order) * (1 + y - q)
    return num * _invert_denominator(denom)
