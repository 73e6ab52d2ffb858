"""Truncated exponential generating series over an exact coefficient ring.

A ``TruncatedSeries`` holds the coefficients of ``t^0 .. t^order`` of a formal
power series in ``t``, over one of two exact rings: the rationals
(``RATIONALS``) or Laurent polynomials (``LAURENT``).  Every series is kept in
one form: EGF numerators ``b[n]`` and two positive integer scales ``E`` and
``Q``, with the n-th coefficient equal to ``b[n] / (E * n! * Q^n)``.  The
numerators are ``int``s over ``RATIONALS`` and ``LaurentPolynomial``s over
``LAURENT``.

Each operation has one algorithm for both rings.  ``exp(p/q * t)`` is
``b[n] = p^n`` with ``Q = q``; sums rescale both operands to the lcm of their
scales; a product is the binomial convolution ``sum C(n,k) a[k] b[n-k]``, one
``Ring.dot`` per coefficient; a reciprocal runs Knuth's recurrence on the
numerators; ``derivative()`` drops ``b[0]`` and multiplies ``E`` by ``Q``, and
``truncate()`` is a slice.  Only these points depend on the ring:

* the numerator type (``Ring.one``) and ``Ring.dot``: an integer ``sum`` of
  products over ``RATIONALS``, ``laurent.dot`` over ``LAURENT``;
* the reciprocal's last step: over the integers it folds ``|b[0]|`` into
  ``E`` and ``Q``; over polynomials it multiplies by powers of ``b[0]**-1``,
  so the constant term must be a single term;
* how a coefficient is read: a ``Fraction`` or a polynomial;
* scalar operands, which may be polynomials only over ``LAURENT``.

Nothing is reduced until the coefficients are read: ``coeffs``,
``egf_coefficients()``, ``==`` and ``repr`` give ``Fraction``s over
``RATIONALS`` and polynomials over ``LAURENT``.  There is no floating point
anywhere: a float coefficient or scalar, added to or multiplied into a series
or passed to ``exp_series``, raises ``TypeError``.

``gen_series(p, g, order)`` is the exponential generating series of the
iterated derivatives of ``p`` under the grammar ``g``: its EGF numerators are
the polynomials ``D^n(p)``, with ``E = Q = 1``.  The named closed forms in
``closed_form`` produce the same kind of data as exact rational series,
evaluated at a point where every square root in the formula is itself
rational (an "admissible" point, supplied together with that root).  A point
assigns exactly the variables its form reads.  Closed forms are assembled
purely from exponentials of linear terms, sums, products and series
inversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial, lcm
from operator import add, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    """The numerators of a series: ``RATIONALS`` or ``LAURENT``, no other.

    ``one`` is the numerator 1, and ``dot(xs, ys)`` is the sum of the
    products ``xs[i] * ys[i]`` of two iterables of numerators.
    """

    name: str
    one: object
    dot: Callable[[Iterable, Iterable], object]


RATIONALS = Ring(name="rationals", one=1, dot=lambda xs, ys: sum(map(mul, xs, ys)))

LAURENT = Ring(name="laurent", one=LaurentPolynomial.one(), dot=_laurent_dot)


def _scalar(ring: Ring, value) -> tuple:
    """``value`` as a numerator of ``ring`` over a positive integer denominator.

    Only a ``LAURENT`` series takes polynomial scalars; floats raise ``TypeError``.
    """
    if ring is LAURENT and isinstance(value, LaurentPolynomial):
        return value, 1
    c = exact_scalar(value)
    return ring.one * c.numerator, c.denominator


def _check_ring(ring: Ring) -> None:
    # The ring-dependent steps test for these two by identity.
    if ring is not RATIONALS and ring is not LAURENT:
        raise ValueError("a series ring must be series.RATIONALS or series.LAURENT")


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
    docstring); ``coeffs`` is computed from them when first read.
    """

    __slots__ = ("ring", "_nums", "_e", "_q", "_coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence):
        _check_ring(ring)
        scalars = [_scalar(ring, c) for c in coeffs]
        if not scalars:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        e = lcm(*(den for _, den in scalars))
        nums = [num * (factorial(n) * e // den) for n, (num, den) in enumerate(scalars)]
        self.ring, self._nums, self._e, self._q, self._coeffs = ring, nums, e, 1, None

    @classmethod
    def _of(cls, ring: Ring, nums: list, e: int, q: int) -> "TruncatedSeries":
        """The series with n-th coefficient ``nums[n] / (e * n! * q^n)``."""
        self = cls.__new__(cls)
        self.ring, self._nums, self._e, self._q, self._coeffs = ring, nums, e, q, None
        return self

    def _values(self, steps: Iterable[int]) -> list:
        """``nums[n] / (e * steps[0] * ... * steps[n-1])``, reduced, for each n."""
        dens = accumulate(steps, mul, initial=self._e)
        if self.ring is RATIONALS:
            return list(map(Fraction, self._nums, dens))
        return [b * Fraction(1, d) for b, d in zip(self._nums, dens)]

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0 .. t^order, reduced when first read."""
        if self._coeffs is None:
            steps = (n * self._q for n in range(1, self.order + 1))
            self._coeffs = tuple(self._values(steps))
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @classmethod
    def constant(cls, value, order: int, ring: Ring = RATIONALS) -> "TruncatedSeries":
        _check_order(order)
        return cls(ring, [value] + [0] * order)

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

    def _plus(self, num, den: int) -> "TruncatedSeries":
        """This series plus the scalar ``num / den``."""
        e = lcm(self._e, den)
        nums = self._rescaled(e, self._q)
        nums[0] += num * (e // den)
        return TruncatedSeries._of(self.ring, nums, e, self._q)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._plus(*_scalar(self.ring, other))
        self._match(other)
        e, q = lcm(self._e, other._e), lcm(self._q, other._q)
        nums = list(map(add, self._rescaled(e, q), other._rescaled(e, q)))
        return TruncatedSeries._of(self.ring, nums, e, q)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of(self.ring, [-b for b in self._nums], self._e, self._q)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            num, den = _scalar(self.ring, other)
            return self._plus(-num, den)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            num, den = _scalar(self.ring, other)
            nums = [b * num for b in self._nums]
            return TruncatedSeries._of(self.ring, nums, self._e * den, self._q)
        self._match(other)
        q, dot = lcm(self._q, other._q), self.ring.dot
        a, b = self._rescaled(self._e, q), other._rescaled(other._e, q)
        nums = [dot(map(mul, row, a), b[n::-1]) for n, row in enumerate(_pascal_rows(self.order))]
        return TruncatedSeries._of(self.ring, nums, self._e * other._e, q)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """The reciprocal series; the constant term must be invertible."""
        # With beta = b[0] and h = 1 / beta, the EGF numerators of
        # 1 / sum(b[n] u^n / n!) are gamma[n] * h^(n+1), where gamma[0] = 1 and
        # gamma[n] = -sum_{k>=1} C(n,k) * b[k] * beta^(k-1) * gamma[n-k].  An
        # integer beta's |beta| folds into the scales, leaving h its sign; a
        # polynomial beta must be one term, or beta**-1 raises ValueError.
        beta, dot = self._nums[0], self.ring.dot
        if beta == 0:
            raise ValueError("series constant term vanishes; reciprocal does not exist")
        if self.ring is RATIONALS:
            h, e, q = (1 if beta > 0 else -1), abs(beta), self._q * abs(beta)
        else:
            h, e, q = beta ** -1, 1, self._q
        powers = accumulate(repeat(beta, self.order - 1), mul, initial=1)
        scaled = list(map(mul, self._nums[1:], powers))
        gamma = [self.ring.one]
        for row in islice(_pascal_rows(self.order), 1, None):
            gamma.append(-dot(map(mul, row[1:], scaled), reversed(gamma)))
        heads = accumulate(repeat(h, self.order), mul, initial=h * self._e)
        return TruncatedSeries._of(self.ring, list(map(mul, gamma, heads)), e, q)

    def derivative(self) -> "TruncatedSeries":
        """d/dt, one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries._of(self.ring, self._nums[1:], self._e * self._q, self._q)

    def truncate(self, order: int) -> "TruncatedSeries":
        _check_order(order)
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries._of(self.ring, self._nums[: order + 1], self._e, self._q)

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


def exp_series(alpha, order: int, ring: Ring = RATIONALS) -> TruncatedSeries:
    """exp(alpha * t) truncated: the n-th coefficient is alpha^n / n!."""
    _check_ring(ring)
    _check_order(order)
    num, den = _scalar(ring, alpha)
    powers = accumulate(repeat(num, order), mul, initial=ring.one)
    return TruncatedSeries._of(ring, list(powers), 1, den)


def gen_series(p: LaurentPolynomial, g: Grammar, order: int) -> TruncatedSeries:
    """The generating series of p under g, with polynomial coefficients."""
    return TruncatedSeries._of(LAURENT, list(derive_n(p, g, order).items), 1, 1)


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
        return TruncatedSeries._of(RATIONALS, nums, 1, 1).inverse()

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
