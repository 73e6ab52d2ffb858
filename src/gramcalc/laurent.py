"""Exact sparse multivariate Laurent polynomial arithmetic.

A polynomial is a finite sum of terms ``c * v1^e1 * ... * vk^ek`` where the
coefficients are arbitrary-precision rationals and the exponents are
integers, possibly negative.  Inside, a polynomial is three fields:

* the sorted tuple of the variables that occur,
* a dict from a dense exponent tuple over those variables to an ``int``
  numerator,
* one common positive denominator.

Values are immutable and kept in canonical form: no stored numerator is
zero, every listed variable has a nonzero exponent in some term, and the
numerators and the denominator are coprime.  Equality is therefore plain
field equality.  Operations on polynomials over different variables first
re-embed both into the union of their variables; products, powers, sums,
evaluation and substitution run in integer arithmetic.  ``dot`` sums many
products into one dict, and it is the one place where two terms are
multiplied: sums, products, powers and substitution go through it, and so
does each step of ``derivatives``, the iterated derivation of the ring (the
formal derivative of a grammar).  No other module reads a polynomial's
exponent tuples.
``LaurentPolynomial.from_dense`` is the one constructor that takes integer
terms from outside.

``Fraction`` appears only at the edge.  ``items()`` and ``coefficient()``
give ``Fraction`` coefficients on monomials, where a monomial is a tuple of
``(variable, exponent)`` pairs sorted by variable name, with no zero
exponent (the empty monomial is the constant 1).  Variables are bare
identifier strings (a letter followed by letters, digits or underscores); two
variables are the same iff their names are equal.

For display and serialization, terms are ordered by total degree and then
lexicographically on the exponent vector (variables taken in alphabetical
order), largest first.  This ordering is deterministic, so formatted output
and JSON exports are stable across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, getitem, index, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def exact_scalar(value: Scalar) -> Fraction:
    """``value`` as a Fraction; only ``int`` and ``Fraction`` are exact scalars."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(
            f"expected an exact scalar (int or Fraction), got {type(value).__name__} {value!r}"
        )
    return Fraction(value)


def check_variable_name(name: str) -> str:
    """Return ``name`` if it is a valid variable identifier, else raise."""
    if not isinstance(name, str) or not _VAR_RE.match(name):
        raise ValueError(f"invalid variable name {name!r}")
    return name


def monomial(exponents: Mapping[str, int]) -> Monomial:
    """Canonical monomial from an exponent map (zero exponents dropped)."""
    items = []
    for name, exp in exponents.items():
        check_variable_name(name)
        if exp:
            items.append((name, index(exp)))
    return tuple(sorted(items))


class LaurentPolynomial:
    """An immutable Laurent polynomial with exact rational coefficients."""

    __slots__ = ("_vars", "_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        """Sum the given ``(monomial, coefficient)`` terms.

        A monomial here may list a variable twice (the exponents add) or with
        exponent 0 (it is dropped); coefficients must be exact scalars.
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: list[tuple[dict[str, int], Fraction]] = []
        names: set[str] = set()
        for mono, coeff in items:
            coeff = exact_scalar(coeff)
            exps: dict[str, int] = {}
            for name, exp in mono:
                exps[name] = exps.get(name, 0) + index(exp)
            names.update(exps)
            if coeff:
                collected.append((exps, coeff))
        for name in names:
            check_variable_name(name)
        variables = tuple(sorted(names))
        den = lcm(*(c.denominator for _, c in collected))
        num: dict[Exponents, int] = {}
        for exps, c in collected:
            key = tuple([exps.get(name, 0) for name in variables])
            num[key] = num.get(key, 0) + c.numerator * (den // c.denominator)
        self._vars, self._num, self._den = _reduce(
            variables, {k: c for k, c in num.items() if c}, den
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return _ONE

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPolynomial":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        check_variable_name(name)
        return _make((name,), {(1,): 1}, 1)

    @classmethod
    def term(cls, coeff: Scalar, exponents: Mapping[str, int]) -> "LaurentPolynomial":
        return cls({monomial(exponents): coeff})

    @classmethod
    def from_dense(
        cls,
        variables: Sequence[str],
        numerators: Mapping[Exponents, int],
        denominator: int = 1,
    ) -> "LaurentPolynomial":
        """``sum(c * prod(v^e)) / denominator`` over ``int`` numerators ``c``.

        ``numerators`` maps exponent tuples over the distinct ``variables``,
        one entry per variable in the order given, to integers; zero
        numerators are dropped.
        """
        variables = tuple(variables)
        for name in variables:
            check_variable_name(name)
        if len(set(variables)) != len(variables):
            raise ValueError(f"variables {variables!r} are not distinct")
        if not {len(variables)}.issuperset(map(len, numerators)):
            raise ValueError(
                f"an exponent tuple does not have one entry per variable of {variables!r}"
            )
        if index(denominator) <= 0:
            raise ValueError("the denominator must be positive")
        ordered = tuple(sorted(variables))
        if ordered != variables:
            embed = _embedder(variables, ordered)
            numerators = {embed(k): c for k, c in numerators.items()}
        return _make(ordered, {k: c for k, c in numerators.items() if c}, denominator)

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter([(self._monomial(k), Fraction(c, self._den)) for k, c in self._num.items()])

    def __len__(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def variables(self) -> frozenset[str]:
        return frozenset(self._vars)

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        """The coefficient of the given monomial (0 if absent)."""
        exps = dict(monomial(exponents))
        if not exps.keys() <= set(self._vars):
            return _ZERO_FRAC
        key = tuple([exps.get(name, 0) for name in self._vars])
        return Fraction(self._num.get(key, 0), self._den)

    def _monomial(self, key: Exponents) -> Monomial:
        return tuple([(name, e) for name, e in zip(self._vars, key) if e])

    # -- ring operations ---------------------------------------------------

    def __pos__(self) -> "LaurentPolynomial":
        return self

    def __neg__(self) -> "LaurentPolynomial":
        return _make(self._vars, {k: -c for k, c in self._num.items()}, self._den)

    def __add__(self, other: object) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        return dot((self, other), (_ONE, _ONE))

    __radd__ = __add__

    def __sub__(self, other: object) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            p, q = other.numerator, other.denominator
            return _make(self._vars, {k: c * p for k, c in self._num.items()}, self._den * q)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if not isinstance(k, int):
            return NotImplemented
        if len(self._num) == 1 and k:
            ((key, c),) = self._num.items()
            num, den = (c ** k, self._den ** k) if k > 0 else (self._den ** -k, c ** -k)
            if den < 0:
                num, den = -num, -den
            return _make(self._vars, {tuple([e * k for e in key]): num}, den)
        if k < 0:
            raise ValueError(
                "negative power of a polynomial with "
                f"{len(self._num)} terms (only single terms are invertible)"
            )
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self._den == other._den
            and self._vars == other._vars
            and self._num == other._num
        )

    __hash__ = None  # mutable-dict internals; polynomials are not hashable

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point, exactly.

        Every variable occurring in the polynomial must be assigned, and a
        variable with a negative exponent must be assigned a nonzero value.
        The first variable (alphabetically) that breaks a rule is reported.
        """
        values = {name: exact_scalar(v) for name, v in point.items()}
        # With lo <= 0 <= hi bounding a variable's exponents, (p/q)^e is
        # p^(e-lo) q^(hi-e) over the common p^-lo q^hi: one table of integer
        # powers per variable, and a single division at the end.
        tables = []
        scale = self._den
        for name, column in zip(self._vars, zip(*self._num)):
            if name not in values:
                raise ValueError(f"missing assignment for variable '{name}'")
            p, q = values[name].numerator, values[name].denominator
            lo, hi = min(0, *column), max(0, *column)
            if lo < 0 and not p:
                raise ValueError(
                    f"variable '{name}' has a negative exponent but is assigned 0"
                )
            tables.append({e: p ** (e - lo) * q ** (hi - e) for e in set(column)})
            scale *= p ** -lo * q ** hi
        total = sum(c * prod(map(getitem, tables, key)) for key, c in self._num.items())
        return Fraction(total, scale)

    def subst(self, images: Mapping[str, "LaurentPolynomial"]) -> "LaurentPolynomial":
        """Simultaneous substitution of polynomials for variables.

        Variables absent from ``images`` are left alone.  A variable occurring
        with a negative exponent must map to a single-term image.
        """
        powers: dict[tuple[str, int], LaurentPolynomial] = {}
        terms = []
        for key, c in self._num.items():
            term = _make((), {(): c}, 1)
            for name, exp in zip(self._vars, key):
                if not exp:
                    continue
                power = powers.get((name, exp))
                if power is None:
                    base = images.get(name)
                    if base is None:
                        base = LaurentPolynomial.variable(name)
                    if exp < 0 and len(base._num) != 1:
                        raise ValueError(
                            f"variable '{name}' has a negative exponent but its "
                            "image is not a single term"
                        )
                    power = powers[(name, exp)] = base ** exp
                term = term * power
            terms.append(term)
        total = dot(terms, [_ONE] * len(terms))
        return _make(total._vars, total._num, total._den * self._den)

    # -- ordering, display, serialization ------------------------------------

    def _sorted_keys(self) -> list[Exponents]:
        # Graded lex, largest first: the dense key is the exponent vector over
        # the sorted variables.
        return sorted(self._num, key=lambda k: (sum(k), k), reverse=True)

    def _coeff_text(self, c: int) -> str:
        return str(c) if self._den == 1 else str(Fraction(c, self._den))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lex, largest first)."""
        return [
            (self._monomial(k), Fraction(self._num[k], self._den))
            for k in self._sorted_keys()
        ]

    def format(self, var_order: Iterable[str] = ()) -> str:
        """Render in the text syntax understood by the grammar DSL.

        ``var_order`` controls the order of factors inside each term; listed
        variables come first (in the given order), any others follow
        alphabetically.  Term order is always the canonical display order.
        """
        if not self._num:
            return "0"
        rank = {name: i for i, name in enumerate(var_order)}
        factor_order = sorted(
            range(len(self._vars)),
            key=lambda i: (rank.get(self._vars[i], len(rank)), self._vars[i]),
        )
        pieces: list[str] = []
        for key in self._sorted_keys():
            body = "*".join(
                self._vars[i] if key[i] == 1 else f"{self._vars[i]}^{key[i]}"
                for i in factor_order
                if key[i]
            )
            c = self._num[key]
            if not body:
                text = self._coeff_text(abs(c))
            elif abs(c) == self._den:
                text = body
            else:
                text = f"{self._coeff_text(abs(c))}*{body}"
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(pieces)

    def to_json_obj(self) -> list[dict]:
        """JSON-ready form: a list of ``{"coeff": "p/q", "exps": {...}}`` terms."""
        return [
            {"coeff": self._coeff_text(self._num[k]), "exps": dict(self._monomial(k))}
            for k in self._sorted_keys()
        ]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"


def dot(
    xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial]
) -> LaurentPolynomial:
    """``sum(x * y for x, y in zip(xs, ys))``, accumulated as integers in one dict."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x._num and y._num]
    if not pairs:
        return _ZERO
    names = _union([p for pair in pairs for p in pair])
    den = lcm(*(x._den * y._den for x, y in pairs))
    num: dict[Exponents, int] = {}
    get = num.get
    for x, y in pairs:
        b = _embed(y, names).items()
        scale = den // (x._den * y._den)
        for ka, ca in _embed(x, names).items():
            ca *= scale
            for kb, cb in b:
                k = tuple(map(add, ka, kb))
                num[k] = get(k, 0) + ca * cb
    return _make(names, {k: c for k, c in num.items() if c}, den)


def derivatives(
    p: LaurentPolynomial, rules: Mapping[str, LaurentPolynomial]
) -> Iterator[LaurentPolynomial]:
    """``D^0(p), D^1(p), ...`` for the derivation ``D`` with ``D(v) = rules[v]``.

    ``D`` is linear, obeys the product rule and sends a variable without a
    rule to 0, so ``D = sum_v (rules[v] * v^-1) * (v d/dv)``.  A step is one
    ``dot`` of those images with the copies of the last derivative weighted by
    ``v d/dv``: each numerator times its exponent of ``v``, and the terms where
    that exponent is 0 dropped.  Negative exponents need no special case.
    """
    yield p
    names = _union([p, *rules.values()])
    # Every operand of a step's ``dot`` is held over ``names``, unreduced, so
    # that ``dot`` embeds none of them; only its result is kept.
    ruled = [i for i, v in enumerate(names) if v in rules and rules[v]._num]
    images = [rules[names[i]] * LaurentPolynomial.variable(names[i]) ** -1 for i in ruled]
    images = [_raw(names, _embed(image, names), image._den) for image in images]
    while True:
        num = _embed(p, names)
        weighted = [
            _raw(names, {k: c * k[i] for k, c in num.items() if k[i]}, p._den) for i in ruled
        ]
        p = dot(weighted, images)
        yield p


def _union(polys: Iterable[LaurentPolynomial]) -> tuple[str, ...]:
    names = {p._vars for p in polys}
    if len(names) == 1:
        return names.pop()
    return tuple(sorted(set().union(*names)))


def _embed(p: LaurentPolynomial, names: tuple[str, ...]) -> dict[Exponents, int]:
    # ``p``'s numerators over the sorted superset ``names`` of its variables.
    if names == p._vars:
        return p._num
    embed = _embedder(p._vars, names)
    return {embed(k): c for k, c in p._num.items()}


def _embedder(src: tuple[str, ...], dst: tuple[str, ...]):
    """Map exponent tuples over ``src`` to tuples over ``dst`` (absent -> 0)."""
    picks = [src.index(name) if name in src else len(src) for name in dst]
    if len(picks) == 1:
        (i,) = picks
        return lambda key: ((key + (0,))[i],)
    pick = itemgetter(*picks)
    return lambda key: pick(key + (0,))


def _make(names: tuple[str, ...], num: dict[Exponents, int], den: int) -> LaurentPolynomial:
    # Internal constructor: ``names`` sorted, numerators nonzero, ``den`` > 0.
    return _raw(*_reduce(names, num, den))


def _raw(names: tuple[str, ...], num: dict[Exponents, int], den: int) -> LaurentPolynomial:
    # The fields as given: canonical only if ``_reduce`` made them.
    poly = object.__new__(LaurentPolynomial)
    poly._vars, poly._num, poly._den = names, num, den
    return poly


def _reduce(names: tuple[str, ...], num: dict[Exponents, int], den: int) -> tuple:
    # Reduce to lowest terms and drop the variables that no longer occur.
    if not num:
        names, den = (), 1
    elif den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    if names:
        used = [i for i, column in enumerate(zip(*num)) if any(column)]
        if len(used) < len(names):
            names = tuple([names[i] for i in used])
            num = {tuple([k[i] for i in used]): c for k, c in num.items()}
    return names, num, den


def _coerce(value: object):
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPolynomial.constant(value)
    return NotImplemented


_ZERO_FRAC = Fraction(0)
_ZERO = _make((), {}, 1)
_ONE = _make((), {(): 1}, 1)
