"""Exact sparse multivariate Laurent polynomial arithmetic.

A polynomial is a finite sum of terms ``c * v1^e1 * ... * vk^ek`` where the
coefficients are arbitrary-precision rationals and the exponents are
integers, possibly negative.  Inside, a polynomial is three fields:

* the sorted tuple of the variables that occur,
* a dict from a dense exponent tuple over those variables to an ``int``
  numerator,
* one common positive denominator.

Values are immutable and kept in canonical form: no stored numerator is zero,
every listed variable has a nonzero exponent in some term, and the numerators
and the denominator are coprime.  Equality is therefore plain field equality.
``_reduce`` is the one canonicalizer: every constructor and operation hands
it raw integer sums over their real common denominator, and only it drops
zero numerators, divides by the gcd and drops unused variables.  It takes
that gcd from the denominator's gcd with one weighted sum of the numerators,
a multiple of the true gcd and almost always equal to it, so the gcds over
the numerators that follow run on small numbers in any order (Cooperman,
Feisel, von zur Gathen and Havas, "GCD of many integers", 1999).  Operations
on polynomials over different variables first re-embed both into the union
of their variables; products, powers, sums, evaluation and renaming run in
integer arithmetic.  ``dot`` sums many products into one dict: sums, products
and powers go through it.  ``derivatives``, the iterated derivation of the
ring (the formal derivative of a grammar), multiplies terms in a loop of its
own: it builds each image ``D(v)/v`` once and sums a step's products with
those images into one dict.  It also prices each step from the sizes of its
operands and refuses one that would pass ``MAX_DERIVE_WORK``, so the charge
sits beside the loop it models.  No other module reads a polynomial's exponent tuples or
numerators.  A polynomial is built by ``LaurentPolynomial(terms)``
(``LaurentPolynomial()`` is 0), ``.variable(name)`` or ``.from_dense``, the
one constructor that takes integer terms from outside.

``Fraction`` appears only at the edge.  ``items()`` and ``sorted_terms()``
give ``Fraction`` coefficients on monomials, where a monomial is a tuple of
``(variable, exponent)`` pairs sorted by variable name, with no zero
exponent (the empty monomial is the constant 1).  Variables are bare
identifier strings (a letter followed by letters, digits or underscores); two
variables are the same iff their names are equal.

For display and serialization, terms are ordered by total degree and then
lexicographically on the exponent vector (variables taken in alphabetical
order), largest first.  ``sorted_terms()`` is the one walk in that order,
and ``format_terms`` the one renderer of its list: ``format()`` calls both,
and the CLI bounds the integers of one such list and prints its text or its
JSON from it, so the bound sees exactly the terms printed.  The ordering is
deterministic, so formatted output and JSON exports are stable across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm, prod
from operator import add, getitem, index, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._names import MAX_DERIVE_WORK

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
            collected.append((exps, coeff))
        for name in names:
            check_variable_name(name)
        variables = tuple(sorted(names))
        den = lcm(*{c.denominator for _, c in collected})
        num: dict[Exponents, int] = {}
        for exps, c in collected:
            key = tuple([exps.get(name, 0) for name in variables])
            num[key] = num.get(key, 0) + c.numerator * (den // c.denominator)
        self._vars, self._num, self._den = _reduce(variables, num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        check_variable_name(name)
        return _make((name,), {(1,): 1}, 1)

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
        numerators are dropped.  An exponent must be an integer, as in
        ``LaurentPolynomial(terms)``.
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
        for exponent in chain.from_iterable(numerators):
            index(exponent)
        ordered = tuple(sorted(variables))
        if ordered != variables:
            embed = _embedder(variables, ordered)
            numerators = {embed(k): c for k, c in numerators.items()}
        return _make(ordered, numerators, denominator)

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter([(self._monomial(k), Fraction(c, self._den)) for k, c in self._num.items()])

    def __len__(self) -> int:
        return len(self._num)

    def variables(self) -> frozenset[str]:
        return frozenset(self._vars)

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

    # -- evaluation and renaming ---------------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point, exactly.

        Every variable occurring in the polynomial must be assigned, and a
        variable with a negative exponent must be assigned a nonzero value.
        The first variable (alphabetically) that breaks a rule is reported.
        """
        # An int needs no Fraction: only a value's numerator and denominator are read.
        values = {name: v if isinstance(v, int) else exact_scalar(v) for name, v in point.items()}
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

    def subst(self, names: Mapping[str, str]) -> "LaurentPolynomial":
        """Rename each variable ``v`` to ``names.get(v, v)``; each target must be a name.

        Variables renamed onto one name multiply, so their exponents add:
        ``(x*z^-1).subst({"z": "x"})`` is 1, and ``{"x": "y", "y": "x"}`` swaps.
        """
        for target in names.values():
            check_variable_name(target)
        targets = [names.get(name, name) for name in self._vars]
        renamed = tuple(sorted(set(targets)))
        groups = [[i for i, target in enumerate(targets) if target == name] for name in renamed]
        num: dict[Exponents, int] = {}
        for key, c in self._num.items():
            k = tuple([sum([key[i] for i in group]) for group in groups])
            num[k] = num.get(k, 0) + c
        return _make(renamed, num, self._den)

    # -- ordering, display, serialization ------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lex, largest first), the
        one display walk: ``format`` renders its list; the CLI bounds and prints one."""
        # The dense key is the exponent vector over the sorted variables.
        keys = sorted(self._num, key=lambda k: (sum(k), k), reverse=True)
        return [(self._monomial(k), Fraction(self._num[k], self._den)) for k in keys]

    def format(self, var_order: Iterable[str] = ()) -> str:
        """Render in the text syntax understood by the grammar DSL (see ``format_terms``)."""
        return format_terms(self.sorted_terms(), var_order)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"


def format_terms(terms: Sequence[tuple[Monomial, Fraction]], var_order: Iterable[str] = ()) -> str:
    """Render a ``sorted_terms()`` list, in its order, in the grammar DSL's text
    syntax.  The variables ``var_order`` lists lead each term, in that order;
    any others follow alphabetically."""
    if not terms:
        return "0"
    rank = {name: i for i, name in enumerate(var_order)}
    pieces = []
    for mono, c in terms:
        body = "*".join([
            name if e == 1 else f"{name}^{e}"
            for name, e in sorted(mono, key=lambda f: (rank.get(f[0], len(rank)), f[0]))
        ])
        coeff = str(c)
        sign, text = ("-", coeff[1:]) if coeff[0] == "-" else ("+", coeff)
        if body:
            text = body if text == "1" else f"{text}*{body}"
        pieces.append(f"{sign} {text}")
    # "- a + b" -> "-a + b" and "+ a - b" -> "a - b".
    joined = " ".join(pieces)
    return joined[2:] if joined[0] == "+" else f"-{joined[2:]}"


def dot(
    xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial]
) -> LaurentPolynomial:
    """``sum(x * y for x, y in zip(xs, ys))``, accumulated as integers in one dict."""
    pairs = list(zip(xs, ys))
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
    return _make(names, num, den)


def derivatives(
    p: LaurentPolynomial, rules: Mapping[str, LaurentPolynomial]
) -> Iterator[LaurentPolynomial]:
    """``D^0(p), D^1(p), ...`` for the derivation ``D`` with ``D(v) = rules[v]``.

    ``D`` is linear, obeys the product rule and sends a variable without a
    rule to 0, so ``D = sum_v (rules[v] * v^-1) * (v d/dv)``.  Each image
    ``rules[v] * v^-1`` is built once, as the rule's exponent tuples shifted
    by the unit vector of ``v``.  A step is one loop over the ruled
    variables ``v``, the terms of the last derivative and the terms of
    ``v``'s image: each product, times the term's exponent of ``v``, is
    summed into one integer dict (a term without ``v`` adds nothing for it),
    which is reduced once over the last denominator times the lcm of the
    images'.  Negative exponents need no special case.

    A step is refused before it runs if its work, added to that of the steps
    before it, passes ``MAX_DERIVE_WORK`` (see ``_names``); a step is taken
    only when its item is read.
    """
    yield p
    names = _union([p, *rules.values()])
    # The largest number a product multiplies a coefficient by: an exponent,
    # which MAX_N steps grow by a few bits at most, or an image's integer.
    factor_bits = _bits(
        chain.from_iterable(p._num),
        *([r._den, *r._num.values(), *chain.from_iterable(r._num)] for r in rules.values()),
    )
    image_den_bits = sum([r._den.bit_length() for r in rules.values()])
    work = 0
    # The image D(v)/v of the variable at position i is its rule's terms over
    # ``names``, shifted by -1 at i, over the lcm of the rules' denominators.
    ruled = [(i, rules[v]) for i, v in enumerate(names) if v in rules]
    image_den = lcm(*[r._den for _, r in ruled])
    images = [
        (i, [
            (tuple([e - (j == i) for j, e in enumerate(k)]), c * (image_den // r._den))
            for k, c in _embed(r, names).items()
        ])
        for i, r in ruled
    ]
    for order in count(1):
        products = len(p._num) * sum([len(rules[v]._num) for v in p._vars if v in rules])
        size = _bits([p._den], p._num.values()) // 64 * (factor_bits // 64 + 32) // 32
        den = (p._den.bit_length() + image_den_bits) // 64
        work += products * (len(names) + 8 + size + den * den // 18)
        if work > MAX_DERIVE_WORK:
            raise ValueError(
                f"derivative order {order} needs up to {work} units of work, "
                f"over the limit {MAX_DERIVE_WORK} (grammar.MAX_DERIVE_WORK)"
            )
        num: dict[Exponents, int] = {}
        get = num.get
        terms = _embed(p, names).items()
        for i, image in images:
            for key, c in terms:
                e = key[i]
                if e:
                    ce = c * e
                    for shift, cb in image:
                        k = tuple(map(add, key, shift))
                        num[k] = get(k, 0) + ce * cb
        p = _make(names, num, p._den * image_den)
        yield p


def _bits(*numbers: Iterable[int]) -> int:
    # The bit length of the largest of ``numbers`` in absolute value (0 for none).
    values = [0, *chain(*numbers)]
    return max(max(values).bit_length(), min(values).bit_length())


def _union(polys: Iterable[LaurentPolynomial]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*[p._vars for p in polys])))


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


def _make(names: tuple[str, ...], num: Mapping[Exponents, int], den: int) -> LaurentPolynomial:
    # Internal constructor: ``names`` sorted, ``den`` > 0, any numerators.
    poly = object.__new__(LaurentPolynomial)
    poly._vars, poly._num, poly._den = _reduce(names, num, den)
    return poly


def _reduce(names: tuple[str, ...], num: Mapping[Exponents, int], den: int) -> tuple:
    # The one canonicalizer: drop the zero numerators, divide the rest and
    # ``den`` by their gcd (so 0 is over 1) and drop the variables that no
    # longer occur.  It always builds a new dict, so no caller's is kept.
    # The gcd starts from ``den``'s with the numerators weighted 1, 2, 3, ...
    # and summed (see the module docstring); a sum of 0 costs a chain from ``den``.
    num = {k: c for k, c in num.items() if c}
    values = num.values()
    g = gcd(gcd(den, sum(map(mul, count(1), values))), *values)
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    used = [i for i, column in enumerate(zip(*num)) if any(column)]
    if len(used) < len(names):
        names = tuple([names[i] for i in used])
        num = {tuple([k[i] for i in used]): c for k, c in num.items()}
    return names, num, den


def _coerce(value: object):
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return _make((), {(): value.numerator}, value.denominator)
    return NotImplemented


_ONE = _make((), {(): 1}, 1)
