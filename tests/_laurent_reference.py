"""The sparse Fraction-keyed Laurent polynomial, kept as a test reference.

This is the representation ``gramcalc.laurent`` used before it moved to
integer numerators on dense exponent tuples: ``Fraction`` coefficients keyed
by sorted ``(name, exp)`` monomials.  ``test_laurent_differential`` compares
the package's class against it operation by operation.  It is not imported
by the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def exact_scalar(value: Scalar) -> Fraction:
    """``value`` as a Fraction; only ``int`` and ``Fraction`` are exact scalars."""
    if not isinstance(value, (int, Fraction)):
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
            items.append((name, int(exp)))
    return tuple(sorted(items))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, exp in b:
        total = exps.get(name, 0) + exp
        if total:
            exps[name] = total
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


class LaurentPolynomial:
    """An immutable Laurent polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        canonical: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            total = canonical.get(mono, _ZERO_FRAC) + coeff
            if total:
                canonical[mono] = total
            elif mono in canonical:
                del canonical[mono]
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return _ONE

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPolynomial":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        check_variable_name(name)
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def term(cls, coeff: Scalar, exponents: Mapping[str, int]) -> "LaurentPolynomial":
        return cls({monomial(exponents): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> frozenset[str]:
        return frozenset(name for mono in self._terms for name, _ in mono)

    # -- ring operations ---------------------------------------------------

    def __pos__(self) -> "LaurentPolynomial":
        return self

    def __neg__(self) -> "LaurentPolynomial":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __add__(self, other: object) -> "LaurentPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = terms.get(mono, _ZERO_FRAC) + coeff
            if total:
                terms[mono] = total
            elif mono in terms:
                del terms[mono]
        return _wrap(terms)

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
            scale = Fraction(other)
            if not scale:
                return _ZERO
            return _wrap({m: c * scale for m, c in self._terms.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = _mono_mul(mono_a, mono_b)
                total = terms.get(mono, _ZERO_FRAC) + coeff_a * coeff_b
                if total:
                    terms[mono] = total
                elif mono in terms:
                    del terms[mono]
        return _wrap(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self._terms) != 1:
                raise ValueError(
                    "negative power of a polynomial with "
                    f"{len(self._terms)} terms (only single terms are invertible)"
                )
            (mono, coeff), = self._terms.items()
            return _wrap({tuple((n, e * k) for n, e in mono): coeff ** k})
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
        return self._terms == other._terms

    __hash__ = None  # mutable-dict internals; polynomials are not hashable

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point, exactly.

        Every variable occurring in the polynomial must be assigned, and a
        variable with a negative exponent must be assigned a nonzero value.
        """
        values = {name: exact_scalar(v) for name, v in point.items()}
        total = _ZERO_FRAC
        for mono, coeff in self._terms.items():
            value = coeff
            for name, exp in mono:
                if name not in values:
                    raise ValueError(f"missing assignment for variable '{name}'")
                base = values[name]
                if exp < 0 and not base:
                    raise ValueError(
                        f"variable '{name}' has a negative exponent but is assigned 0"
                    )
                value *= base ** exp
            total += value
        return total

    def subst(self, images: Mapping[str, "LaurentPolynomial"]) -> "LaurentPolynomial":
        """Simultaneous substitution of polynomials for variables.

        Variables absent from ``images`` are left alone.  A variable occurring
        with a negative exponent must map to a single-term image.
        """
        terms = []
        for mono, coeff in self._terms.items():
            term = LaurentPolynomial.constant(coeff)
            for name, exp in mono:
                base = images.get(name)
                if base is None:
                    base = LaurentPolynomial.variable(name)
                if exp < 0 and len(base._terms) != 1:
                    raise ValueError(
                        f"variable '{name}' has a negative exponent but its "
                        "image is not a single term"
                    )
                term = term * base ** exp
            terms.extend(term.items())
        return LaurentPolynomial(terms)

    # -- ordering, display, serialization ------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lex, largest first)."""
        names = sorted(self.variables())
        index = {name: i for i, name in enumerate(names)}

        def key(item: tuple[Monomial, Fraction]):
            mono, _ = item
            vector = [0] * len(names)
            for name, exp in mono:
                vector[index[name]] = exp
            return (_mono_degree(mono), vector)

        return sorted(self._terms.items(), key=key, reverse=True)

    def format(self, var_order: Iterable[str] = ()) -> str:
        """Render in the text syntax understood by the grammar DSL.

        ``var_order`` controls the order of factors inside each term; listed
        variables come first (in the given order), any others follow
        alphabetically.  Term order is always the canonical display order.
        """
        if not self._terms:
            return "0"
        rank = {name: i for i, name in enumerate(var_order)}
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = sorted(mono, key=lambda f: (rank.get(f[0], len(rank)), f[0]))
            body = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in factors
            )
            magnitude = abs(coeff)
            if not body:
                text = str(magnitude)
            elif magnitude == 1:
                text = body
            else:
                text = f"{magnitude}*{body}"
            if not pieces:
                pieces.append(f"-{text}" if coeff < 0 else text)
            else:
                pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"


def _wrap(terms: dict[Monomial, Fraction]) -> LaurentPolynomial:
    # Internal fast path: terms must already be canonical.
    result = object.__new__(LaurentPolynomial)
    result._terms = terms
    return result


def _coerce(value: object):
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPolynomial.constant(value)
    return NotImplemented


_ZERO_FRAC = Fraction(0)
_ZERO = _wrap({})
_ONE = _wrap({(): Fraction(1)})
