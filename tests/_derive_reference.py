"""Two earlier forms of the derivative step, kept as test references.

``_derive_steps`` is the loop ``gramcalc.grammar`` ran before the kernel
moved: it took each polynomial's integer terms through
``LaurentPolynomial.dense`` and handed each step back through
``LaurentPolynomial.from_dense``.  ``dense`` is gone from the class, so this
module rebuilds it from the public ``items()``; the loop itself is unchanged
apart from calling that function.

``_dot_steps`` is the step ``laurent.derivatives`` took next: one
``laurent.dot`` of the images ``D(v)/v`` with the copies of the last
derivative weighted by ``v d/dv``, each built as a polynomial.

``test_derive_differential`` compares ``laurent.derivatives`` against both.
This module is not imported by the package.
"""

from __future__ import annotations

import math
from operator import add

from gramcalc.grammar import Grammar
from gramcalc.laurent import LaurentPolynomial, dot


def dense(p: LaurentPolynomial, names: tuple[str, ...]) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer numerators of ``p`` on exponent tuples over ``names``, and their denominator."""
    items = list(p.items())
    den = math.lcm(*(c.denominator for _, c in items))
    terms = {}
    for mono, c in items:
        exps = dict(mono)
        terms[tuple([exps.get(name, 0) for name in names])] = c.numerator * (den // c.denominator)
    return terms, den


def _derive_steps(p: LaurentPolynomial, g: Grammar, n: int) -> list[LaurentPolynomial]:
    """``D^0(p) .. D^n(p)``, each step in integer arithmetic.

    Every polynomial is taken as integer numerators on exponent tuples over
    one sorted variable tuple: the variables of ``p`` and of all rule images.
    ``D^k(p)`` is kept over the denominator ``den * rden^k``, where ``den``
    and ``rden`` are the common denominators of the start word and of all
    rule images.  A rule for the variable at position ``i`` is stored as its
    image's exponent vectors minus the unit vector ``i``, so the product
    rule adds that shift to the term's vector and scales by the exponent.
    """
    names = p.variables().union(*(image.variables() for _, image in g.rules))
    names = tuple(sorted(names))
    images = {
        names.index(var): dense(image, names)
        for var, image in g.rules
        if var in names and image != 0
    }
    rden = math.lcm(*(d for _, d in images.values()))
    rules = [
        (i, [
            (tuple([e - (j == i) for j, e in enumerate(key)]), c * (rden // d))
            for key, c in terms.items()
        ])
        for i, (terms, d) in sorted(images.items())
    ]
    terms, den = dense(p, names)
    items = [p]
    for _ in range(n):
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for key, coeff in terms.items():
            for i, image in rules:
                exp = key[i]
                if not exp:
                    continue
                scale = coeff * exp
                for shift, c in image:
                    k = tuple(map(add, key, shift))
                    out[k] = get(k, 0) + scale * c
        terms = {k: c for k, c in out.items() if c}
        den *= rden
        items.append(LaurentPolynomial.from_dense(names, terms, den))
    return items


def _dot_steps(p: LaurentPolynomial, g: Grammar, n: int) -> list[LaurentPolynomial]:
    """``D^0(p) .. D^n(p)``, each step one ``dot`` of the images
    ``rules[v] * v^-1`` with the last derivative's numerators times their
    exponent of ``v``, over the variables of ``p`` and of all rule images."""
    rules = dict(g.rules)
    names = tuple(sorted(p.variables().union(*(image.variables() for image in rules.values()))))
    ruled = [i for i, var in enumerate(names) if var in rules]
    images = [rules[names[i]] * LaurentPolynomial.variable(names[i]) ** -1 for i in ruled]
    items = [p]
    for _ in range(n):
        terms, den = dense(p, names)
        weighted = [
            LaurentPolynomial.from_dense(names, {k: c * k[i] for k, c in terms.items()}, den)
            for i in ruled
        ]
        p = dot(weighted, images)
        items.append(p)
    return items
