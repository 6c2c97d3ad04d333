"""Equational law suites as pairs of terms, checked semantically in models.

Each builder returns a list of (law_id, lhs, rhs) with both sides written
in diagrammatic order; a law holds in a model when both sides evaluate to
equal values.  Quotients are never computed syntactically: a suite run in a
model is the whole story.
"""

from __future__ import annotations

from .term import Gen, Id, PropModel, Sym, par, seq, model_equal


def _monoid_comonoid_laws(m, i, d, e, prefix):
    """Associativity and both unit laws of (m, i), then the dual laws of
    the comonoid (d, e)."""
    one = Id(1)
    return [
        (prefix + "assoc",
         seq(par(m, one), m), seq(par(one, m), m)),
        (prefix + "unit_left", seq(par(i, one), m), one),
        (prefix + "unit_right", seq(par(one, i), m), one),
        (prefix + "coassoc",
         seq(d, par(d, one)), seq(d, par(one, d))),
        (prefix + "counit_left", seq(d, par(e, one)), one),
        (prefix + "counit_right", seq(d, par(one, e)), one),
    ]


def _bialgebra(m, d):
    """Both sides of the bialgebra law of m and d."""
    return seq(m, d), seq(par(d, d), par(Id(1), Sym(1, 1), Id(1)), par(m, m))


def frobenius_monoid_laws(mult, unit, comult, counit, prefix="",
                          commutative=False, symmetric=False):
    m, i, d, e = Gen(mult), Gen(unit), Gen(comult), Gen(counit)
    one = Id(1)
    laws = _monoid_comonoid_laws(m, i, d, e, prefix) + [
        (prefix + "frobenius_left",
         seq(par(d, one), par(one, m)), seq(m, d)),
        (prefix + "frobenius_right",
         seq(par(one, d), par(m, one)), seq(m, d)),
        (prefix + "special", seq(d, m), one),
        (prefix + "extra", seq(i, e), Id(0)),
    ]
    if commutative:
        laws.append((prefix + "commutative", seq(Sym(1, 1), m), m))
        laws.append((prefix + "cocommutative", seq(d, Sym(1, 1)), d))
    if symmetric:
        laws.append((prefix + "symmetric",
                     seq(Sym(1, 1), m, e), seq(m, e)))
    return laws


def bimonoid_laws(mult, unit, comult, counit, prefix="",
                  special_law=False):
    m, i, d, e = Gen(mult), Gen(unit), Gen(comult), Gen(counit)
    one = Id(1)
    laws = _monoid_comonoid_laws(m, i, d, e, prefix) + [
        (prefix + "bialgebra", *_bialgebra(m, d)),
        (prefix + "mult_counit", seq(m, e), par(e, e)),
        (prefix + "unit_comult", seq(i, d), par(i, i)),
        (prefix + "unit_counit", seq(i, e), Id(0)),
        (prefix + "commutative", seq(Sym(1, 1), m), m),
        (prefix + "cocommutative", seq(d, Sym(1, 1)), d),
    ]
    if special_law:
        laws.append((prefix + "special", seq(d, m), one))
    return laws


def weak_bimonoid_laws(mult, unit, comult, counit, prefix=""):
    m, i, d, e = Gen(mult), Gen(unit), Gen(comult), Gen(counit)
    one = Id(1)
    me = seq(m, e)
    id_ = seq(i, d)
    return [
        (prefix + "weak_bialgebra", *_bialgebra(m, d)),
        (prefix + "weak_counit_plain",
         seq(par(m, one), m, e),
         seq(par(one, d, one), par(me, me))),
        (prefix + "weak_counit_braided",
         seq(par(m, one), m, e),
         seq(par(one, seq(d, Sym(1, 1)), one), par(me, me))),
        (prefix + "weak_unit_plain",
         seq(i, d, par(d, one)),
         seq(par(id_, id_), par(one, m, one))),
        (prefix + "weak_unit_braided",
         seq(i, d, par(d, one)),
         seq(par(id_, id_), par(one, seq(Sym(1, 1), m), one))),
    ]


def run_suite(model: PropModel, laws) -> list[tuple[str, bool]]:
    """Evaluate both sides of every law; report (law_id, holds)."""
    return [(law_id, model_equal(model, lhs, rhs))
            for law_id, lhs, rhs in laws]
