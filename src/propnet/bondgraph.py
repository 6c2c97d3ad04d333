"""Bond graphs: the eight junction generators, their effort/flow and
corelation semantics, the mediating relation alpha, and their laws.

Equality of bond-graph morphisms is never decided syntactically; a law is
accepted exactly when it holds under both semantic readings, the linear
relation functor F on (effort, flow) pairs and the corelation functor G
on doubled terminals.
"""

from __future__ import annotations

import functools

from .scalar import Field, QQ
from .linrel import K_corel, LinRel, LinRelModel
from .setprops import Corelation, CorelModel
from .term import (Gen, Id, PropModel, PropTerm, Signature, Sym, evaluate,
                   par, seq)
from .laws import frobenius_monoid_laws, weak_bimonoid_laws


# name -> (dom, cod, constraint rows) on (E, F) pairs
F_CONSTRAINTS = {
    "1j": (4, 2, [[1, 0, 1, 0, -1, 0], [0, 1, 0, 0, 0, -1],
                  [0, 0, 0, 1, 0, -1]]),
    "1u": (0, 2, [[1, 0]]),
    "1d": (2, 4, [[1, 0, -1, 0, -1, 0], [0, 1, 0, -1, 0, 0],
                  [0, 1, 0, 0, 0, -1]]),
    "1e": (2, 0, [[1, 0]]),
    "0j": (4, 2, [[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, -1, 0],
                  [0, 1, 0, 1, 0, -1]]),
    "0u": (0, 2, [[0, 1]]),
    "0d": (2, 4, [[1, 0, -1, 0, 0, 0], [1, 0, 0, 0, -1, 0],
                  [0, 1, 0, -1, 0, -1]]),
    "0e": (2, 0, [[0, 1]]),
}

BG_SIGNATURE = Signature({name: (dom // 2, cod // 2)
                          for name, (dom, cod, _r) in F_CONSTRAINTS.items()})


class FModel(LinRelModel):
    """Effort/flow behavior: each port carries (E, F)."""

    width = 2
    signature = BG_SIGNATURE
    TABLE = F_CONSTRAINTS

    def __init__(self, field: Field = QQ):
        super().__init__(field)


_W = {
    "1j": par(Id(1), seq(Gen("m"), Gen("e")), Id(1)),
    "1u": seq(Gen("i"), Gen("d")),
    "1d": par(Id(1), seq(Gen("i"), Gen("d")), Id(1)),
    "1e": seq(Gen("m"), Gen("e")),
    "0j": seq(par(Id(1), Sym(1, 1), Id(1)), par(Gen("m"), Gen("m"))),
    "0u": par(Gen("i"), Gen("i")),
    "0d": seq(par(Gen("d"), Gen("d")), par(Id(1), Sym(1, 1), Id(1))),
    "0e": par(Gen("e"), Gen("e")),
}


class GModel(PropModel):
    """Corelation semantics: each port becomes two terminals."""

    carrier = Corelation
    width = 2
    signature = BG_SIGNATURE

    GENERATORS = {name: evaluate(term, CorelModel())
                  for name, term in _W.items()}


def F_eval(t: PropTerm, field: Field = QQ) -> LinRel:
    return evaluate(t, FModel(field))


def G_eval(t: PropTerm) -> Corelation:
    return evaluate(t, GModel())


# ---------------------------------------------------------------------------
# alpha and naturality

@functools.cache
def _alpha1(field: Field) -> LinRel:
    """alpha on one port, built once per field."""
    return LinRel.from_constraints(field, 2, 4, [[1, 0, 1, 0, -1, 0],
                                                 [0, 1, 0, -1, 0, 0],
                                                 [0, 1, 0, 0, 0, 1]])


def alpha(n: int, field: Field = QQ) -> LinRel:
    """{(V, I, phi1, I1, phi2, I2) : V = phi2 - phi1, I = I1 = -I2},
    tensored n times; the one-port relation is built once per field."""
    return LinRel.identity(field, 0).tensor(*[_alpha1(field)] * n)


def _alpha_kg(t: PropTerm, field: Field):
    """alpha_m then K(G(t)), and alpha_n, for t : m -> n.  G doubles
    every port, so m and n are half the sides of G(t)."""
    g = G_eval(t)
    kg = K_corel(field, g)
    return alpha(g.m // 2, field).compose(kg), alpha(g.n // 2, field)


def check_naturality(t: PropTerm, field: Field = QQ) -> bool:
    """Conjugating the corelation behavior by alpha recovers the
    effort/flow behavior: alpha_m then K(G(t)) then alpha_n dagger
    equals F(t)."""
    lhs, an = _alpha_kg(t, field)
    return lhs.compose(an.dagger()) == F_eval(t, field)


def check_absorption(t: PropTerm, field: Field = QQ) -> bool:
    """K(G(t)) after alpha is unchanged by the alpha alpha-dagger
    idempotent on the codomain side."""
    lhs, an = _alpha_kg(t, field)
    return lhs == lhs.compose(an.dagger()).compose(an)


# ---------------------------------------------------------------------------
# The defining law list

def junction_laws(zero="symmetric"):
    """The Frobenius monoid of each junction family, the weak bimonoid
    laws between them and the mixed extra laws.  ``zero`` names the
    ``frobenius_monoid_laws`` flag set for the 0-junctions."""
    return (frobenius_monoid_laws("1j", "1u", "1d", "1e", prefix="one_",
                                  symmetric=True)
            + frobenius_monoid_laws("0j", "0u", "0d", "0e", prefix="zero_",
                                    **{zero: True})
            + weak_bimonoid_laws("1j", "1u", "0d", "0e", prefix="one_zero_")
            + weak_bimonoid_laws("0j", "0u", "1d", "1e", prefix="zero_one_")
            + [("extra_mixed_a", seq(Gen("0u"), Gen("1e")), Id(0)),
               ("extra_mixed_b", seq(Gen("1u"), Gen("0e")), Id(0))])


def bondgraph_laws():
    p = seq(Gen("0d"), Gen("1j"), Gen("1d"), Gen("0j"))
    q = seq(Gen("1d"), Gen("0j"), Gen("0d"), Gen("1j"))
    return junction_laws() + [("idempotent_a", seq(p, p), p),
                              ("idempotent_b", seq(q, q), q)]


def discriminating_law():
    """Holds under G, fails under F: composing a 0-comultiplication into
    a 1-multiplication agrees with the opposite pairing on corelations
    but the two effort/flow relations are mutually inverse scalings."""
    return ("zero_comult_one_mult",
            seq(Gen("0d"), Gen("1j")), seq(Gen("1d"), Gen("0j")))

