"""Signal-flow diagrams: free prop syntax, evaluation into linear
relations, and the width-doubling translation from circuit terms.

A signal-flow wire carries one field element.  Circuit terms translate by
doubling every wire into a potential wire above a current wire; the
translation is syntactic, its correctness criterion is semantic: the
evaluated translation must match black-boxing.
"""

from __future__ import annotations

from .scalar import Field, QS
from .linrel import (LinRel, LinRelModel, UnsupportedLabel, blackbox,
                     label_impedance)
from .circuit import CircuitModel, SOURCE_KINDS, label_from_gen_name
from .term import (Gen, Id, PropTerm, Signature, Sym, dag_fold, evaluate,
                   par, seq)


def _scalar_resolver(name):
    if name.startswith("scalar:"):
        return (1, 1)
    return None


# name -> (dom, cod, constraint rows)
SIGFLOW_CONSTRAINTS = {
    "codup": (2, 1, [[1, -1, 0], [1, 0, -1]]), "codel": (0, 1, []),
    "dup": (1, 2, [[1, -1, 0], [1, 0, -1]]), "del": (1, 0, []),
    "add": (2, 1, [[1, 1, -1]]), "coadd": (1, 2, [[1, -1, -1]]),
    "zero": (0, 1, [[1]]), "cozero": (1, 0, [[1]]),
}

SIGFLOW_SIGNATURE = Signature(
    {name: (dom, cod)
     for name, (dom, cod, _r) in SIGFLOW_CONSTRAINTS.items()},
    resolver=_scalar_resolver)


class SigFlowModel(LinRelModel):
    """The functor into linear relations, port width 1."""

    signature = SIGFLOW_SIGNATURE
    TABLE = SIGFLOW_CONSTRAINTS

    def gen(self, name):
        field = self.field
        if name.startswith("scalar:"):
            c = field.parse(name.split(":", 1)[1])
            return LinRel.from_constraints(field, 1, 1, [[c, -field.one]])
        return super().gen(name)


def box_eval(t: PropTerm, field: Field = QS) -> LinRel:
    return evaluate(t, SigFlowModel(field))


# ---------------------------------------------------------------------------
# The translation T from circuit terms, doubling every wire

def _scalar_gen(value, field: Field) -> PropTerm:
    """``field.format`` writes balanced brackets and single spaces, so
    the printed ``(scalar LIT)`` reads back to this generator."""
    return Gen("scalar:" + field.format(value))


def _impedance_term(z, field: Field) -> PropTerm:
    """phi2 = phi1 + Z I1 and I2 = I1 on a doubled wire."""
    one = Id(1)
    return seq(par(one, Gen("dup")), par(one, _scalar_gen(z, field), one),
               par(Gen("add"), one))


def _label_term(name: str, field: Field) -> PropTerm:
    label = label_from_gen_name(name)
    if label.kind in SOURCE_KINDS:
        raise UnsupportedLabel(
            f"{label.kind} has no signal-flow translation")
    return _impedance_term(label_impedance(field, label.kind, label.value),
                           field)


# T on the junctions; a label's image is its ``_label_term``
_T_IMAGES = {
    "m": seq(par(Id(1), Sym(1, 1), Id(1)), par(Gen("codup"), Gen("add"))),
    "d": seq(par(Gen("dup"), Gen("coadd")), par(Id(1), Sym(1, 1), Id(1))),
    "i": par(Gen("codel"), Gen("zero")),
    "e": par(Gen("del"), Gen("cozero")),
}


def translate_T(t: PropTerm, field: Field = QS) -> PropTerm:
    """T names where the generators go, doubles every object and keeps
    every form.  Each subterm is translated once, so the image shares
    what ``t`` shares, and each generator name's image is one node."""
    images = dict(_T_IMAGES)  # a label's image is added when first met

    def image(node):
        kind = type(node)
        if kind is Id:
            return Id(2 * node.n)
        if kind is Sym:
            return Sym(2 * node.m, 2 * node.n)
        if node.name not in images:
            images[node.name] = _label_term(node.name, field)
        return images[node.name]

    return dag_fold(t, image, lambda form, terms: type(form)(tuple(terms)))


def square_check(t: PropTerm, field: Field = QS) -> bool:
    """Both ways around the square: translate then evaluate, or build the
    circuit and black-box it.  The circuit is built first, so that its
    ``evaluate`` checks ``t`` before it is translated."""
    circuit = evaluate(t, CircuitModel())
    left = box_eval(translate_T(t, field), field)
    return left == blackbox(circuit, field)
