"""Affine relations as linear relations with a unit wire, and
source-aware black-boxing.

An affine relation f: p -> q is stored as the reduced echelon constraint
rows of its homogenization f# over (dom, cod, h), with a unit wire h
(Bonchi, Piedeleu, Sobocinski and Zanasi, "Graphical Affine Algebra",
2019).  ``AffRel`` is ``linrel.LinRel`` with h as its tail: the same
class in all but ``tail = 1``, so it composes, tensors, daggers, compares,
prints and checks Lagrangianness by ``LinRel``'s code.  A row's h entry
is minus its constant; f is the h = 1 slice, empty exactly when the last
row is h = 0.
"""

from __future__ import annotations

from .exactla import Subspace, kernel
from .scalar import Field, QS
from .linrel import LinRel, boundary_rows, label_rows
from .circuit import LCircuit


class AffRel(LinRel):
    """An affine relation: a ``LinRel`` whose tail is the unit wire h."""

    __slots__ = ()
    tail = 1
    # bound on this class itself: perfbench/tracing.py traces compose and
    # tensor class by class
    compose = LinRel.compose
    tensor = LinRel.tensor

    @property
    def hspace(self) -> Subspace:
        """f# itself, the solutions of the rows: built on each read."""
        return kernel(self.constraints.rows, self.field,
                      self.constraints.ambient)

    @classmethod
    def from_linrel(cls, rel: LinRel) -> "AffRel":
        """``rel``'s constraint rows, none of which holds h."""
        return cls(rel.dom, rel.cod, Subspace.canonical(
            rel.field, rel.dom + rel.cod + 1, rel.constraints.rows))

    def linear_part(self) -> LinRel:
        """The h = 0 slice: the rows without their h entries, save 0 = 1,
        which becomes 0 = 0.  h is no pivot of the others, so they stay
        reduced."""
        h = self.dom + self.cod
        return LinRel(self.dom, self.cod, Subspace.canonical(
            self.field, h, [{j: x for j, x in r.items() if j != h}
                            for r in self.constraints.rows if min(r) != h]))

    def __repr__(self):
        if self.is_empty():
            return f"AffRel({self.dom}->{self.cod}, EMPTY)"
        return (f"AffRel({self.dom}->{self.cod}, dim "
                f"{self.dom + self.cod - self.constraints.dim} affine)")


def vsource_rel(field: Field, v) -> AffRel:
    """{phi2 - phi1 = V, I1 = I2}: positive terminal at the edge target."""
    return AffRel.from_constraints(field, 2, 2,
                                   label_rows(field, "vsource", v))


def isource_rel(field: Field, i) -> AffRel:
    """{I1 = I2 = I}: potentials across are unconstrained."""
    return AffRel.from_constraints(field, 2, 2,
                                   label_rows(field, "isource", i))


def aff_blackbox(c: LCircuit, field: Field = QS) -> AffRel:
    """Black-boxing with sources: the circuit's rows over its boundary
    and the shared homogenizing constant, reduced."""
    return AffRel(2 * c.m, 2 * c.n, Subspace.span(
        field, 2 * (c.m + c.n) + 1, boundary_rows(c, field)))
