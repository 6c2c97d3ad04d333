"""Affine relations as linear relations with a unit wire, and
source-aware black-boxing.

An affine relation f: p -> q is stored as the reduced echelon constraint
rows of its homogenization f# over (dom, cod, h), with a unit wire h
(Bonchi, Piedeleu, Sobocinski and Zanasi, "Graphical Affine Algebra",
2019): a linear relation's rows with one more column, composed and
tensored by the same ``linrel.compose_rows`` and ``tensor_rows``, with h
as their shared tail.  A row's h entry is minus its constant; f is the
h = 1 slice, empty exactly when the last row is h = 0.
"""

from __future__ import annotations

from .exactla import Subspace, kernel
from .scalar import Field, QS
from .linrel import (LinRel, OddDimension, boundary_rows, compose_rows,
                     format_constraints, is_lagrangian, label_rows,
                     port_var_names, tensor_rows)
from .circuit import LCircuit


class AffRel:
    __slots__ = ("dom", "cod", "constraints")

    def __init__(self, dom: int, cod: int, constraints: Subspace):
        if constraints.ambient != dom + cod + 1:
            raise ValueError("ambient must be dom + cod + 1")
        self.dom = dom
        self.cod = cod
        self.constraints = constraints

    @property
    def field(self) -> Field:
        return self.constraints.field

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

    @classmethod
    def from_constraints(cls, field, dom, cod, rows):
        """Rows span dom+cod+1 entries, coerced into ``field``; the last
        is minus the constant.  No rows give the whole space."""
        return cls(dom, cod, Subspace(field, dom + cod + 1, rows))

    @classmethod
    def identity(cls, field, n: int) -> "AffRel":
        return cls.symmetry(field, 0, n)

    @classmethod
    def symmetry(cls, field, m: int, n: int) -> "AffRel":
        return cls.from_linrel(LinRel.symmetry(field, m, n))

    def is_empty(self) -> bool:
        """Whether the rows hold 0 = 1: a reduced row with its pivot at h,
        the last column, is h = 0 itself and comes last."""
        rows = self.constraints.rows
        return bool(rows) and min(rows[-1]) == self.dom + self.cod

    def linear_part(self) -> LinRel:
        """The h = 0 slice: the rows without their h entries, save 0 = 1,
        which becomes 0 = 0.  h is no pivot of the others, so they stay
        reduced."""
        h = self.dom + self.cod
        return LinRel(self.dom, self.cod, Subspace.canonical(
            self.field, h, [{j: x for j, x in r.items() if j != h}
                            for r in self.constraints.rows if min(r) != h]))

    def compose(self, *others: "AffRel") -> "AffRel":
        out = self
        for other in others:
            out = AffRel(*compose_rows(out, other, 1))
        return out

    def tensor(self, *others: "AffRel") -> "AffRel":
        return AffRel(*tensor_rows((self, *others), 1))

    def __eq__(self, other):
        if not isinstance(other, AffRel):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        if self.is_empty() and other.is_empty():
            return True
        return self.constraints == other.constraints

    def __hash__(self):
        if self.is_empty():
            return hash((self.dom, self.cod, "empty"))
        return hash((self.dom, self.cod, self.constraints))

    def __repr__(self):
        if self.is_empty():
            return f"AffRel({self.dom}->{self.cod}, EMPTY)"
        return (f"AffRel({self.dom}->{self.cod}, dim "
                f"{self.dom + self.cod - self.constraints.dim} affine)")


def is_aff_lagrangian(rel: AffRel) -> bool:
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("ports carry (phi, I) pairs; dimensions must be even")
    if rel.is_empty():
        return True
    return is_lagrangian(rel.linear_part())


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


def format_affrel(rel: AffRel) -> str:
    if rel.is_empty():
        return "EMPTY"
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("printing expects (phi, I) ports")
    names = port_var_names(rel.dom // 2, rel.cod // 2)
    return format_constraints(rel.field, rel.constraints.basis, names)
