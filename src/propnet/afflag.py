"""Affine relations as linear relations with a unit wire, and
source-aware black-boxing.

An affine relation f: p -> q is stored as its homogenization f#, the
canonical span over (dom, cod, h) whose last wire h carries the constant:
f is the h = 1 slice, empty exactly when h vanishes on f#.  Every
operation is one step on spanning rows, with h a shared variable
(Bonchi, Piedeleu, Sobocinski and Zanasi, "Graphical Affine Algebra",
2019): ``compose`` and ``tensor`` are one ``compose_bases`` each, whose
middle holds h, ``linear_part`` eliminates h, and ``from_linrel`` adds
the unit row h = 1.
"""

from __future__ import annotations

from .exactla import Subspace, eliminate, kernel
from .scalar import Field, QS
from .setprops import InterfaceMismatch
from .linrel import (LinRel, OddDimension, boundary_rows, compose_bases,
                     format_constraints, is_lagrangian, label_rows,
                     port_var_names)
from .circuit import LCircuit


class AffRel:
    __slots__ = ("dom", "cod", "hspace")

    def __init__(self, dom: int, cod: int, hspace: Subspace):
        if hspace.ambient != dom + cod + 1:
            raise ValueError("ambient must be dom + cod + 1")
        self.dom = dom
        self.cod = cod
        self.hspace = hspace

    @property
    def field(self) -> Field:
        return self.hspace.field

    @classmethod
    def from_linrel(cls, rel: LinRel) -> "AffRel":
        """``rel``'s rows and the unit row h = 1: no row of ``rel`` holds
        h, so the rows are already reduced."""
        h = rel.dom + rel.cod
        return cls(rel.dom, rel.cod, Subspace.canonical(
            rel.field, h + 1, rel.space.rows + [{h: rel.field.one}]))

    @classmethod
    def from_constraints(cls, field, dom, cod, rows):
        """Rows span dom+cod+1 entries, coerced into ``field``; the last
        is minus the constant.  No rows give the whole space."""
        return cls(dom, cod,
                   LinRel.from_constraints(field, dom, cod + 1, rows).space)

    @classmethod
    def identity(cls, field, n: int) -> "AffRel":
        return cls.symmetry(field, 0, n)

    @classmethod
    def symmetry(cls, field, m: int, n: int) -> "AffRel":
        return cls.from_linrel(LinRel.symmetry(field, m, n))

    def is_empty(self) -> bool:
        h = self.dom + self.cod
        return all(h not in row for row in self.hspace.rows)

    def linear_part(self) -> LinRel:
        """The h = 0 slice: what of f#'s span is left once h is
        eliminated from it."""
        h = self.dom + self.cod
        return LinRel(self.dom, self.cod, Subspace.span(
            self.field, h, eliminate(self.hspace.rows, self.field, [h])))

    def compose(self, other: "AffRel") -> "AffRel":
        """``compose_bases`` of f#, read as dom -> cod+1, and g's basis
        lifted to (mid+1) -> (cod+1): the middle is the wires plus h, so
        h is shared."""
        if self.cod != other.dom:
            raise InterfaceMismatch(
                f"cannot compose {self.cod} -> with {other.dom} <-")
        d = other.dom
        return AffRel(self.dom, other.cod,
                      compose_bases(self.field, self.hspace.rows,
                                    _lift(other, d), self.dom, d + 1,
                                    other.cod + 1))

    def tensor(self, other: "AffRel") -> "AffRel":
        """``compose_bases`` of f#, read as (dom, cod) -> h, and g's basis
        lifted to h -> (dom', cod', h), so h is the whole middle; the
        columns are then put in (dom, dom', cod, cod', h) order."""
        d1, c1, d2, c2 = self.dom, self.cod, other.dom, other.cod
        joint = compose_bases(self.field, self.hspace.rows, _lift(other, 0),
                              d1 + c1, 1, d2 + c2 + 1)
        # (d1, c1, d2, c2, h) -> (d1, d2, c1, c2, h)
        col = [*range(d1), *range(d1 + d2, d1 + d2 + c1),
               *range(d1, d1 + d2), *range(d1 + d2 + c1, joint.ambient)]
        return AffRel(d1 + d2, c1 + c2, Subspace.span(
            self.field, joint.ambient,
            [{col[k]: x for k, x in w.items()} for w in joint.rows]))

    def __eq__(self, other):
        if not isinstance(other, AffRel):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        if self.is_empty() and other.is_empty():
            return True
        return self.hspace == other.hspace

    def __hash__(self):
        if self.is_empty():
            return hash((self.dom, self.cod, "empty"))
        return hash((self.dom, self.cod, self.hspace))

    def __repr__(self):
        if self.is_empty():
            return f"AffRel({self.dom}->{self.cod}, EMPTY)"
        return (f"AffRel({self.dom}->{self.cod}, "
                f"dim {self.hspace.dim - 1} affine)")


def _lift(rel: AffRel, d: int):
    """``rel``'s basis, unreduced, with a copy of its h inserted at column
    d: each vector (x, t) becomes (x before d, t, x from d on, t)."""
    h = rel.dom + rel.cod
    return [{k + (k >= d): x for k, x in w.items()}
            | ({d: w[h]} if h in w else {}) for w in rel.hspace.rows]


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
    """Black-boxing with sources: the kernel of the circuit's rows over
    its boundary and the shared homogenizing constant."""
    return AffRel(2 * c.m, 2 * c.n, kernel(boundary_rows(c, field), field,
                                           2 * (c.m + c.n) + 1))


def format_affrel(rel: AffRel) -> str:
    if rel.is_empty():
        return "EMPTY"
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("printing expects (phi, I) ports")
    names = port_var_names(rel.dom // 2, rel.cod // 2)
    return format_constraints(rel.field, rel.hspace.annihilator().basis,
                              names)
