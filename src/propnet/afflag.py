"""Affine relations as linear relations with a unit wire, and
source-aware black-boxing.

An affine relation f: p -> q is stored as its homogenization f# =
``LinRel(p, q + 1, hspace)``, whose last wire h carries the constant: f
is the h = 1 slice, empty exactly when h vanishes on f#.  Operations are
``LinRel`` operations on f# and three fixed relations: the unit point ONE
(0 -> 1), the codiagonal MERGE (2 -> 1) and the zero effect ZERO
(1 -> 0).  The one affine-specific step is the lift in ``compose``.
"""

from __future__ import annotations

import functools

from .exactla import Subspace, kernel
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

    @property
    def homogenized(self) -> LinRel:
        """f#: the relation dom -> cod + 1 whose last wire is h."""
        return LinRel(self.dom, self.cod + 1, self.hspace)

    @classmethod
    def from_linrel(cls, rel: LinRel) -> "AffRel":
        """rel (x) ONE: h is free, and every other wire is as in ``rel``."""
        return cls(rel.dom, rel.cod, rel.tensor(_one(rel.field)).space)

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
        """The h = 0 slice, f# ; (id_cod (x) ZERO), with ZERO the zero
        effect 1 -> 0."""
        zero = LinRel.from_vectors(self.field, 1, 0, [])
        return self.homogenized.compose(
            LinRel.identity(self.field, self.cod).tensor(zero))

    def contains(self, point) -> bool:
        return self.hspace.contains(list(point) + [self.field.one])

    def compose(self, other: "AffRel") -> "AffRel":
        """``compose_bases`` of f#, read as dom -> cod+1, and g's basis
        lifted, unreduced, to (mid+1) -> (cod+1) by a copy of its h after
        its domain: the middle is the wires plus h, so h is shared."""
        if self.cod != other.dom:
            raise InterfaceMismatch(
                f"cannot compose {self.cod} -> with {other.dom} <-")
        d, h = other.dom, other.dom + other.cod
        lifted = [{k + (k >= d): x for k, x in w.items()}
                  | ({d: w[h]} if h in w else {}) for w in other.hspace.rows]
        return AffRel(self.dom, other.cod,
                      compose_bases(self.field, self.hspace.rows, lifted,
                                    self.dom, d + 1, other.cod + 1))

    def tensor(self, other: "AffRel") -> "AffRel":
        """(f# (x) g#) ; ``_route``, which merges the two h wires."""
        c1, c2 = self.cod, other.cod
        rel = (self.homogenized.tensor(other.homogenized)
               .compose(_route(self.field, c1, c2)))
        return AffRel(self.dom + other.dom, c1 + c2, rel.space)

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


@functools.cache
def _one(field: Field) -> LinRel:
    """ONE, the unit point 0 -> 1 spanned by (1)."""
    return LinRel.from_vectors(field, 0, 1, [[1]])


@functools.cache
def _route(field: Field, c1: int, c2: int) -> LinRel:
    """(id_c1 (x) sigma(1, c2) (x) id_1) ; (id_(c1+c2) (x) MERGE), with
    MERGE the codiagonal 2 -> 1 spanned by (1, 1, 1)."""
    merge = LinRel.from_vectors(field, 2, 1, [[1, 1, 1]])
    swap = (LinRel.identity(field, c1)
            .tensor(LinRel.symmetry(field, 1, c2))
            .tensor(LinRel.identity(field, 1)))
    return swap.compose(LinRel.identity(field, c1 + c2).tensor(merge))



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
