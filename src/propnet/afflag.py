"""Affine relations as homogenized subspaces, with source-aware
black-boxing.

An affine relation p -> q is stored as a subspace of k^(p+q+1); the last
coordinate h is the homogenizing constant, and the relation is the h = 1
slice.  The relation is empty exactly when h vanishes identically on the
stored subspace.  Composition and tensor identify the h coordinates, so
one kernel computation covers both the linear and the translated parts.
"""

from __future__ import annotations

from .exactla import Subspace, kernel, lin_comb
from .scalar import Field, QS
from .setprops import InterfaceMismatch
from .linrel import (LinRel, OddDimension, circuit_kernel,
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
        """The basis of ``rel`` with h = 0, then e_h.  e_h's pivot is the
        last column, where every other vector is 0, so the basis is already
        the reduced echelon one."""
        field = rel.field
        vecs = [v + (field.zero,) for v in rel.space.basis]
        vecs.append((field.zero,) * (rel.dom + rel.cod) + (field.one,))
        return cls(rel.dom, rel.cod,
                   Subspace(field, rel.dom + rel.cod + 1, vecs,
                            _canonical=True))

    @classmethod
    def from_constraints(cls, field, dom, cod, rows):
        """Rows span dom+cod+1 entries; the last is minus the constant."""
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
        return all(v[h] == self.field.zero for v in self.hspace.basis)

    def witness(self):
        """Some (u, w) in the relation, or None if empty."""
        h = self.dom + self.cod
        for v in self.hspace.basis:
            if v[h] != self.field.zero:
                scale = self.field.one / v[h]
                return tuple(x * scale for x in v[:h])
        return None

    def linear_part(self) -> LinRel:
        """The h = 0 slice as a plain linear relation."""
        field = self.field
        h = self.dom + self.cod
        pivot = None
        vecs = []
        for v in self.hspace.basis:
            if v[h] != field.zero and pivot is None:
                pivot = v
                continue
            if v[h] != field.zero:
                c = v[h] / pivot[h]
                v = [a - c * b for a, b in zip(v, pivot)]
            vecs.append(v[:h])
        return LinRel(self.dom, self.cod, Subspace.span(field, h, vecs))

    def contains(self, point) -> bool:
        return self.hspace.contains(list(point) + [self.field.one])

    def compose(self, other: "AffRel") -> "AffRel":
        """``LinRel.compose`` of ``self.hspace``, read as a relation
        dom -> cod+1, with ``other`` lifted to (mid+1) -> (cod+1) by a
        copy of its h after its domain.  The middle rows are the wires
        plus h, so h is shared, and the result has the (dom, cod, h)
        layout.  The lifted basis is not reduced when ``other`` has
        vectors with a nonzero h after its domain, so ``Subspace.span``
        reduces it."""
        if self.cod != other.dom:
            raise InterfaceMismatch(
                f"cannot compose {self.cod} -> with {other.dom} <-")
        field = self.field
        d = other.dom
        lifted = [w[:d] + w[-1:] + w[d:] for w in other.hspace.basis]
        rel = LinRel(self.dom, self.cod + 1, self.hspace).compose(
            LinRel(d + 1, other.cod + 1,
                   Subspace.span(field, d + other.cod + 2, lifted)))
        return AffRel(self.dom, other.cod, rel.space)

    def tensor(self, other: "AffRel") -> "AffRel":
        field = self.field
        fb = self.hspace.basis
        gb = other.hspace.basis
        a, b = len(fb), len(gb)
        hf = self.dom + self.cod
        hg = other.dom + other.cod
        row = [v[hf] for v in fb] + [-w[hg] for w in gb]
        sol = kernel([row], field, a + b)
        dom = self.dom + other.dom
        cod = self.cod + other.cod
        vecs = []
        for cvec in sol.basis:
            # f's (u, w, h) and g's (u, w), h taken from f's side
            fv = lin_comb(field, cvec[:a], fb, 0, hf + 1)
            gv = lin_comb(field, cvec[a:], gb, 0, hg)
            vecs.append(fv[:self.dom] + gv[:other.dom] + fv[self.dom:hf]
                        + gv[other.dom:] + fv[hf:])
        return AffRel(dom, cod, Subspace.span(field, dom + cod + 1, vecs))

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
    """Black-boxing with sources: the circuit's kernel projected to the
    boundary and the shared homogenizing constant."""
    nb = 2 * (c.m + c.n)
    vecs = [v[:nb] + v[-1:] for v in circuit_kernel(c, field).basis]
    return AffRel(2 * c.m, 2 * c.n, Subspace.span(field, nb + 1, vecs))


def format_affrel(rel: AffRel) -> str:
    if rel.is_empty():
        return "EMPTY"
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("printing expects (phi, I) ports")
    names = port_var_names(rel.dom // 2, rel.cod // 2)
    return format_constraints(rel.field, rel.hspace.annihilator().basis,
                              names)
