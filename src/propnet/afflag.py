"""Affine relations as homogenized subspaces, with source-aware
black-boxing.

An affine relation p -> q is stored as a subspace of k^(p+q+1); the last
coordinate h is the homogenizing constant, and the relation is the h = 1
slice.  The relation is empty exactly when h vanishes identically on the
stored subspace.  Composition and tensor identify the h coordinates, so
one kernel computation covers both the linear and the translated parts.
"""

from __future__ import annotations

from .exactla import Mat, Subspace, kernel, lin_comb
from .scalar import Field, QS
from .setprops import InterfaceMismatch
from .linrel import (LinRel, OddDimension, UnsupportedLabel, blackbox,
                     format_linear_combination, is_lagrangian,
                     label_constraint_rows, port_var_names)
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
        rows = list(rows)
        if not rows:
            return cls(dom, cod, Subspace.full(field, dom + cod + 1))
        return cls(dom, cod, kernel(Mat.from_rows(field, rows)))

    @classmethod
    def identity(cls, field, n: int) -> "AffRel":
        return cls.from_linrel(LinRel.identity(field, n))

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
            vecs.append(list(v[:h]))
        return LinRel.from_vectors(field, self.dom, self.cod, vecs)

    def contains(self, point) -> bool:
        return self.hspace.contains(list(point) + [self.field.one])

    def compose(self, other: "AffRel") -> "AffRel":
        if self.cod != other.dom:
            raise InterfaceMismatch(
                f"cannot compose {self.cod} -> with {other.dom} <-")
        field = self.field
        fb = self.hspace.basis
        gb = other.hspace.basis
        a, b = len(fb), len(gb)
        hf = self.dom + self.cod
        hg = other.dom + other.cod
        rows = []
        for r in range(self.cod):
            rows.append([v[self.dom + r] for v in fb]
                        + [-w[r] for w in gb])
        rows.append([v[hf] for v in fb] + [-w[hg] for w in gb])
        sol = kernel(Mat.from_rows(field, rows)) if rows else \
            Subspace.full(field, a + b)
        vecs = []
        for cvec in sol.basis:
            # h is taken from f's side; the last row makes g's side equal
            vecs.append(lin_comb(field, cvec[:a], fb, 0, self.dom)
                        + lin_comb(field, cvec[a:], gb, other.dom, hg)
                        + lin_comb(field, cvec[:a], fb, hf, hf + 1))
        return AffRel(self.dom, other.cod,
                      Subspace(field, self.dom + other.cod + 1, vecs))

    def tensor(self, other: "AffRel") -> "AffRel":
        field = self.field
        fb = self.hspace.basis
        gb = other.hspace.basis
        a, b = len(fb), len(gb)
        hf = self.dom + self.cod
        hg = other.dom + other.cod
        row = [v[hf] for v in fb] + [-w[hg] for w in gb]
        sol = kernel(Mat.from_rows(field, [row]))
        dom = self.dom + other.dom
        cod = self.cod + other.cod
        vecs = []
        for cvec in sol.basis:
            # f's (u, w, h) and g's (u, w), h taken from f's side
            fv = lin_comb(field, cvec[:a], fb, 0, hf + 1)
            gv = lin_comb(field, cvec[a:], gb, 0, hg)
            vecs.append(fv[:self.dom] + gv[:other.dom] + fv[self.dom:hf]
                        + gv[other.dom:] + fv[hf:])
        return AffRel(dom, cod, Subspace(field, dom + cod + 1, vecs))

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
    v = field.coerce(v)
    one, zero = field.one, field.zero
    rows = [
        [-one, zero, one, zero, -v],
        [zero, one, zero, -one, zero],
    ]
    return AffRel.from_constraints(field, 2, 2, rows)


def isource_rel(field: Field, i) -> AffRel:
    """{I1 = I2 = I}: potentials across are unconstrained."""
    i = field.coerce(i)
    one, zero = field.one, field.zero
    rows = [
        [zero, one, zero, zero, -i],
        [zero, zero, zero, one, -i],
    ]
    return AffRel.from_constraints(field, 2, 2, rows)


def aff_blackbox(c: LCircuit, field: Field = QS) -> AffRel:
    """Black-boxing with sources: elimination over node potentials, edge
    currents, and the shared homogenizing constant."""
    m, n = c.m, c.n
    nb = 2 * (m + n)
    nnodes = c.graph.node_count
    nedges = len(c.graph.edges)
    width = nb + nnodes + nedges + 1
    hcol = width - 1
    zero, one = field.zero, field.one

    def node_var(v):
        return nb + v

    def edge_var(e):
        return nb + nnodes + e

    rows = []
    for i, v in enumerate(c.inputs):
        row = [zero] * width
        row[2 * i] = one
        row[node_var(v)] = -one
        rows.append(row)
    for j, v in enumerate(c.outputs):
        row = [zero] * width
        row[2 * (m + j)] = one
        row[node_var(v)] = -one
        rows.append(row)
    for e, (s, t, lab) in enumerate(c.graph.edges):
        if lab.kind == "vsource":
            row = [zero] * width
            row[node_var(t)] = row[node_var(t)] + one
            row[node_var(s)] = row[node_var(s)] - one
            row[hcol] = -field.coerce(lab.value)
            rows.append(row)
        elif lab.kind == "isource":
            row = [zero] * width
            row[edge_var(e)] = one
            row[hcol] = -field.coerce(lab.value)
            rows.append(row)
        else:
            for crow in label_constraint_rows(field, lab):
                a_phi1, a_i1, a_phi2, a_i2 = crow
                row = [zero] * width
                row[node_var(s)] = row[node_var(s)] + a_phi1
                row[node_var(t)] = row[node_var(t)] + a_phi2
                row[edge_var(e)] = row[edge_var(e)] + a_i1 + a_i2
                rows.append(row)
    for v in range(nnodes):
        row = [zero] * width
        for i, iv in enumerate(c.inputs):
            if iv == v:
                row[2 * i + 1] = row[2 * i + 1] + one
        for j, ov in enumerate(c.outputs):
            if ov == v:
                row[2 * (m + j) + 1] = row[2 * (m + j) + 1] - one
        for e, (s, t, _lab) in enumerate(c.graph.edges):
            if s == v:
                row[edge_var(e)] = row[edge_var(e)] - one
            if t == v:
                row[edge_var(e)] = row[edge_var(e)] + one
        if any(x != zero for x in row):
            rows.append(row)
    if rows:
        sol = kernel(Mat.from_rows(field, rows))
    else:
        sol = Subspace.full(field, width)
    vecs = [list(v[:nb]) + [v[hcol]] for v in sol.basis]
    return AffRel(2 * m, 2 * n, Subspace(field, nb + 1, vecs))


def format_affrel(rel: AffRel) -> str:
    if rel.is_empty():
        return "EMPTY"
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("printing expects (phi, I) ports")
    names = port_var_names(rel.dom // 2, rel.cod // 2)
    ann = rel.hspace.annihilator()
    if not ann.basis:
        return "(no constraints)"
    field = rel.field
    lines = []
    for row in ann.basis:
        lhs = format_linear_combination(field, row[:-1], names)
        const = -row[-1]
        lines.append(f"{lhs} = {field.fmt(const)}")
    return "\n".join(lines)
