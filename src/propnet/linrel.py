"""Linear relations as canonical constraint rows, symplectic predicates,
the functor from corelations to potential/current relations, and
black-boxing of linear circuits.

A relation is stored as the reduced echelon rows of its kernel
representation (Willems, IEEE CSM 2007; every linear relation has one:
Bonchi, Sobocinski and Zanasi, "Interacting Hopf algebras", JPAA 2017),
``LinRel`` over (dom, cod) and ``afflag.AffRel`` over (dom, cod, h).  Both
compose by ``compose_rows``, one ``rref`` past the middle, and
tensor by ``tensor_rows``; their shared tail s is h.  The printers print
the stored rows.

Coordinate convention: domain ports first, then codomain ports; a circuit
port carries the pair (phi, I) in that order.  The symplectic form per
port is w((phi, I), (phi', I')) = phi I' - phi' I, with the conjugate
(negated) form on the domain block so that identities come out Lagrangian.
"""

from __future__ import annotations

import functools
import re

from .exactla import Subspace, eliminate, kernel, rref
from .scalar import Field, QS, RatFunc, format_scalar
from .setprops import Corelation, CorelModel, InterfaceMismatch
from .circuit import (CIRCUIT_SIGNATURE, SOURCE_KINDS, EdgeLabel, LCircuit,
                      label_from_gen_name)
from .term import PropModel, UnknownGenerator


class OddDimension(ValueError):
    pass


class UnsupportedLabel(ValueError):
    pass


class LinRel:
    """Linear relation k^dom -> k^cod, stored as ``constraints``: the
    reduced echelon constraint rows of its subspace of k^(dom+cod)."""

    __slots__ = ("dom", "cod", "constraints")

    def __init__(self, dom: int, cod: int, constraints: Subspace):
        if constraints.ambient != dom + cod:
            raise ValueError("ambient dimension must be dom + cod")
        self.dom = dom
        self.cod = cod
        self.constraints = constraints

    @property
    def field(self) -> Field:
        return self.constraints.field

    @property
    def space(self) -> Subspace:
        """The relation itself, the solutions of the rows, built on read."""
        return kernel(self.constraints.rows, self.field,
                      self.constraints.ambient)

    @classmethod
    def from_constraints(cls, field, dom, cod, rows) -> "LinRel":
        """Relation cut out by homogeneous constraint rows, whose entries
        are coerced into ``field``; no rows give the whole space, and a
        row not dom + cod long raises ``DimensionMismatch``."""
        return cls(dom, cod, Subspace(field, dom + cod, rows))

    @classmethod
    def identity(cls, field, n: int) -> "LinRel":
        return cls.symmetry(field, 0, n)

    @classmethod
    def symmetry(cls, field, m: int, n: int) -> "LinRel":
        """The rows x_i - y_sigma(i): pivots 0..m+n-1 in order and one
        entry in each other column, so they are already reduced."""
        one, minus_one, size = field.one, -field.one, m + n
        rows = ([{i: one, size + n + i: minus_one} for i in range(m)]
                + [{m + j: one, size + j: minus_one} for j in range(n)])
        return cls(size, size, Subspace.canonical(field, 2 * size, rows))

    def compose(self, *others: "LinRel") -> "LinRel":
        """The composites, from the left, each by ``compose_rows``."""
        out = self
        for other in others:
            out = LinRel(*compose_rows(out, other, 0))
        return out

    def tensor(self, *others: "LinRel") -> "LinRel":
        return LinRel(*tensor_rows((self, *others), 0))

    def dagger(self) -> "LinRel":
        dom, cod = self.dom, self.cod
        rows = [{k + cod if k < dom else k - dom: x for k, x in r.items()}
                for r in self.constraints.rows]
        return LinRel(cod, dom, Subspace.span(self.field, dom + cod, rows))

    def __eq__(self, other):
        if not isinstance(other, LinRel):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.constraints == other.constraints)

    def __hash__(self):
        return hash((self.dom, self.cod, self.constraints))

    def __repr__(self):
        return (f"LinRel({self.dom}->{self.cod}, dim "
                f"{self.dom + self.cod - self.constraints.dim} over "
                f"{self.field.name})")


def compose_rows(f, g, tail: int):
    """(dom, cod, constraints) of f;g, with a tail s of ``tail`` columns:
    f's rows over (u, v, s) and g's over (v, w, s), placed with v at the
    columns -|v| to -1 before (u, w, s), reduced by ``rref`` from column
    0 on: an echelon basis in that block order, reduced forward only over
    v, then one reduction of what is left past v, which spans the v-free
    rows (Cox, Little and O'Shea, "Ideals, Varieties, and Algorithms",
    section 3.1).  Those reduced rows are f;g's as they stand."""
    if f.cod != g.dom:
        raise InterfaceMismatch(f"cannot compose {f.cod} -> with {g.dom} <-")
    dom, mid, cod = f.dom, f.cod, g.cod
    end, v = dom + cod + tail, [*range(-mid, 0)]
    rows = (_place(g.constraints.rows, [*v, *range(dom, end)])
            + _place(f.constraints.rows, [*range(dom), *v,
                                          *range(dom + cod, end)]))
    return dom, cod, Subspace.canonical(f.field, end,
                                        rref(rows, f.field, 0)[0])


def _place(rows, cols):
    """Sparse rows with column k moved to ``cols[k]``."""
    return [{cols[k]: x for k, x in r.items()} for r in rows]


def tensor_rows(rels, tail: int):
    """(dom, cod, constraints) of the tensor, with a tail s of ``tail``
    columns: every row shifted once into the (dom_1, ..., dom_k, cod_1,
    ..., cod_k, s) layout, in pivot order.

    The blocks have disjoint supports and each block keeps the order of
    its columns, so every shifted row still has its pivot 1 at its least
    column and is the only row nonzero there.  A reduced row set lists the
    rows whose pivot is a domain wire first, so those of every relation in
    turn, then the rest, are the union in pivot order: the reduced echelon
    rows, with no ``rref`` and no sort.  Only a pivot in s, an empty
    affine factor's 0 = 1, breaks this; then the rows are reduced.
    """
    dom = sum([r.dom for r in rels])
    cod = sum([r.cod for r in rels])
    # pivots on domain wires, then the rest; d and c count the domain and
    # codomain wires before r's
    heads, tails, d, c = [], [], 0, 0
    for r in rels:
        n, m = r.dom, r.dom + r.cod
        e, t = dom + c - n, dom + cod - m  # shifts of r's codomain and tail
        for v in r.constraints.rows:
            (heads if min(v) < n else tails).append(
                {k + (d if k < n else e if k < m else t): x
                 for k, x in v.items()})
        d, c = d + n, c + r.cod
    empty = tail and any(min(v) >= dom + cod for v in tails)
    return dom, cod, (Subspace.span if empty else Subspace.canonical)(
        rels[0].field, dom + cod + tail, heads + tails)


def is_lagrangian(rel: LinRel) -> bool:
    """Whether the relation is its own complement under the conjugate-domain
    symplectic form, with coordinates read as (phi, I) pairs: whether it
    has (dom + cod) / 2 rows and any two vanish under the dual form on
    covectors, the sum over ports of r_phi s_I - r_I s_phi, negated on
    the domain ports."""
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("ports carry (phi, I) pairs; dimensions must be even")
    rows = rel.constraints.rows
    # per row r, the covector s -> (dual form of r and s): (-r_I, r_phi) on
    # each codomain port, negated on the domain ports
    duals = [{k ^ 1: -x if (k % 2 == 0) == (k < rel.dom) else x
              for k, x in r.items()} for r in rows]
    zero = rel.field.zero
    return 2 * len(rows) == rel.dom + rel.cod and not any(
        sum((x * s[k] for k, x in dual.items() if k in s), zero)
        for i, dual in enumerate(duals) for s in rows[i + 1:])


def K_corel(field: Field, c: Corelation) -> LinRel:
    """Per connected block: all potentials equal; input current flowing in
    equals output current flowing out."""
    m, n = c.m, c.n

    def phi(el):
        tag, i = el
        return 2 * i if tag == "x" else 2 * (m + i)

    one, rows = field.one, []
    for block in c.blocks:
        rows += [{phi(block[0]): one, phi(el): -one} for el in block[1:]]
        rows.append({phi(el) + 1: one if el[0] == "x" else -one
                     for el in block})
    return LinRel(2 * m, 2 * n, Subspace.span(field, 2 * (m + n), rows))


@functools.cache
def _table_gen(model: type, field: Field, name: str) -> LinRel:
    """A generator of ``model.TABLE``, built once per field."""
    dom, cod, rows = model.TABLE[name]
    return LinRel.from_constraints(field, dom, cod, rows)


class LinRelModel(PropModel):
    """Base of the models valued in linear relations over ``field``: the
    symmetries, and so the identities, on ``width`` wires per object, and
    the generators named in ``TABLE``, name -> (dom, cod, constraint
    rows), where dom and cod count wires."""

    TABLE: dict = {}

    def __init__(self, field: Field = QS):
        self.field = field

    def gen(self, name):
        if name not in self.TABLE:
            raise UnknownGenerator(name)
        return _table_gen(type(self), self.field, name)

    def symmetry(self, m, n):
        return LinRel.symmetry(self.field, self.width * m, self.width * n)


class CorelToLinRelModel(LinRelModel):
    """Wire-generator model whose values are potential/current relations."""

    width = 2
    signature = CIRCUIT_SIGNATURE

    def gen(self, name):
        if name in CorelModel.GENERATORS:
            return K_corel(self.field, CorelModel.GENERATORS[name])
        return rlc_rel(self.field, label_from_gen_name(name))


def _label_value(field: Field, kind: str, value):
    """A label's value in ``field``.  Impedance and source values are read
    in q(s); over q only a constant one has a value."""
    value = QS.coerce(value)
    if isinstance(value, RatFunc) and field is not QS:
        raise UnsupportedLabel(f"{kind} value {format_scalar(value)} "
                               f"needs the field q(s)")
    return field.coerce(value)


def label_impedance(field: Field, kind: str, value):
    """Z in phi2 - phi1 = Z I of a wire, impedance, R, L or C label."""
    if kind == "wire":
        return field.zero
    if kind in ("inductor", "capacitor"):
        if field is not QS:
            raise UnsupportedLabel(f"{kind}s need the field q(s)")
        sv = field.coerce(RatFunc.s()) * field.coerce(value)
        return sv if kind == "inductor" else sv.inv()
    return _label_value(field, kind, value)


def label_rows(field: Field, kind: str, value):
    """Defining rows of a label's behaviour over (phi1, I1, phi2, I2, h).

    The last entry is minus the constant: 0 for the linear labels, whose
    rows are the reduced echelon ones, phi1 - phi2 + Z I2 = 0 and
    I1 - I2 = 0.
    """
    one, zero = field.one, field.zero
    if kind == "vsource":
        # phi2 - phi1 = V, I1 = I2: positive terminal at the edge target
        return [[-one, zero, one, zero, -_label_value(field, kind, value)],
                [zero, one, zero, -one, zero]]
    if kind == "isource":
        # I1 = I2 = I: potentials across are unconstrained
        i = _label_value(field, kind, value)
        return [[zero, one, zero, zero, -i], [zero, zero, zero, one, -i]]
    return [[one, zero, -one, label_impedance(field, kind, value), zero],
            [zero, one, zero, -one, zero]]


def impedance_rel(field: Field, z) -> LinRel:
    """{phi2 - phi1 = Z I1, I1 = I2} on one port in and one port out."""
    rows = label_rows(field, "impedance", z)
    return LinRel.from_constraints(field, 2, 2, [r[:4] for r in rows])


def rlc_rel(field: Field, label: EdgeLabel) -> LinRel:
    if label.kind in SOURCE_KINDS:
        raise UnsupportedLabel(f"{label.kind} has no linear behavior")
    return impedance_rel(field,
                         label_impedance(field, label.kind, label.value))


def circuit_rows(c: LCircuit, field: Field):
    """A circuit's equations, as sparse rows, over its boundary (phi, I)
    pairs, h, one potential per node and one current per edge, in that
    order: terminal potentials equal their node's; label rows per edge;
    current balance per node.  Rows that fold to zero are left out."""
    h = 2 * (c.m + c.n)
    pot = h + 1
    cur = pot + c.graph.node_count
    zero, one = field.zero, field.one
    rows, kcl = [], [{} for _ in range(c.graph.node_count)]
    for k, v in enumerate(c.inputs + c.outputs):
        rows.append({2 * k: one, pot + v: -one})
        kcl[v][2 * k + 1] = one if k < c.m else -one
    for e, (s, t, lab) in enumerate(c.graph.edges):
        # label rows on (phi_src, J, phi_tgt, J, h)
        for coeffs in label_rows(field, lab.kind, lab.value):
            row = {}
            for col, x in zip((pot + s, cur + e, pot + t, cur + e, h),
                              coeffs):
                if x:
                    row[col] = row[col] + x if col in row else x
            rows.append(row)
        kcl[s][cur + e] = -one
        kcl[t][cur + e] = zero if s == t else one
    rows = [{j: x for j, x in row.items() if x} for row in rows + kcl]
    return [row for row in rows if row]


def boundary_rows(c: LCircuit, field: Field):
    """``circuit_rows`` with every node potential and edge current
    eliminated: sparse rows over the boundary (phi, I) pairs and h."""
    h = 2 * (c.m + c.n)
    return eliminate(circuit_rows(c, field), field,
                     range(h + 1, h + 1 + c.graph.node_count
                           + len(c.graph.edges)))


def blackbox(c: LCircuit, field: Field = QS) -> LinRel:
    """The boundary behaviour of a circuit without sources, whose rows
    have no h entries."""
    if any(lab.kind in SOURCE_KINDS for _s, _t, lab in c.graph.edges):
        raise UnsupportedLabel("source labels need the affine black-boxing")
    return LinRel(2 * c.m, 2 * c.n, Subspace.span(
        field, 2 * (c.m + c.n), boundary_rows(c, field)))


# ---------------------------------------------------------------------------
# Relation printing and parsing

_PORT_VAR = re.compile(r"(?:phi|I)_(?:in|out)_[0-9]+")


def port_var_names(mports: int, nports: int):
    names = []
    for i in range(mports):
        names += [f"phi_in_{i + 1}", f"I_in_{i + 1}"]
    for j in range(nports):
        names += [f"phi_out_{j + 1}", f"I_out_{j + 1}"]
    return names


def _is_negative(c) -> bool:
    """Sign of a scalar: a rational's own, or the leading coefficient of a
    rational function's numerator (its denominator is monic)."""
    if isinstance(c, RatFunc):
        return c.num.leading() < 0
    return c < 0


def _needs_parens(lit: str) -> bool:
    """A coefficient printed before '*name' must be grouped when it is a
    sum (a space outside parentheses) or an ungrouped quotient."""
    depth = 0
    for ch in lit:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0:
            return True
    return "/" in lit and not (lit.startswith("(") and lit.endswith(")"))


def format_linear_combination(field, coeffs, names) -> str:
    parts = []
    for cval, name in zip(coeffs, names):
        if cval == field.zero:
            continue
        neg = _is_negative(cval)
        mag = field.format(-cval if neg else cval)
        if mag == "1":
            text = name
        else:
            if _needs_parens(mag):
                mag = f"({mag})"
            text = f"{mag}*{name}"
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f" - {text}" if neg else f" + {text}")
    return "".join(parts) if parts else "0"


def format_constraints(field, rows, names) -> str:
    """One line ``combination = constant`` per row.  A row one entry
    longer than ``names`` ends in minus its constant; any other has
    constant 0."""
    if not rows:
        return "(no constraints)"
    lines = []
    for row in rows:
        const = field.format(-row[-1]) if len(row) > len(names) else "0"
        lines.append(
            f"{format_linear_combination(field, row, names)} = {const}")
    return "\n".join(lines)


def format_linrel(rel: LinRel) -> str:
    if rel.dom % 2 or rel.cod % 2:
        raise OddDimension("printing expects (phi, I) ports")
    names = port_var_names(rel.dom // 2, rel.cod // 2)
    return format_constraints(rel.field, rel.constraints.basis, names)


def parse_linrel(src: str, mports: int, nports: int,
                 field: Field = QS) -> LinRel:
    """The relation of ``format_linrel``'s lines.  A line is linear in the
    port variables, so a variable's coefficient is the value of its left
    side with that variable read as (1) and every other one as (0)."""
    names = port_var_names(mports, nports)
    rows = []
    for line in src.strip().splitlines():
        line = line.strip()
        if not line or line == "(no constraints)":
            continue
        lhs, rhs = line.rsplit("=", 1)
        for name in _PORT_VAR.findall(lhs):
            if name not in names:
                raise ValueError(f"unknown variable {name!r}")

        def at(one):  # the left side with only the variable ``one`` at 1
            return field.parse(_PORT_VAR.sub(
                lambda v: "(1)" if v[0] == one else "(0)", lhs))

        if at(None) != field.zero or field.parse(rhs) != field.zero:
            raise ValueError("homogeneous constraints must end in '= 0'")
        rows.append([at(name) for name in names])
    return LinRel.from_constraints(field, 2 * mports, 2 * nports, rows)
