"""Shared generators and brute-force oracles for the test suite."""

import itertools
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from propnet.afflag import AffRel, isource_rel, vsource_rel
from propnet.exactla import DimensionMismatch, Subspace, kernel, rref
from propnet.linrel import K_corel, LinRel, label_rows, rlc_rel
from propnet.scalar import QQ, QS, RatFunc, Poly, format_scalar
from propnet.setprops import Corelation, CorelModel, Cospan, _UnionFind
from propnet.circuit import (CIRCUIT_SIGNATURE, EdgeLabel, LCircuit, LGraph,
                             label_from_gen_name)
from propnet.term import (Gen, Id, Par, PropModel, Seq, Sym, arity, par,
                          seq)


# ---------------------------------------------------------------------------
# partitions and corelations

def partitions(elements):
    """All set partitions of a list, as lists of tuples."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [block + (first,)] + part[i + 1:]
        yield part + [(first,)]


def all_corelations(m, n):
    tags = [("x", i) for i in range(m)] + [("y", j) for j in range(n)]
    for part in partitions(tags):
        yield Corelation(m, n, part)


def compose_oracle(f: Corelation, g: Corelation):
    """Equivalence closure on the three-layer tagged set; returns the
    boundary partition and the count of dropped middle-only classes."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for i in range(f.m):
        find(("x", i))
    for j in range(f.n):
        find(("mid", j))
    for k in range(g.n):
        find(("z", k))
    for block in f.blocks:
        anchor = None
        for tag, i in block:
            el = ("x", i) if tag == "x" else ("mid", i)
            anchor = el if anchor is None else anchor
            union(anchor, el)
    for block in g.blocks:
        anchor = None
        for tag, i in block:
            el = ("mid", i) if tag == "x" else ("z", i)
            anchor = el if anchor is None else anchor
            union(anchor, el)
    classes = {}
    for el in list(parent):
        classes.setdefault(find(el), []).append(el)
    blocks = []
    dropped = 0
    for members in classes.values():
        boundary = [("x", i) for t, i in members if t == "x"]
        boundary += [("y", i) for t, i in members if t == "z"]
        if boundary:
            blocks.append(boundary)
        else:
            dropped += 1
    return Corelation(f.m, g.n, blocks), dropped


def rand_corelation(rng, m, n):
    tags = [("x", i) for i in range(m)] + [("y", j) for j in range(n)]
    rng.shuffle(tags)
    nblocks = rng.randint(1, max(1, len(tags))) if tags else 0
    blocks = [[] for _ in range(nblocks)]
    for i, el in enumerate(tags):
        blocks[i % nblocks].append(el)
    return Corelation(m, n, [b for b in blocks if b])


def rand_cospan(rng, m, n, max_extras=2):
    c = rand_corelation(rng, m, n)
    return Cospan(m, n, c.blocks, rng.randint(0, max_extras))


def cospan_to_corel(c: Cospan) -> Corelation:
    """The functor H: forget the apex points away from the boundary."""
    return Corelation(c.m, c.n, c.blocks)


# ---------------------------------------------------------------------------
# scalars and matrices

def rand_fraction(rng, positive=False):
    num = rng.randint(1 if positive else -6, 6)
    if not positive and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 6))


def is_stored(q) -> bool:
    """Whether a rational is in its stored form: an int exactly when it
    is integral, else a Fraction."""
    return type(q) is int or type(q) is Fraction and q.denominator != 1


def is_stored_qs(x) -> bool:
    """Whether a value of Q(s) is in its stored form: a RatFunc exactly
    when it holds s, its parts with stored contents and coefficients, and
    a stored rational when it is constant."""
    if type(x) is not RatFunc:
        return is_stored(x)
    return max(x.num.degree, x.den.degree) > 0 and all(
        is_stored(c) for p in (x.num, x.den) for c in (p.content, *p.coeffs))


def rand_poly(rng, max_deg=2):
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(max_deg + 1)]
    return Poly(coeffs)


# Polynomial arithmetic on tuples of Fraction coefficients, lowest degree
# first with no trailing zero: the oracle for the stored form of ``Poly``.

def oracle_trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def oracle_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return oracle_trim(out)


def oracle_neg(a):
    return tuple(-c for c in a)


def oracle_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return oracle_trim(out)


def oracle_scale(a, c):
    return oracle_trim(x * c for x in a)


def oracle_monic(a):
    return oracle_scale(a, 1 / a[-1]) if a else a


def oracle_divmod(a, b):
    """Quotient and remainder of long division by a nonzero b."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for j, y in enumerate(b):
            r[shift + j] -= c * y
        r = list(oracle_trim(r))
    return oracle_trim(q), tuple(r)


def rand_ratfunc(rng, max_deg=2):
    num = rand_poly(rng, max_deg)
    den = rand_poly(rng, max_deg)
    while den.is_zero():
        den = rand_poly(rng, max_deg)
    return RatFunc(num, den)


def rand_scalar(rng, field):
    if field is QQ:
        return rand_fraction(rng)
    return QS.coerce(rand_ratfunc(rng))


def rand_rows(rng, field, nrows, ncols):
    return [[field.coerce(rng.randint(-5, 5)) for _ in range(ncols)]
            for _ in range(nrows)]


def to_sparse(rows):
    """Dense row lists as the sparse rows ``rref`` and ``kernel`` take:
    dicts from column to nonzero entry."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def to_dense(rows, width, field):
    """Sparse rows as row lists of length ``width``."""
    return [[r.get(j, field.zero) for j in range(width)] for r in rows]


def from_vectors(field, dom, cod, vectors) -> LinRel:
    """The relation spanned by dense vectors of length dom + cod, coerced
    into ``field``: its constraint rows are the kernel of the vectors."""
    vectors = [[field.coerce(x) for x in v] for v in vectors]
    return LinRel(dom, cod, kernel(to_sparse(vectors), field, dom + cod))


def rank(rows, field) -> int:
    return len(rref(to_sparse(rows), field)[0])


def dense_rref(rows, field):
    """Reduced row echelon form in place on a list of row lists.

    Returns (rows, pivot_columns); zero rows are removed.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != field.zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def lagrangian_oracle(rel) -> bool:
    """Pairwise isotropy of the basis at half the ambient dimension, under
    the conjugate-domain symplectic form on (phi, I) pairs; the interface
    dimensions must be even."""
    mports, nports = rel.dom // 2, rel.cod // 2
    if rel.space.dim != mports + nports:
        return False
    field = rel.field

    def omega(u, v):
        acc = field.zero
        for p in range(mports + nports):
            term = u[2 * p] * v[2 * p + 1] - v[2 * p] * u[2 * p + 1]
            acc = acc - term if p < mports else acc + term
        return acc

    basis = rel.space.basis
    return all(omega(u, v) == field.zero
               for u, v in itertools.combinations(basis, 2))


def sympy_poly(sympy, s, p):
    return sum((sympy.Rational(c.numerator, c.denominator) * s ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def to_sympy(sympy, s, x):
    """An int, Fraction or RatFunc as a sympy expression in the symbol s."""
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    return sympy_poly(sympy, s, x.num) / sympy_poly(sympy, s, x.den)


def contains(space, v) -> bool:
    """Whether the dense vector ``v`` (coerced) lies in ``space``: it adds
    no pivot to the canonical rows."""
    v = [space.field.coerce(x) for x in v]
    if len(v) != space.ambient:
        raise DimensionMismatch("vector length != ambient")
    return len(rref(space.rows + to_sparse([v]), space.field)[0]) == space.dim


def aff_contains(rel, point) -> bool:
    """Whether the affine relation ``rel`` holds the dense ``point``: its
    homogenized span holds the point with h = 1."""
    return contains(rel.hspace, list(point) + [rel.field.one])


def witness(rel):
    """Some (u, w) in the affine relation ``rel``, or None if it is
    empty."""
    h = rel.dom + rel.cod
    for v in rel.hspace.basis:
        if v[h] != rel.field.zero:
            scale = rel.field.inv(v[h])
            return tuple(x * scale for x in v[:h])
    return None


# ---------------------------------------------------------------------------
# hypothesis strategies; fixed examples so that every run checks the same
# cases, and no timing health check, so that a slow host cannot fail them

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

_small = st.integers(-4, 4)
_fractions = st.builds(Fraction, _small.filter(bool), st.integers(1, 4))
# constant or degree-1 polynomials: small, so that eliminations stay cheap
_polys = st.lists(_small, min_size=1, max_size=2).map(Poly)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero())


def scalars(field):
    """Nonzero field elements in their stored form, with pivot values
    other than 1."""
    if field is QQ:
        return _fractions
    return st.builds(RatFunc, _nonzero_polys, _nonzero_polys).map(QS.coerce)


@st.composite
def sparse_rows(draw, field, max_rows=5, max_cols=6, min_cols=1):
    """Row lists that are mostly zero, with a zero row and a zero column
    sometimes forced in."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    entry = st.one_of(st.just(field.zero), st.just(field.zero),
                      st.just(field.one), st.just(-field.one), scalars(field))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_row = draw(st.none() | st.integers(0, nrows - 1))
    zero_col = draw(st.none() | st.integers(0, ncols - 1))
    if zero_row is not None:
        rows[zero_row] = [field.zero] * ncols
    if zero_col is not None:
        for row in rows:
            row[zero_col] = field.zero
    return rows


@st.composite
def composable_rows(draw, field, h=0):
    """Interface sizes and constraint rows over (u, v) and (v, w), each
    row with ``h`` more entries (1 for minus an affine constant)."""
    dom, mid, cod = (draw(st.integers(0, 3)) for _ in range(3))
    entry = st.one_of(st.just(field.zero), st.just(field.zero),
                      st.just(field.one), st.just(-field.one),
                      scalars(field))

    def rows(width):
        return [[draw(entry) for _ in range(width)]
                for _ in range(draw(st.integers(0, width)))]

    return dom, mid, cod, rows(dom + mid + h), rows(mid + cod + h)


def stacked_composite(field, dom, mid, cod, frows, grows, h=0):
    """f;g by a second route: the kernel of both row sets stacked over
    (u, v, w) and the ``h`` entries after them, projected off v."""
    zero = field.zero
    rows = [r[:dom + mid] + [zero] * cod + r[dom + mid:] for r in frows]
    rows += [[zero] * dom + r for r in grows]
    sols = kernel(to_sparse(rows), field, dom + mid + cod + h)
    return Subspace(field, dom + cod + h,
                    [v[:dom] + v[dom + mid:] for v in sols.basis])


# ---------------------------------------------------------------------------
# circuits

RLC_KINDS = ("wire", "resistor", "inductor", "capacitor", "impedance")


def rand_label(rng, kinds=RLC_KINDS):
    kind = rng.choice(kinds)
    if kind == "wire":
        return EdgeLabel("wire")
    if kind in ("resistor", "inductor", "capacitor"):
        return EdgeLabel(kind, rand_fraction(rng, positive=True))
    value = rand_ratfunc(rng)
    return EdgeLabel(kind, value)


@st.composite
def circuits(draw, field, sources=False):
    """Small circuits with labels that ``field`` can read.  Self-loops,
    parallel edges, isolated nodes and legs that share a node all come
    up; with sources, so do sources that conflict."""
    nodes = draw(st.integers(0, 5))
    kinds = ["wire", "resistor", "impedance"]
    if field is QS:
        kinds += ["inductor", "capacitor"]
    if sources:
        kinds += ["vsource", "isource"]
    positive = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    # a value 0 sometimes, so that impedances and sources can vanish
    value = (st.just(Fraction(0)) | _fractions).map(QS.coerce)
    if field is QS:
        value = value | scalars(QS)

    @st.composite
    def label(draw):
        kind = draw(st.sampled_from(kinds))
        if kind == "wire":
            return EdgeLabel(kind)
        if kind in ("resistor", "inductor", "capacitor"):
            return EdgeLabel(kind, draw(positive))
        return EdgeLabel(kind, draw(value))

    if not nodes:
        return LCircuit(LGraph(0, []), [], [])
    node = st.integers(0, nodes - 1)
    edges = draw(st.lists(st.tuples(node, node, label()), max_size=7))
    legs = st.lists(node, max_size=3)
    return LCircuit(LGraph(nodes, edges), draw(legs), draw(legs))


def renumber(c: LCircuit, perm) -> LCircuit:
    """``c`` with node v renamed perm[v], for a bijection ``perm``."""
    edges = [(perm[s], perm[t], lab) for s, t, lab in c.graph.edges]
    return LCircuit(LGraph(c.graph.node_count, edges),
                    [perm[i] for i in c.inputs], [perm[i] for i in c.outputs])


def pi0_cospan(c: LCircuit) -> Cospan:
    """Connected components of the underlying graph, as a cospan."""
    uf = _UnionFind(c.graph.node_count)
    for s, t, _lab in c.graph.edges:
        uf.union(s, t)
    comp_terminals = {}
    for idx, v in enumerate(c.inputs):
        comp_terminals.setdefault(uf.find(v), []).append(("x", idx))
    for idx, v in enumerate(c.outputs):
        comp_terminals.setdefault(uf.find(v), []).append(("y", idx))
    extras = uf.components - len(comp_terminals)
    return Cospan(c.m, c.n, list(comp_terminals.values()), extras)


def circuit_to_json(c: LCircuit) -> dict:
    """The JSON object that ``circuit_from_json`` reads back to ``c``."""
    edges = []
    for s, t, lab in c.graph.edges:
        entry = {"src": s, "tgt": t, "label": {"kind": lab.kind}}
        if lab.value is not None:
            entry["label"]["value"] = format_scalar(lab.value)
        edges.append(entry)
    return {"nodes": c.graph.node_count, "edges": edges,
            "inputs": list(c.inputs), "outputs": list(c.outputs)}


def circuit_kernel(c, field):
    """Solutions of a circuit's equations over its boundary (phi, I)
    pairs, one potential per node, one current per edge and h, in that
    order: the dense oracle for black-boxing, one kernel of every row."""
    m = c.m
    nb = 2 * (m + c.n)
    nnodes = c.graph.node_count
    width = nb + nnodes + len(c.graph.edges) + 1
    zero, one = field.zero, field.one
    rows = []
    for k, v in enumerate(c.inputs + c.outputs):
        row = [zero] * width
        row[2 * k] = one
        row[nb + v] = -one
        rows.append(row)
    # label rows on (phi_src, J, phi_tgt, J, h)
    for e, (s, t, lab) in enumerate(c.graph.edges):
        for a_phi1, a_i1, a_phi2, a_i2, a_h in label_rows(field, lab.kind,
                                                          lab.value):
            row = [zero] * width
            row[nb + s] = row[nb + s] + a_phi1
            row[nb + t] = row[nb + t] + a_phi2
            row[nb + nnodes + e] = a_i1 + a_i2
            row[-1] = a_h
            rows.append(row)
    kcl = [[zero] * width for _ in range(nnodes)]
    for i, v in enumerate(c.inputs):
        kcl[v][2 * i + 1] = one
    for j, v in enumerate(c.outputs):
        kcl[v][2 * (m + j) + 1] = -one
    for e, (s, t, _lab) in enumerate(c.graph.edges):
        kcl[s][nb + nnodes + e] = -one
        kcl[t][nb + nnodes + e] = kcl[t][nb + nnodes + e] + one
    return kernel(to_sparse(rows + kcl), field, width)


class AffineCircuitModel(PropModel):
    """Circuit terms valued in affine relations over ``field``, generator
    by generator: the second route to black-boxing with sources."""

    width = 2
    signature = CIRCUIT_SIGNATURE

    def __init__(self, field):
        self.field = field

    def gen(self, name):
        if name in CorelModel.GENERATORS:
            return AffRel.from_linrel(
                K_corel(self.field, CorelModel.GENERATORS[name]))
        label = label_from_gen_name(name)
        if label.kind == "vsource":
            return vsource_rel(self.field, label.value)
        if label.kind == "isource":
            return isource_rel(self.field, label.value)
        return AffRel.from_linrel(rlc_rel(self.field, label))

    def symmetry(self, m, n):
        return AffRel.symmetry(self.field, 2 * m, 2 * n)


def rand_circuit(rng, max_nodes=6, max_edges=8, kinds=RLC_KINDS):
    nodes = rng.randint(1, max_nodes)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        edges.append((rng.randrange(nodes), rng.randrange(nodes),
                      rand_label(rng, kinds)))
    m = rng.randint(0, min(3, nodes))
    n = rng.randint(0, min(3, nodes))
    inputs = [rng.randrange(nodes) for _ in range(m)]
    outputs = [rng.randrange(nodes) for _ in range(n)]
    return LCircuit(LGraph(nodes, edges), inputs, outputs)


# ---------------------------------------------------------------------------
# random well-typed terms

def _rand_gen_name(rng, gens):
    return rng.choice(gens)


def rand_term(rng, sig, gens, depth, max_width=3):
    """A random well-typed term over the given generator names; a quarter
    of its ``seq`` and ``par`` nodes have 3 to 5 children, the rest 2."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.6:
            return Gen(_rand_gen_name(rng, gens))
        if roll < 0.8:
            return Id(rng.randint(0, max_width))
        return Sym(rng.randint(0, max_width), rng.randint(0, max_width))
    children = rng.randint(3, 5) if rng.random() < 0.25 else 2
    if rng.random() < 0.5:
        return par(*(rand_term(rng, sig, gens, depth - 1, max_width)
                     for _ in range(children)))
    terms = [rand_term(rng, sig, gens, depth - 1, max_width)]
    for _ in range(children - 1):
        _d, c = arity(terms[-1], sig)
        terms.append(rand_term_with_dom(rng, sig, gens, c, depth - 1))
    return seq(*terms)


def fold_evaluate(t, model):
    """``evaluate`` by the binary operations over the term as a tree: the
    oracle for one call per form, for shared subterms and for squaring.
    Each form's children fold in from the left, two values at a time, by
    ``compose`` or ``tensor``, over an explicit stack."""
    arity(t, model.signature)
    stack, node = [], t  # [form, k, acc] per open form, at its child k
    while True:
        kind = type(node)
        if kind is Seq or kind is Par:
            stack.append([node, 1, None])
            node = node.terms[0]
            continue
        value = (model.gen(node.name) if kind is Gen
                 else model.identity(node.n) if kind is Id
                 else model.symmetry(node.m, node.n))
        while stack:
            frame = stack[-1]
            form, k, acc = frame
            if k > 1:
                value = (acc.compose(value) if type(form) is Seq
                         else acc.tensor(value))
            if k < len(form.terms):
                frame[1:] = k + 1, value
                node = form.terms[k]
                break
            stack.pop()
        else:
            return value


def rand_term_with_dom(rng, sig, gens, dom, depth):
    """A random well-typed term whose domain is exactly dom: one ``par``
    layer, then while depth lasts, more layers in the same ``seq``."""
    layers = [_rand_layer(rng, sig, gens, dom)]
    while depth > 0 and rng.random() < 0.6:
        _d, c = arity(layers[-1], sig)
        layers.append(_rand_layer(rng, sig, gens, c))
        depth -= 1
    return seq(*layers)


def _rand_layer(rng, sig, gens, dom):
    parts = []
    left = dom
    while left > 0:
        candidates = [g for g in gens if 0 < sig.arity_of(g)[0] <= left]
        if candidates and rng.random() < 0.6:
            g = rng.choice(candidates)
            parts.append(Gen(g))
            left -= sig.arity_of(g)[0]
        else:
            parts.append(Id(1))
            left -= 1
    if rng.random() < 0.3:
        zero_dom = [g for g in gens if sig.arity_of(g)[0] == 0]
        if zero_dom:
            parts.insert(rng.randrange(len(parts) + 1),
                         Gen(rng.choice(zero_dom)))
    return par(*parts)


def rand_circuit_gens(rng, with_sources=False):
    names = ["m", "i", "d", "e", "label:wire",
             "label:resistor:" + str(rng.randint(1, 5)),
             "label:inductor:" + str(rng.randint(1, 5)),
             "label:capacitor:" + str(rng.randint(1, 5)),
             "label:impedance:" + str(rng.randint(1, 5))]
    if with_sources:
        names += ["label:vsource:" + str(rng.randint(1, 5)),
                  "label:isource:" + str(rng.randint(1, 5))]
    return names


def ladder_circuit(sections, values):
    """2-port ladder: per section a series resistor (then an inductor, when
    three values are given) on the top wire and a shunt capacitor to the
    ground node, which is last.  Ports (top_0, ground) -> (top_n, ground)."""
    rlc = len(values) == 3
    nodes = sections + 2 + (sections if rlc else 0)
    ground = nodes - 1
    edges = []
    prev = 0
    for k in range(1, sections + 1):
        if rlc:
            mid = sections + k
            edges.append((prev, mid, EdgeLabel("resistor", values[0])))
            edges.append((mid, k, EdgeLabel("inductor", values[1])))
        else:
            edges.append((prev, k, EdgeLabel("resistor", values[0])))
        edges.append((k, ground, EdgeLabel("capacitor", values[-1])))
        prev = k
    return LCircuit(LGraph(nodes, edges), [0, ground], [sections, ground])
