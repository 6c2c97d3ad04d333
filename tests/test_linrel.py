import ast
import inspect
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propnet import afflag, exactla, linrel
from propnet.afflag import AffRel, aff_blackbox
from propnet.circuit import (MAX_NODES, SOURCE_KINDS, WIRE, CircuitModel,
                             EdgeLabel, LCircuit, LGraph, parse_label)
from propnet.linrel import (CorelToLinRelModel, K_corel, LinRel, OddDimension,
                            UnsupportedLabel, blackbox, format_linrel,
                            impedance_rel, is_lagrangian, parse_linrel,
                            rlc_rel)
from propnet.exactla import (DimensionMismatch, Subspace, eliminate, kernel,
                             rref)
from propnet.scalar import QQ, QS, Poly, RatFunc
from propnet.setprops import CorelModel
from propnet.cli import main
from propnet.term import MAX_WIDTH, evaluate, parse_term

from helpers import (PROPERTY, RLC_KINDS, aff_contains, circuit_kernel,
                     circuit_to_json, circuits, composable_rows,
                     from_vectors, is_stored, is_stored_qs, ladder_circuit,
                     lagrangian_oracle, rand_circuit, rand_circuit_gens,
                     rand_corelation, rand_term, scalars, sparse_rows,
                     stacked_composite, to_sparse)


def _member(rel, vec):
    field = rel.field
    return all(sum((a * b for a, b in zip(row, vec)), field.zero) == field.zero
               for row in rel.constraints.basis)


def test_K_on_generators():
    gens = CorelModel.GENERATORS
    # merge: equal potentials, currents add
    km = K_corel(QQ, gens["m"])
    assert km == LinRel.from_constraints(QQ, 4, 2, [
        [1, 0, -1, 0, 0, 0],      # phi1 = phi2
        [1, 0, 0, 0, -1, 0],      # phi1 = phi_out
        [0, 1, 0, 1, 0, -1],      # I1 + I2 = I_out
    ])
    # unit: open end, no current
    ki = K_corel(QQ, gens["i"])
    assert ki == LinRel.from_constraints(QQ, 0, 2, [[0, 1]])
    # split: equal potentials, current splits
    kd = K_corel(QQ, gens["d"])
    assert kd == LinRel.from_constraints(QQ, 2, 4, [
        [1, 0, -1, 0, 0, 0],
        [1, 0, 0, 0, -1, 0],
        [0, 1, 0, -1, 0, -1],     # I_in = I1 + I2
    ])
    ke = K_corel(QQ, gens["e"])
    assert ke == LinRel.from_constraints(QQ, 2, 0, [[0, 1]])


def test_K_lagrangian():
    rng = random.Random(50)
    for field in (QQ, QS):
        for _ in range(60):
            c = rand_corelation(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert is_lagrangian(K_corel(field, c))


def test_K_functorial():
    rng = random.Random(51)
    for _ in range(80):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        f = rand_corelation(rng, m, n)
        g = rand_corelation(rng, n, p)
        assert K_corel(QQ, f.compose(g)) == \
            K_corel(QQ, f).compose(K_corel(QQ, g))
        h = rand_corelation(rng, rng.randint(0, 2), rng.randint(0, 2))
        assert K_corel(QQ, f.tensor(h)) == \
            K_corel(QQ, f).tensor(K_corel(QQ, h))
    assert K_corel(QQ, CorelModel().identity(2)) == LinRel.identity(QQ, 4)


def test_K_dagger():
    rng = random.Random(52)
    for _ in range(40):
        c = rand_corelation(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert K_corel(QQ, c.dagger()) == K_corel(QQ, c).dagger()


def test_dagger_antihomomorphism():
    rng = random.Random(53)
    for _ in range(40):
        m, n, p = (rng.randint(0, 2) for _ in range(3))
        f = K_corel(QQ, rand_corelation(rng, m, n))
        g = K_corel(QQ, rand_corelation(rng, n, p))
        assert f.compose(g).dagger() == g.dagger().compose(f.dagger())
        assert f.dagger().dagger() == f


def test_rlc_relations():
    s = QS.coerce(RatFunc.s())
    # resistor: phi2 - phi1 = R*I, current passes through
    r = rlc_rel(QS, parse_label("resistor", "2"))
    assert _member(r, [QS.zero, QS.one, QS.coerce(2), QS.one])
    assert not _member(r, [QS.zero, QS.one, QS.coerce(3), QS.one])
    # inductor: impedance sL
    l = rlc_rel(QS, parse_label("inductor", "3"))
    assert _member(l, [QS.zero, QS.one, 3 * s, QS.one])
    # capacitor: impedance 1/(sC)
    c = rlc_rel(QS, parse_label("capacitor", "4"))
    assert c == impedance_rel(QS, (4 * s).inv())
    # wire: zero impedance
    assert rlc_rel(QS, parse_label("wire")) == impedance_rel(QS, QS.zero)
    for rel in (r, l, c):
        assert is_lagrangian(rel)
    with pytest.raises(UnsupportedLabel):
        rlc_rel(QS, parse_label("vsource", "5"))
    with pytest.raises(UnsupportedLabel, match="affine black-boxing"):
        blackbox(LCircuit.single_edge(parse_label("vsource", "5")), QS)
    # L and C need s, which the field q lacks
    for kind in ("inductor", "capacitor"):
        with pytest.raises(UnsupportedLabel, match="need the field q"):
            rlc_rel(QQ, parse_label(kind, "2"))


def test_series_parallel_physics():
    r2 = LCircuit.single_edge(parse_label("resistor", "2"))
    r3 = LCircuit.single_edge(parse_label("resistor", "3"))
    series = r2.compose(r3)
    assert blackbox(series, QS) == impedance_rel(QS, QS.coerce(5))
    # parallel 2 || 3 = 6/5 via d ; (r2 + r3) ; m
    model = CircuitModel()
    d = model.gen("d")
    m = model.gen("m")
    par = d.compose(r2.tensor(r3)).compose(m)
    assert blackbox(par, QS) == impedance_rel(QS, QS.coerce(Fraction(6, 5)))
    # LC tank: inductor parallel capacitor
    lk = LCircuit.single_edge(parse_label("inductor", "1"))
    ck = LCircuit.single_edge(parse_label("capacitor", "1"))
    tank = d.compose(lk.tensor(ck)).compose(m)
    s = QS.coerce(RatFunc.s())
    assert blackbox(tank, QS) == impedance_rel(QS, s / (s * s + QS.one))


def test_blackbox_is_lagrangian():
    rng = random.Random(54)
    for _ in range(40):
        c = rand_circuit(rng, max_nodes=5, max_edges=6)
        assert is_lagrangian(blackbox(c, QS))


def test_dual_path_agreement():
    # black-boxing the built circuit agrees with evaluating the same term
    # directly into linear relations
    rng = random.Random(55)
    circ = CircuitModel()
    for _ in range(60):
        gens = rand_circuit_gens(rng)
        t = rand_term(rng, circ.signature, gens, rng.randint(0, 3))
        rel = evaluate(t, CorelToLinRelModel(QS))
        assert blackbox(evaluate(t, circ), QS) == rel


def test_format_parse_round_trip():
    # ladders print negated polynomial coefficients such as -(35*s + 1)
    for values in ([Fraction(5), Fraction(7)],
                   [Fraction(2), Fraction(3), Fraction(1, 2)]):
        for n in range(1, 9):
            rel = blackbox(ladder_circuit(n, values), QS)
            assert parse_linrel(format_linrel(rel), 2, 2, QS) == rel
    # a sum that starts and ends with a bracketed fraction is one coefficient
    c = QS.parse("s/2 + 3/2")
    rel = LinRel.from_constraints(QS, 2, 2, [[QS.one, c, -c, QS.zero]])
    assert parse_linrel(format_linrel(rel), 1, 1, QS) == rel
    rng = random.Random(56)
    for _ in range(40):
        c = rand_circuit(rng, max_nodes=4, max_edges=5)
        rel = blackbox(c, QS)
        text = format_linrel(rel)
        assert parse_linrel(text, rel.dom // 2, rel.cod // 2, QS) == rel
    # an odd interface prints over x1, ..., y1, ...
    assert format_linrel(LinRel.from_constraints(QQ, 1, 0, [[1]])) == "x1 = 0"


@pytest.mark.parametrize("text, message", [
    ("phi_in_1 - phi_out_2 = 0", "unknown variable 'phi_out_2'"),
    ("phi_in_1 - phi_out_1 = 1", "must end in '= 0'"),
    ("phi_in_1 - phi_out_1 + 1 = 0", "must end in '= 0'"),
])
def test_parse_linrel_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_linrel(text, 1, 1, QS)


# ---------------------------------------------------------------------------
# constructors that skip rref give the bases rref would give

def _is_reduced(space):
    return Subspace(space.field, space.ambient, space.basis).rows == \
        space.rows


@st.composite
def _linrels(draw, field):
    dom = draw(st.integers(0, 3))
    cod = draw(st.integers(0 if dom else 1, 3))
    rows = draw(sparse_rows(field, max_rows=4, min_cols=dom + cod,
                            max_cols=dom + cod))
    return LinRel(dom, cod, Subspace(field, dom + cod, rows))


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_tensor_and_from_linrel_are_reduced(field, data):
    f = data.draw(_linrels(field))
    g = data.draw(_linrels(field))
    t = f.tensor(g)
    assert _is_reduced(t.constraints) and _is_reduced(t.space)
    padded = ([list(v[:f.dom]) + [field.zero] * g.dom + list(v[f.dom:])
               + [field.zero] * g.cod for v in f.space.basis]
              + [[field.zero] * f.dom + list(w[:g.dom]) + [field.zero] * f.cod
                 + list(w[g.dom:]) for w in g.space.basis])
    assert t.space.basis == Subspace(field, t.dom + t.cod, padded).basis
    assert _is_reduced(AffRel.from_linrel(f).constraints)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
def test_identity_and_symmetry_are_reduced(field):
    for n in range(5):
        assert _is_reduced(LinRel.identity(field, n).constraints)
        assert _is_reduced(AffRel.identity(field, n).constraints)
        for m in range(5):
            assert _is_reduced(LinRel.symmetry(field, m, n).constraints)
            assert _is_reduced(AffRel.symmetry(field, m, n).constraints)


# ---------------------------------------------------------------------------
# exactness: a rational is stored as an int exactly when it is integral,
# and no operation lets a float in

def _as_ints(x):
    """A rational in its stored form; a RatFunc as it is."""
    return x if isinstance(x, RatFunc) else QQ.coerce(x)


def _as_fractions(x):
    """The same value with every integral rational in it a Fraction."""
    if isinstance(x, RatFunc):
        return RatFunc(Poly([Fraction(c) for c in x.num.coeffs]),
                       Poly([Fraction(c) for c in x.den.coeffs]))
    return Fraction(x)


def _assert_exact(field, rows):
    """Every entry a stored rational over q; over q(s) a RatFunc exactly
    when it holds s, with parts of stored contents and coefficients, and
    a stored rational when it is constant."""
    stored_form = is_stored if field is QQ else is_stored_qs
    for row in rows:
        for x in row.values():
            assert stored_form(x), x


def _with_values(circuit, convert):
    edges = [(s, t, lab if lab.value is None
              else EdgeLabel(lab.kind, convert(lab.value)))
             for s, t, lab in circuit.graph.edges]
    return LCircuit(LGraph(circuit.graph.node_count, edges),
                    circuit.inputs, circuit.outputs)


def _exact_results(field, convert, rows, gone, composable, circuit,
                   sourced):
    """The rows of rref, kernel, eliminate, the coercing constructors,
    compose, tensor, blackbox and aff_blackbox on inputs whose values are
    given through ``convert``, and the printed black boxes."""
    dense = [[convert(x) for x in r] for r in rows]
    width = len(dense[0])
    sparse = to_sparse([[field.coerce(x) for x in r] for r in dense])
    dom, mid, cod, frows, grows = composable
    f = LinRel.from_constraints(field, dom, mid,
                                [[convert(x) for x in r] for r in frows])
    g = LinRel.from_constraints(field, mid, cod,
                                [[convert(x) for x in r] for r in grows])
    box = blackbox(_with_values(circuit, convert), field)
    abox = aff_blackbox(_with_values(sourced, convert), field)
    rowsets = [rref(sparse, field)[0], kernel(sparse, field, width).rows,
               eliminate(sparse, field, gone),
               Subspace(field, width, dense).rows, f.space.rows,
               f.compose(g).space.rows, f.tensor(g).space.rows,
               box.space.rows, box.constraints.rows, abox.constraints.rows]
    return rowsets, format_linrel(box), format_linrel(abox)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_values_stay_exact(field, data):
    """Each result holds stored values only, and the same inputs with
    their integers given as Fractions give equal rows and the same
    printed text."""
    rows = data.draw(sparse_rows(field))
    gone = sorted(data.draw(st.sets(st.integers(0, len(rows[0]) - 1))))
    composable = data.draw(composable_rows(field))
    circuit = data.draw(circuits(field))
    sourced = data.draw(circuits(field, sources=True))
    got = _exact_results(field, _as_ints, rows, gone, composable, circuit,
                         sourced)
    again = _exact_results(field, _as_fractions, rows, gone, composable,
                           circuit, sourced)
    assert got == again
    for rowsets, *_texts in (got, again):
        for out in rowsets:
            _assert_exact(field, out)


def test_from_constraints_coerces_and_checks_widths():
    # integer rows are coerced; no rows give the whole space
    assert LinRel.from_constraints(QQ, 1, 1, [[1, -1]]) == \
        LinRel.identity(QQ, 1)
    full = LinRel.from_constraints(QS, 1, 2, [])
    assert full.space.dim == 3
    assert full == from_vectors(QS, 1, 2, [[1, 0, 0], [0, 1, 0],
                                           [0, 0, 1]])
    for rows in ([[1, 0, 0]], [[1, 0], [1]], [[1, 0], [0, 1, 0]]):
        with pytest.raises(DimensionMismatch, match="width 2"):
            LinRel.from_constraints(QQ, 1, 1, rows)
    # affine rows end in minus the constant, so they are one entry wider
    two = AffRel.from_constraints(QQ, 1, 1, [[1, -1, -2]])
    assert aff_contains(two, [QQ.coerce(2), QQ.zero])
    assert not aff_contains(two, [QQ.zero, QQ.zero])
    assert AffRel.from_constraints(QS, 0, 1, []).hspace.dim == 2
    for rows in ([[1, 2]], [[1, 0, 0], [1]], [[1, 0, 0, 0]]):
        with pytest.raises(DimensionMismatch, match="width 3"):
            AffRel.from_constraints(QQ, 1, 1, rows)


# ---------------------------------------------------------------------------
# compose against a second route: the kernel of both row sets stacked

def check_compose_against_stacking(field, case):
    """f;g is the kernel of f's rows on (u, v) and g's on (v, w), taken
    over (u, v, w) and projected to (u, w)."""
    dom, mid, cod, frows, grows = case
    frows = [[field.coerce(x) for x in r] for r in frows]
    grows = [[field.coerce(x) for x in r] for r in grows]
    got = LinRel.from_constraints(field, dom, mid, frows).compose(
        LinRel.from_constraints(field, mid, cod, grows))
    assert (got.dom, got.cod) == (dom, cod)
    assert got.space == stacked_composite(field, dom, mid, cod, frows, grows)
    # the rows are stored unchecked: they must be reduced and over (u, w)
    rows = got.constraints.rows
    assert rref(rows, field)[0] == rows
    assert all(max(r) < dom + cod for r in rows)


def _compose_examples(test):
    """A middle of width 0; f the zero relation; f and g the whole space;
    identities, whose composite is {u = -w} if no middle is negated."""
    for case in [(2, 0, 1, [[1, -1]], [[1]]),
                 (1, 1, 2, [[1, 0], [0, 1]], []),
                 (2, 2, 1, [], []),
                 (1, 1, 1, [[1, -1]], [[1, -1]])]:
        test = example(case)(test)
    return test


@PROPERTY
@given(composable_rows(QQ))
@_compose_examples
def test_compose_matches_stacked_kernel_qq(case):
    check_compose_against_stacking(QQ, case)


@PROPERTY
@given(composable_rows(QS))
@_compose_examples
def test_compose_matches_stacked_kernel_qs(case):
    check_compose_against_stacking(QS, case)


@st.composite
def _wide_composable(draw, field, h=0):
    """As ``composable_rows``, with a middle of 8 to 10 wires and one to
    three nonzeros per row, as generator relations have."""
    dom, mid, cod = (draw(st.integers(*span)) for span in
                     ((0, 3), (8, 10), (0, 3)))
    entry = st.one_of(st.just(field.one), st.just(-field.one),
                      scalars(field))

    def rows(width):
        out = [[field.zero] * width
               for _ in range(draw(st.integers(0, width)))]
        for row in out:
            for j in draw(st.sets(st.integers(0, width - 1), min_size=1,
                                  max_size=3)):
                row[j] = draw(entry)
        return out

    return dom, mid, cod, rows(dom + mid + h), rows(mid + cod + h)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@pytest.mark.parametrize("h", [0, 1], ids=["linear", "affine"])
@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_compose_over_a_wide_middle_is_one_rref_past_it(field, h, data):
    """A compose, linear or affine, over a middle of 8 to 10 wires makes
    one ``rref`` call, started at column 0 with the middle's wires at the
    negative columns before it, and no ``eliminate`` or
    ``Subspace.span``; its rows are reduced, over the right columns, and
    cut out the stacked kernel's composite."""
    dom, mid, cod, frows, grows = data.draw(_wide_composable(field, h))
    rel = AffRel if h else LinRel
    f = rel.from_constraints(field, dom, mid, frows)
    g = rel.from_constraints(field, mid, cod, grows)
    calls = []

    def counted(rows, over, start=None):
        calls.append((start, {k for r in rows for k in r}))
        return rref(rows, over, start)

    def refuse(*_args):
        raise AssertionError("refused call")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linrel, "rref", counted)
        for module in (exactla, linrel):
            patch.setattr(module, "eliminate", refuse)
        patch.setattr(Subspace, "span", refuse)
        got = f.compose(g)
    assert [start for start, _cols in calls] == [0]
    assert calls[0][1] <= set(range(-mid, dom + cod + h))
    rows = got.constraints.rows
    assert rref(rows, field)[0] == rows
    assert all(max(r) < dom + cod + h for r in rows)
    assert (got.hspace if h else got.space) == stacked_composite(
        field, dom, mid, cod, frows, grows, h)


def test_linrel_imports_no_private_name_of_exactla():
    names = [a.name for node in ast.walk(ast.parse(inspect.getsource(linrel)))
             if isinstance(node, ast.ImportFrom) and node.module == "exactla"
             for a in node.names]
    assert "rref" in names and not [n for n in names if n.startswith("_")]


# ---------------------------------------------------------------------------
# is_lagrangian against the pairwise isotropy oracle

@st.composite
def _lagrangians(draw, field):
    """The graph I = D S phi of a symmetric S, where D negates the domain
    ports, with (phi, I) -> (I, -phi) on some ports: each step keeps the
    relation Lagrangian."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    ports = m + n
    entry = st.one_of(st.just(field.zero), st.just(field.one),
                      scalars(field))
    s = [[field.zero] * ports for _ in range(ports)]
    for i in range(ports):
        for j in range(i, ports):
            s[i][j] = s[j][i] = draw(entry)
    turned = draw(st.sets(st.integers(0, ports - 1)) if ports
                  else st.just(set()))
    vecs = []
    for k in range(ports):
        v = []
        for p in range(ports):
            phi = field.one if p == k else field.zero
            cur = -s[p][k] if p < m else s[p][k]
            v += [cur, -phi] if p in turned else [phi, cur]
        vecs.append(v)
    return from_vectors(field, 2 * m, 2 * n, vecs)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_is_lagrangian_matches_pairwise_oracle(field, data):
    lag = data.draw(_lagrangians(field))
    assert is_lagrangian(lag) and lagrangian_oracle(lag)
    width = lag.dom + lag.cod
    if width:
        # some basis vectors swapped for arbitrary ones: often of the
        # same dimension, seldom isotropic
        keep = data.draw(st.integers(0, lag.space.dim))
        rows = data.draw(sparse_rows(field, max_rows=width // 2 + 1,
                                     min_cols=width, max_cols=width))
        rel = from_vectors(field, lag.dom, lag.cod,
                           lag.space.basis[:keep] + rows)
        assert is_lagrangian(rel) == lagrangian_oracle(rel)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_is_lagrangian_on_rows_matches_pairwise_oracle(field, data):
    """``is_lagrangian`` reads the constraint rows; the oracle checks
    the basis.  On black boxes (Lagrangian), their linear parts with
    sources, a box with one row swapped for an arbitrary one (often half
    the rows, seldom isotropic), arbitrary rows, and the composites,
    tensors and daggers of these."""
    box = blackbox(data.draw(circuits(field)), field)
    part = aff_blackbox(data.draw(circuits(field, sources=True)),
                        field).linear_part()
    width = box.dom + box.cod
    rows = data.draw(sparse_rows(field, max_rows=width // 2 + 2,
                                 min_cols=width, max_cols=width)) \
        if width else []
    swapped = LinRel.from_constraints(
        field, box.dom, box.cod, box.constraints.basis[:-1] + rows[:1])
    cod = 2 * data.draw(st.integers(0, 2))
    free = data.draw(sparse_rows(field, max_rows=(box.cod + cod) // 2 + 1,
                                 min_cols=box.cod + cod,
                                 max_cols=box.cod + cod)) \
        if box.cod + cod else []
    other = LinRel.from_constraints(field, box.cod, cod, free)
    for rel in (box, part, swapped, other, box.compose(other),
                box.tensor(part), swapped.dagger()):
        assert is_lagrangian(rel) == lagrangian_oracle(rel)


def test_is_lagrangian_needs_even_interfaces():
    """Ports carry (phi, I) pairs, linear and affine relations alike."""
    for rel in (LinRel.from_constraints(QQ, 1, 0, [[1]]),
                AffRel.from_constraints(QQ, 0, 3, [[1, 0, 0, -1]])):
        with pytest.raises(OddDimension):
            is_lagrangian(rel)


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_blackboxed_passive_circuits_are_lagrangian(field, seed):
    kinds = RLC_KINDS if field is QS else ("wire", "resistor")
    c = rand_circuit(random.Random(seed), max_nodes=5, max_edges=6,
                     kinds=kinds)
    rel = blackbox(c, field)
    assert is_lagrangian(rel) and lagrangian_oracle(rel)


# ---------------------------------------------------------------------------
# black-boxing against the dense oracle: one kernel of all the equations,
# projected to the boundary and h

def _check_blackbox_against_oracle(c, field):
    nb = 2 * (c.m + c.n)
    full = circuit_kernel(c, field).basis
    aff = aff_blackbox(c, field)
    assert aff.hspace == Subspace(field, nb + 1,
                                  [v[:nb] + v[-1:] for v in full])
    if not any(lab.kind in SOURCE_KINDS for _s, _t, lab in c.graph.edges):
        assert blackbox(c, field).space == \
            Subspace(field, nb, [v[:nb] for v in full])
    return aff


@pytest.mark.parametrize("sources", [False, True], ids=["linear", "sources"])
@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_blackbox_matches_dense_oracle(field, sources, data):
    _check_blackbox_against_oracle(data.draw(circuits(field, sources)), field)


def _resistor(r):
    return EdgeLabel("resistor", Fraction(r))


def _vsource(v):
    return EdgeLabel("vsource", QS.coerce(v))


CORNER_CIRCUITS = {
    "self-loops": LCircuit(LGraph(2, [
        (0, 0, _resistor(2)), (1, 1, WIRE), (0, 1, _resistor(3)),
        (1, 1, EdgeLabel("isource", QS.coerce(4)))]), [0], [1]),
    "parallel edges": LCircuit(LGraph(2, [
        (0, 1, _resistor(2)), (1, 0, _resistor(3)), (0, 1, _vsource(1))]),
        [0], [1]),
    "isolated nodes": LCircuit(LGraph(4, [(0, 1, _resistor(2))]),
                               [0, 2], [1]),
    "shared legs": LCircuit(LGraph(2, [(0, 1, _resistor(2))]),
                            [0, 0, 1], [1, 0]),
    "no nodes": LCircuit(LGraph(0, []), [], []),
    "conflicting sources": LCircuit(LGraph(2, [
        (0, 1, _vsource(1)), (0, 1, _vsource(2))]), [0], [1]),
    "source on a self-loop": LCircuit(LGraph(1, [(0, 0, _vsource(1))]),
                                      [0], []),
}


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@pytest.mark.parametrize("name", CORNER_CIRCUITS)
def test_blackbox_corner_cases_match_dense_oracle(field, name):
    aff = _check_blackbox_against_oracle(CORNER_CIRCUITS[name], field)
    assert aff.is_empty() == ("source" in name)


def test_blackbox_of_many_edgeless_nodes_stays_small():
    c = LCircuit(LGraph(MAX_NODES, []), [0], [MAX_NODES - 1])
    tracemalloc.start()
    try:
        rel = blackbox(c, QQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    # two open terminals: free potentials, no current
    assert rel == LinRel.from_constraints(QQ, 2, 2, [[0, 1, 0, 0],
                                                     [0, 0, 0, 1]])


def test_widest_identity_composite_stays_sparse():
    # 2,000 basis vectors of two nonzeros each over 4,000 wires; stored
    # dense, this composite peaked at 324 MB
    model = CorelToLinRelModel(QQ)
    half = MAX_WIDTH // 2
    t = parse_term(f"(seq (id {MAX_WIDTH}) (sym {half} {half}))")
    tracemalloc.start()
    try:
        rel = evaluate(t, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert rel == model.symmetry(half, half)
    assert rel.space.dim == 2 * MAX_WIDTH


# ---------------------------------------------------------------------------
# relations are stored as their constraint rows, so no engine path solves
# for a basis

def test_no_engine_path_takes_a_kernel(tmp_path, capsys, monkeypatch):
    """With ``kernel`` refused wherever it is bound, every operation that
    builds, composes, tensors, black-boxes, checks or prints a relation
    still runs, and so do the CLI's ``eval`` and ``blackbox``: only the
    read-only views ``LinRel.space`` and ``AffRel.hspace`` solve for a
    basis."""
    def refuse(*_args):
        raise AssertionError("kernel called")

    for module in (exactla, linrel, afflag):
        monkeypatch.setattr(module, "kernel", refuse)
    for field in (QQ, QS):
        imp = LinRel.from_constraints(field, 2, 2, [[1, 0, -1, 3],
                                                    [0, 1, 0, -1]])
        split = K_corel(field, CorelModel.GENERATORS["d"])
        rel = split.compose(imp.tensor(LinRel.symmetry(field, 0, 2)))
        assert is_lagrangian(rel) and is_lagrangian(rel.dagger())
        assert format_linrel(rel.dagger()) and repr(rel)
        box = blackbox(CORNER_CIRCUITS["shared legs"], field)
        assert is_lagrangian(box) and format_linrel(box)
        for name in ("parallel edges", "conflicting sources"):
            aff = aff_blackbox(CORNER_CIRCUITS[name], field)
            lifted = AffRel.from_linrel(imp)
            both = aff.compose(lifted).tensor(AffRel.symmetry(field, 2, 0))
            assert is_lagrangian(both) and format_linrel(both)
            assert repr(both.linear_part()) and repr(both)
            assert both.is_empty() == ("sources" in name)
    terms = [("linrel", "(seq (gen d) (par (label resistor 2) "
                        "(label capacitor 3)) (gen m))"),
             ("sigflow", "(seq (gen dup) (gen add) (scalar 2/3))"),
             ("bondgraph-f", "(par (gen 1u) (gen 0e) (gen 0j))")]
    for model, term in terms:
        assert main(["eval", "--model", model, "--term", term]) == 0
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit_to_json(ladder_circuit(3, [2, 3]))))
    assert main(["blackbox", "--circuit", str(path)]) == 0
    assert "= 0" in capsys.readouterr().out


def test_relations_compose_without_eliminate(capsys, monkeypatch):
    """Composing, tensoring and daggering relations, and the CLI commands
    that check generator images against their equations, reach no
    ``eliminate``: a composite is read off one ``rref``.  Black-boxing
    still eliminates, which shows that the refusal is in place."""
    def refuse(*_args):
        raise AssertionError("eliminate called")

    for module in (exactla, linrel):
        monkeypatch.setattr(module, "eliminate", refuse)
    for field in (QQ, QS):
        imp = LinRel.from_constraints(field, 2, 2, [[1, 0, -1, 3],
                                                    [0, 1, 0, -1]])
        split = K_corel(field, CorelModel.GENERATORS["d"])
        rel = split.compose(imp.tensor(LinRel.symmetry(field, 0, 2)),
                            LinRel.symmetry(field, 2, 2))
        assert rel.dagger().compose(rel).dom == 4 and repr(rel)
        # {phi = 1} then {phi = 2}: empty, and so is a tensor with it
        one = AffRel.from_constraints(field, 0, 2, [[1, 0, -1]])
        two = AffRel.from_constraints(field, 2, 0, [[1, 0, -2]])
        empty = one.compose(two)
        assert empty.is_empty() and format_linrel(empty) == "EMPTY"
        lifted = AffRel.from_linrel(imp)
        both = one.compose(lifted, lifted).tensor(empty, one)
        assert both.is_empty() and (both.dom, both.cod) == (0, 4)
        assert not one.compose(lifted).tensor(one).is_empty()
        with pytest.raises(AssertionError, match="eliminate called"):
            blackbox(CORNER_CIRCUITS["shared legs"], field)
    commands = [["alpha", "--field", "q", "--term",
                 "(seq (gen 1d) (gen 1j))"],
                ["laws", "bondgraph-f", "--field", "q"],
                ["laws", "finrelk", "--field", "q"],
                ["eval", "--model", "linrel", "--term",
                 "(seq (gen d) (par (label resistor 2) "
                 "(label capacitor 3)) (gen m))"],
                ["eval", "--model", "sigflow", "--term",
                 "(seq (gen dup) (gen add) (scalar 2/3))"]]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
