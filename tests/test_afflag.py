import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from propnet.afflag import (AffRel, aff_blackbox, format_affrel,
                            is_aff_lagrangian, isource_rel, vsource_rel)
from propnet.circuit import (CIRCUIT_SIGNATURE, CircuitModel, LCircuit,
                             LGraph, parse_label)
from propnet.linrel import LinRel, blackbox, impedance_rel, label_rows
from propnet.exactla import Subspace, kernel, rref
from propnet.scalar import QQ, QS
from propnet.term import evaluate, parse_term

from helpers import (PROPERTY, AffineCircuitModel, aff_contains,
                     composable_rows, rand_circuit, rand_circuit_gens,
                     rand_corelation, rand_term, rank, scalars,
                     stacked_composite, to_sparse, witness)
from propnet.linrel import K_corel

SOURCE_KINDS = ("wire", "resistor", "inductor", "capacitor", "vsource",
                "isource")


def test_from_linrel_round_trip():
    rng = random.Random(60)
    for _ in range(40):
        c = rand_corelation(rng, rng.randint(0, 2), rng.randint(0, 2))
        rel = K_corel(QQ, c)
        aff = AffRel.from_linrel(rel)
        assert not aff.is_empty()
        assert aff.linear_part() == rel
        assert aff_contains(aff, [QQ.zero] * (rel.dom + rel.cod))


def test_embedding_functorial():
    rng = random.Random(61)
    for _ in range(40):
        m, n, p = (rng.randint(0, 2) for _ in range(3))
        f = K_corel(QQ, rand_corelation(rng, m, n))
        g = K_corel(QQ, rand_corelation(rng, n, p))
        assert AffRel.from_linrel(f).compose(AffRel.from_linrel(g)) == \
            AffRel.from_linrel(f.compose(g))
        h = K_corel(QQ, rand_corelation(rng, rng.randint(0, 2),
                                        rng.randint(0, 2)))
        assert AffRel.from_linrel(f).tensor(AffRel.from_linrel(h)) == \
            AffRel.from_linrel(f.tensor(h))


def test_translate_formula():
    # every nonempty affine relation is witness + linear part
    rng = random.Random(62)
    checked = 0
    for _ in range(200):
        c = rand_circuit(rng, max_nodes=4, max_edges=5, kinds=SOURCE_KINDS)
        aff = aff_blackbox(c, QS)
        if aff.is_empty():
            continue
        w = witness(aff)
        assert aff_contains(aff, w)
        lin = aff.linear_part()
        for v in lin.space.basis:
            assert aff_contains(aff, [a + b for a, b in zip(w, v)])
        assert aff.hspace.dim == lin.space.dim + 1
        checked += 1
    assert checked > 50


def test_battery_resistor():
    # 2V source in series with a 3 ohm resistor
    v = LCircuit.single_edge(parse_label("vsource", "2"))
    r = LCircuit.single_edge(parse_label("resistor", "3"))
    circ = v.compose(r)
    aff = aff_blackbox(circ, QS)
    # phi_out - phi_in = 2 + 3 I, current passes through
    two, three = QS.coerce(2), QS.coerce(3)
    assert aff_contains(aff, [QS.zero, QS.zero, two, QS.zero])
    assert aff_contains(aff, [QS.zero, QS.one, two + three, QS.one])
    assert not aff_contains(aff, [QS.zero, QS.one, two, QS.one])
    assert aff.linear_part() == impedance_rel(QS, three)


def test_current_source():
    i = LCircuit.single_edge(parse_label("isource", "5"))
    aff = aff_blackbox(i, QS)
    five = QS.coerce(5)
    assert aff_contains(aff, [QS.zero, five, QS.coerce(7), five])
    assert not aff_contains(aff, [QS.zero, QS.one, QS.zero, QS.one])
    assert aff == isource_rel(QS, 5)


def test_empty_relation():
    # conflicting current sources in series
    a = isource_rel(QQ, 1)
    b = isource_rel(QQ, 2)
    conflict = a.compose(b)
    assert conflict.is_empty()
    assert witness(conflict) is None
    assert format_affrel(conflict) == "EMPTY"
    # empty relations of one type are all equal
    assert conflict == isource_rel(QQ, 3).compose(isource_rel(QQ, 4))
    assert is_aff_lagrangian(conflict)


def test_source_free_matches_blackbox():
    rng = random.Random(63)
    for _ in range(40):
        c = rand_circuit(rng, max_nodes=4, max_edges=5)
        assert aff_blackbox(c, QS) == AffRel.from_linrel(blackbox(c, QS))


def test_aff_lagrangian_random():
    rng = random.Random(64)
    for _ in range(60):
        c = rand_circuit(rng, max_nodes=4, max_edges=5, kinds=SOURCE_KINDS)
        assert is_aff_lagrangian(aff_blackbox(c, QS))


def test_vsource_rel_table():
    v = vsource_rel(QQ, Fraction(3, 2))
    half3 = QQ.coerce(Fraction(3, 2))
    assert aff_contains(v, [QQ.zero, QQ.one, half3, QQ.one])
    assert not aff_contains(v, [QQ.zero, QQ.one, half3, QQ.coerce(2)])


def check_compose_against_stacking(field, case):
    dom, mid, cod, frows, grows = case
    f = AffRel.from_constraints(field, dom, mid, frows)
    g = AffRel.from_constraints(field, mid, cod, grows)
    got = f.compose(g)
    assert (got.dom, got.cod) == (dom, cod)
    assert got.hspace == stacked_composite(field, dom, mid, cod, frows,
                                           grows, h=1)
    # the rows are stored unchecked: they must be reduced and over (u, w, h)
    rows = got.constraints.rows
    assert rref(rows, field)[0] == rows
    assert all(max(r) < dom + cod + 1 for r in rows)


# g = {w1 + w2 = 1}: lifted by a copy of h after its (empty) domain, its
# basis vectors (1, 0, 1) and (0, 1, 1) both start at the copy, so the
# lifted basis is not reduced
_ONE_SUM = (1, 0, 2, [[QQ.one, -QQ.one]], [[QQ.one, QQ.one, -QQ.one]])


# {v = 1} then {v = 2}: an empty composite of two nonempty relations
_DISJOINT = (0, 1, 0, [[QQ.one, -QQ.one]], [[QQ.one, -QQ.coerce(2)]])
# {u = 1} then {w = -2}: a middle of width 0
_NO_MIDDLE = (1, 0, 1, [[QQ.one, -QQ.one]], [[QQ.one, QQ.coerce(2)]])


@PROPERTY
@given(composable_rows(QQ, h=1))
@example(_ONE_SUM)
@example(_DISJOINT)
@example(_NO_MIDDLE)
def test_compose_matches_stacked_kernel_qq(case):
    check_compose_against_stacking(QQ, case)


@PROPERTY
@given(composable_rows(QS, h=1))
def test_compose_matches_stacked_kernel_qs(case):
    check_compose_against_stacking(QS, case)


@st.composite
def relation_rows(draw, field):
    """Interface sizes and constraint rows over (u, w, h), sometimes rows
    that force h = 0 and so an empty relation."""
    dom, cod = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(field.zero), st.just(field.zero),
                      st.just(field.one), st.just(-field.one),
                      scalars(field))
    width = dom + cod + 1
    rows = [[draw(entry) for _ in range(width)]
            for _ in range(draw(st.integers(0, width)))]
    if draw(st.booleans()):
        rows.append([field.zero] * (width - 1) + [draw(scalars(field))])
    return dom, cod, rows


def check_tensor_against_stacking(field, fcase, gcase):
    """f (x) g by a second route: the kernel of f's rows placed on
    (u1, w1, h) and g's on (u2, w2, h), in the (u1, u2, w1, w2, h)
    layout."""
    (d1, c1, frows), (d2, c2, grows) = fcase, gcase
    zero = field.zero
    rows = [r[:d1] + [zero] * d2 + r[d1:-1] + [zero] * c2 + r[-1:]
            for r in frows]
    rows += [[zero] * d1 + r[:d2] + [zero] * c1 + r[d2:] for r in grows]
    got = AffRel.from_constraints(field, d1, c1, frows).tensor(
        AffRel.from_constraints(field, d2, c2, grows))
    assert (got.dom, got.cod) == (d1 + d2, c1 + c2)
    assert got.hspace == kernel(to_sparse(rows), field,
                                d1 + d2 + c1 + c2 + 1)
    # the merged rows are the reduced echelon rows of both row sets
    assert got.constraints.rows == \
        Subspace(field, d1 + d2 + c1 + c2 + 1, rows).rows


def check_linear_part_drops_h(field, case):
    """The h = 0 slice is cut out by the same rows without their h
    column, whether or not the relation is empty."""
    dom, cod, rows = case
    f = AffRel.from_constraints(field, dom, cod, rows)
    assert f.linear_part() == LinRel.from_constraints(
        field, dom, cod, [r[:-1] for r in rows])


# {h = 0}: the empty relation 1 -> 1
_EMPTY = (1, 1, [[QQ.zero, QQ.zero, QQ.one]])


@PROPERTY
@given(relation_rows(QQ), relation_rows(QQ))
@example(_EMPTY, (0, 2, []))
@example((2, 0, []), _EMPTY)
def test_tensor_matches_stacked_kernel_qq(fcase, gcase):
    check_tensor_against_stacking(QQ, fcase, gcase)


@PROPERTY
@given(relation_rows(QS), relation_rows(QS))
def test_tensor_matches_stacked_kernel_qs(fcase, gcase):
    check_tensor_against_stacking(QS, fcase, gcase)


@st.composite
def affine_chains(draw, field, length=3):
    """Affine relations n_0 -> n_1 -> ... -> n_length, any of them
    sometimes forced empty by a row h = 0."""
    sizes = [draw(st.integers(0, 2)) for _ in range(length + 1)]
    entry = st.one_of(st.just(field.zero), st.just(field.one),
                      st.just(-field.one), scalars(field))
    rels = []
    for dom, cod in zip(sizes, sizes[1:]):
        width = dom + cod + 1
        rows = [[draw(entry) for _ in range(width)]
                for _ in range(draw(st.integers(0, width)))]
        if draw(st.integers(0, 3)) == 0:
            rows.append([field.zero] * (width - 1) + [field.one])
        rels.append(AffRel.from_constraints(field, dom, cod, rows))
    return rels


def check_nary_against_binary_fold(field, chain, factors):
    """``compose`` and ``tensor`` of any number of further values store the
    rows of the binary fold from the left, an empty factor included."""
    factors = [AffRel.from_constraints(field, *case) for case in factors]
    empty = AffRel.from_constraints(field, *_EMPTY)
    for op, rels in [(AffRel.compose, chain), (AffRel.tensor, factors),
                     (AffRel.tensor, [factors[0], empty, *factors[1:]])]:
        first, *rest = rels
        got = op(first, *rest)
        folded = functools.reduce(op, rest, first)
        assert (got.dom, got.cod) == (folded.dom, folded.cod)
        assert got.constraints.rows == folded.constraints.rows
        assert op(first).constraints.rows == first.constraints.rows


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
@PROPERTY
@given(data=st.data())
def test_nary_compose_and_tensor_match_binary_fold(field, data):
    check_nary_against_binary_fold(
        field, data.draw(affine_chains(field)),
        [data.draw(relation_rows(field)) for _ in range(3)])


@PROPERTY
@given(relation_rows(QQ))
@example(_EMPTY)
def test_linear_part_drops_h_qq(case):
    check_linear_part_drops_h(QQ, case)


@PROPERTY
@given(relation_rows(QS))
def test_linear_part_drops_h_qs(case):
    check_linear_part_drops_h(QS, case)


def check_empty_exactly_when_h_raises_rank(field, case):
    """A relation is empty exactly when its rows force h = 0, that is
    when dropping the h column lowers their rank."""
    dom, cod, rows = case
    f = AffRel.from_constraints(field, dom, cod, rows)
    assert f.is_empty() == \
        (rank(rows, field) > rank([r[:-1] for r in rows], field))


# a current source: its last canonical row, I_out = I, holds h off its
# pivot, and the relation is not empty
_ISOURCE = (2, 2, label_rows(QQ, "isource", 1))


@PROPERTY
@given(relation_rows(QQ))
@example(_EMPTY)
@example(_ISOURCE)
def test_empty_exactly_when_h_raises_rank_qq(case):
    check_empty_exactly_when_h_raises_rank(QQ, case)


@PROPERTY
@given(relation_rows(QS))
def test_empty_exactly_when_h_raises_rank_qs(case):
    check_empty_exactly_when_h_raises_rank(QS, case)


@st.composite
def circuit_terms(draw, field):
    """Random circuit terms, sources included, whose labels ``field`` can
    read."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gens = rand_circuit_gens(rng, with_sources=True)
    if field is QQ:
        gens = [g for g in gens
                if not g.startswith(("label:inductor", "label:capacitor"))]
    return rand_term(rng, CIRCUIT_SIGNATURE, gens, rng.randint(0, 3))


def check_blackbox_matches_affine_model(field, t):
    """Graph elimination of the circuit against compositional evaluation
    of its term in affine relations."""
    circuit = evaluate(t, CircuitModel())
    assert aff_blackbox(circuit, field) == \
        evaluate(t, AffineCircuitModel(field))


# conflicting current sources in series: the empty relation
_CONFLICT = parse_term("(seq (label isource 1) (label isource 2))")


@PROPERTY
@given(circuit_terms(QQ))
@example(_CONFLICT)
def test_blackbox_matches_affine_model_qq(t):
    check_blackbox_matches_affine_model(QQ, t)


@PROPERTY
@given(circuit_terms(QS))
@example(_CONFLICT)
def test_blackbox_matches_affine_model_qs(t):
    check_blackbox_matches_affine_model(QS, t)
