import random

import pytest

from propnet.circuit import CircuitModel
from propnet.exactla import Subspace
from propnet.laws import bimonoid_laws, frobenius_monoid_laws, run_suite
from propnet.linrel import (CorelToLinRelModel, LinRel, UnsupportedLabel,
                            impedance_rel)
from propnet.scalar import QQ, QS, RatFunc
from propnet.sigflow import (SIGFLOW_CONSTRAINTS, SIGFLOW_SIGNATURE,
                             SigFlowModel, box_eval,
                             square_check, translate_T)
from propnet.term import (Gen, Id, Par, Seq, arity, evaluate, format_term,
                          parse_term, seq)

from helpers import contains, from_vectors, rand_circuit_gens, rand_term

SF_GENS = ["codup", "codel", "dup", "del", "add", "coadd", "zero", "cozero",
           "scalar:2", "scalar:-1/3"]


def test_generator_relations():
    m = SigFlowModel(QQ)
    one, zero = QQ.one, QQ.zero
    assert m.gen("dup") == from_vectors(QQ, 1, 2, [[one, one, one]])
    assert contains(m.gen("add").space, [one, QQ.coerce(2), QQ.coerce(3)])
    assert not contains(m.gen("add").space, [one, one, QQ.coerce(3)])
    assert contains(m.gen("zero").space, [zero])
    assert m.gen("zero").space.dim == 0
    assert contains(m.gen("scalar:-1/3").space, [QQ.coerce(3), -one])


# the generators as spanning vectors, name -> (dom, cod, vectors)
SIGFLOW_VECTORS = {
    "codup": (2, 1, [[1, 1, 1]]), "codel": (0, 1, [[1]]),
    "dup": (1, 2, [[1, 1, 1]]), "del": (1, 0, [[1]]),
    "add": (2, 1, [[1, 0, 1], [0, 1, 1]]),
    "coadd": (1, 2, [[1, 1, 0], [1, 0, 1]]),
    "zero": (0, 1, []), "cozero": (1, 0, []),
}


@pytest.mark.parametrize("field", [QQ, QS], ids=["q", "qs"])
def test_constraint_table_matches_spanning_vectors(field):
    assert SIGFLOW_CONSTRAINTS.keys() == SIGFLOW_VECTORS.keys()
    model = SigFlowModel(field)
    for name, (dom, cod, vecs) in SIGFLOW_VECTORS.items():
        rel = model.gen(name)
        assert (rel.dom, rel.cod) == (dom, cod)
        assert rel.space.rows == \
            Subspace(field, dom + cod, vecs).rows, name
        # built once per field
        assert model.gen(name) is SigFlowModel(field).gen(name)


@pytest.mark.parametrize("field", [QQ, QS], ids=["q", "qs"])
def test_scalar_generator_spans_one_and_its_gain(field):
    # the row c x - y = 0 cuts out the span of (1, c), c = 0 included
    model = SigFlowModel(field)
    for lit in ("2", "-1/3", "0", "1"):
        c = field.parse(lit)
        assert model.gen("scalar:" + lit).space == \
            Subspace(field, 2, [[field.one, c]])
    if field is QS:
        s = field.parse("s")
        assert model.gen("scalar:1/s").space == \
            Subspace(field, 2, [[field.one, s.inv()]])


def test_scalar_composition():
    # amplifier chain multiplies gains
    t = seq(Gen("scalar:2"), Gen("scalar:3"))
    assert box_eval(t, QQ) == box_eval(Gen("scalar:6"), QQ)
    # scalar over q(s)
    ts = seq(Gen("scalar:s"), Gen("scalar:1/s"))
    assert box_eval(ts, QS) == LinRel.identity(QS, 1)


def test_zigzag_identities():
    m = SigFlowModel(QQ)
    # (dup ; codup) and (coadd ; add) are the identity wire
    for t in (seq(Gen("dup"), Gen("codup")), seq(Gen("coadd"), Gen("add"))):
        assert box_eval(t, QQ) == LinRel.identity(QQ, 1)


def test_law_groups():
    for field in (QQ, QS):
        model = SigFlowModel(field)
        laws = []
        laws += frobenius_monoid_laws("codup", "codel", "dup", "del",
                                      prefix="dup_", commutative=True)
        laws += frobenius_monoid_laws("add", "zero", "coadd", "cozero",
                                      prefix="add_", commutative=True)
        laws += bimonoid_laws("add", "zero", "dup", "del", prefix="hopf_")
        laws += bimonoid_laws("codup", "codel", "coadd", "cozero",
                              prefix="cohopf_")
        report = run_suite(model, laws)
        assert all(ok for _l, ok in report), [l for l, ok in report if not ok]


def test_translation_width_discipline():
    rng = random.Random(70)
    circ = CircuitModel()
    for _ in range(60):
        gens = rand_circuit_gens(rng)
        t = rand_term(rng, circ.signature, gens, rng.randint(0, 3))
        m, n = arity(t, circ.signature)
        tt = translate_T(t, QS)
        assert arity(tt, SIGFLOW_SIGNATURE) == (2 * m, 2 * n)
    # one-child forms, built directly, keep their forms
    m_image = translate_T(Gen("m"), QS)
    assert translate_T(Seq((Gen("m"),)), QS) == Seq((m_image,))
    assert translate_T(Par((Seq((Gen("m"),)),)), QS) == \
        Par((Seq((m_image,)),))


def test_square_on_generators():
    for src in ("(gen m)", "(gen i)", "(gen d)", "(gen e)",
                "(label wire)", "(label resistor 2)", "(label inductor 3)",
                "(label capacitor 1/2)", "(label impedance s+1)"):
        assert square_check(parse_term(src), QS)


def test_square_on_random_terms():
    rng = random.Random(71)
    circ = CircuitModel()
    for _ in range(40):
        gens = rand_circuit_gens(rng)
        t = rand_term(rng, circ.signature, gens, rng.randint(0, 3))
        assert square_check(t, QS)


def test_sources_not_translatable():
    with pytest.raises(UnsupportedLabel):
        translate_T(parse_term("(label vsource 5)"), QS)
    with pytest.raises(UnsupportedLabel):
        translate_T(parse_term("(label capacitor 2)"), QQ)


# every label kind, with literals that print with brackets and spaces
LABEL_TERMS = ["(label wire)", "(label resistor 3/2)", "(label resistor 4)",
               "(label inductor 3/2)", "(label capacitor 5/3)",
               "(label impedance 1/(s+1))",
               "(label impedance (2*s^2 - 3)/(s + 1/2))",
               "(label vsource 1/(s+1))", "(label isource -2/3)"]


@pytest.mark.parametrize("src", LABEL_TERMS)
def test_label_and_translation_read_back(src):
    t = parse_term(src)
    assert parse_term(format_term(t)) == t
    if "source" in src:
        with pytest.raises(UnsupportedLabel):
            translate_T(t, QS)
        return
    tt = translate_T(t, QS)
    assert parse_term(format_term(tt)) == tt
    assert box_eval(parse_term(format_term(tt)), QS) == box_eval(tt, QS)


def test_bracketed_impedance_literal():
    t = parse_term("(label impedance 1/(s+1))")
    assert t == Gen("label:impedance:1/(s+1)")
    z = QS.one / (QS.coerce(RatFunc.s()) + QS.one)
    assert evaluate(t, CorelToLinRelModel(QS)) == impedance_rel(QS, z)
