import random

import pytest

from propnet.bondgraph import (BG_SIGNATURE, FModel, F_eval, GModel, G_eval,
                               alpha, bondgraph_laws, check_absorption,
                               check_naturality, discriminating_law)
from propnet.laws import run_suite
from propnet.linrel import K_corel, LinRel, is_lagrangian
from propnet.scalar import QQ
from propnet.term import Gen, Id, Sym, UnknownGenerator, model_equal, seq

from helpers import contains, rand_term

BG_GENS = ["1j", "1u", "1d", "1e", "0j", "0u", "0d", "0e"]

# generators whose corelation behavior stays inside the image of alpha;
# the two comultiplications 1d and 0d fall outside (see the absorption
# boundary test below)
ALPHA_CLOSED_GENS = ["1j", "1u", "1e", "0j", "0u", "0e"]


def test_F_generator_tables():
    m = FModel(QQ)
    one, zero = QQ.one, QQ.zero

    def member(rel, vec):
        return contains(rel.space, [QQ.coerce(x) for x in vec])

    # 1-junction: efforts add, flows agree (E1 + E2 = E3, F1 = F2 = F3)
    assert member(m.gen("1j"), [1, 2, 3, 2, 4, 2])
    assert not member(m.gen("1j"), [1, 2, 3, 2, 5, 2])
    # 0-junction: efforts agree, flows add
    assert member(m.gen("0j"), [4, 1, 4, 2, 4, 3])
    assert not member(m.gen("0j"), [4, 1, 5, 2, 4, 3])
    # units kill one coordinate each
    assert member(m.gen("1u"), [0, 7]) and not member(m.gen("1u"), [1, 0])
    assert member(m.gen("0u"), [7, 0]) and not member(m.gen("0u"), [0, 1])
    assert member(m.gen("1e"), [0, 7]) and member(m.gen("0e"), [7, 0])
    # comultiplications mirror the multiplications
    assert member(m.gen("1d"), [3, 2, 1, 2, 2, 2])
    assert member(m.gen("0d"), [4, 3, 4, 1, 4, 2])
    # an unknown name is refused as in every other model
    with pytest.raises(UnknownGenerator):
        m.gen("2j")


def test_signature_follows_the_constraint_table():
    assert BG_SIGNATURE.table == {
        "1j": (2, 1), "1u": (0, 1), "1d": (1, 2), "1e": (1, 0),
        "0j": (2, 1), "0u": (0, 1), "0d": (1, 2), "0e": (1, 0),
    }


def test_F_lagrangian():
    m = FModel(QQ)
    for name in BG_GENS:
        assert is_lagrangian(m.gen(name))


def test_G_generator_wiring():
    g = GModel()
    # 1-junction: both composites of daggered pairs; check a few shapes
    assert g.gen("1u").m == 0 and g.gen("1u").n == 2
    assert g.gen("0j").m == 4 and g.gen("0j").n == 2
    # the 0-junction merges matching terminals pairwise
    from propnet.setprops import Corelation
    assert g.gen("0u") == Corelation(0, 2, [(("y", 0),), (("y", 1),)])
    assert g.gen("0e") == Corelation(2, 0, [(("x", 0),), (("x", 1),)])


def test_alpha_shape():
    a = alpha(1)
    assert a.dom == 2 and a.cod == 4 and a.space.dim == 3
    # V = phi2 - phi1, I = I1 = -I2
    vec = [QQ.coerce(x) for x in (5, 2, 1, 2, 6, -2)]
    assert contains(a.space, vec)
    bad = [QQ.coerce(x) for x in (5, 2, 1, 2, 6, 2)]
    assert not contains(a.space, bad)
    assert alpha(3).dom == 6 and alpha(3).cod == 12


def test_alpha_left_inverse():
    for n in range(4):
        a = alpha(n)
        assert a.compose(a.dagger()) == LinRel.identity(QQ, 2 * n)


def test_naturality_on_generators():
    for name in BG_GENS:
        assert check_naturality(Gen(name))
    assert check_naturality(Sym(1, 1))
    assert check_naturality(Id(2))


def test_naturality_on_alpha_closed_terms():
    rng = random.Random(80)
    for _ in range(60):
        t = rand_term(rng, BG_SIGNATURE, ALPHA_CLOSED_GENS,
                      rng.randint(0, 3), max_width=2)
        assert check_naturality(t)


def test_absorption_boundary():
    # the alpha-image is preserved by six of the eight generators and
    # broken exactly by the two comultiplications
    for name in ALPHA_CLOSED_GENS:
        assert check_absorption(Gen(name))
    assert not check_absorption(Gen("1d"))
    assert not check_absorption(Gen("0d"))


@pytest.mark.xfail(
    strict=True,
    reason="conjugation by alpha is not natural across junction families: "
           "the corelation semantics identifies 0d;1j with 1d;0j while "
           "their effort/flow behaviors are mutually inverse non-identity "
           "scalings, so no single mediating relation can intertwine both")
def test_naturality_cross_family():
    name, lhs, _rhs = discriminating_law()
    assert check_naturality(lhs)


def test_discriminating_law():
    _name, lhs, rhs = discriminating_law()
    assert model_equal(GModel(), lhs, rhs)
    assert not model_equal(FModel(QQ), lhs, rhs)
    # the two effort/flow readings undo each other
    assert F_eval(lhs).compose(F_eval(rhs)) == LinRel.identity(QQ, 2)
    assert F_eval(rhs).compose(F_eval(lhs)) == LinRel.identity(QQ, 2)


def test_law_audit():
    laws = bondgraph_laws()
    assert laws
    assert all(ok for _l, ok in run_suite(FModel(QQ), laws))
    assert all(ok for _l, ok in run_suite(GModel(), laws))


def test_F_equals_alpha_conjugated_KG_on_generators():
    # spelled-out version of the naturality check for one generator
    t = Gen("1j")
    kg = K_corel(QQ, G_eval(t))
    lhs = alpha(2).compose(kg).compose(alpha(1).dagger())
    assert lhs == F_eval(t)
