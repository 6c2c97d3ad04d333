import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from propnet.setprops import (BoolRel, BoolRelModel, Corelation, CorelModel,
                              Cospan, CospanModel, InterfaceMismatch, NatSpan,
                              NatSpanModel, format_corel, parse_corel,
                              support)
from propnet.term import Gen, evaluate, seq

from helpers import (PROPERTY, all_corelations, compose_oracle,
                     cospan_to_corel, rand_corelation, rand_cospan)


def test_compose_matches_oracle_exhaustive():
    # every composable pair with m, n, p <= 2
    for m in range(3):
        for n in range(3):
            for p in range(3):
                for f in all_corelations(m, n):
                    for g in all_corelations(n, p):
                        expect, _ = compose_oracle(f, g)
                        assert f.compose(g) == expect


def test_compose_matches_oracle_random():
    rng = random.Random(30)
    for _ in range(300):
        m, n, p = (rng.randint(0, 4) for _ in range(3))
        f = rand_corelation(rng, m, n)
        g = rand_corelation(rng, n, p)
        expect, _ = compose_oracle(f, g)
        assert f.compose(g) == expect


@pytest.mark.parametrize("make", [rand_corelation, rand_cospan],
                         ids=["corel", "cospan"])
@PROPERTY
@given(st.integers(0, 2 ** 32))
def test_composite_is_what_the_constructor_builds(make, seed):
    # composites and tensors skip the constructor's sort and checks; the
    # public constructor, given their blocks, builds the same relation
    rng = random.Random(seed)
    sizes = [rng.randint(0, 4) for _ in range(rng.randint(2, 5))]
    rels = [make(rng, m, n) for m, n in zip(sizes, sizes[1:])]
    for composite in (rels[0].compose(*rels[1:]),
                      rels[0].tensor(*rels[1:])):
        extras = [composite.extras] if make is rand_cospan else []
        built = type(composite)(composite.m, composite.n, composite.blocks,
                                *extras)
        assert type(composite) is type(rels[0])
        assert (built.m, built.n, built.blocks) == \
            (composite.m, composite.n, composite.blocks)
        assert built == composite and hash(built) == hash(composite)
        assert type(composite.blocks) is tuple
        assert all(type(b) is tuple for b in composite.blocks)


def test_compose_associative():
    rng = random.Random(31)
    for _ in range(150):
        m, n, p, q = (rng.randint(0, 3) for _ in range(4))
        f = rand_corelation(rng, m, n)
        g = rand_corelation(rng, n, p)
        h = rand_corelation(rng, p, q)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_identity_and_interface_checks():
    rng = random.Random(32)
    for _ in range(50):
        f = rand_corelation(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert Corelation.identity(f.m).compose(f) == f
        assert f.compose(Corelation.identity(f.n)) == f
    with pytest.raises(InterfaceMismatch):
        Corelation.identity(1).compose(Corelation.identity(2))


def test_dagger_laws():
    rng = random.Random(33)
    for make in (rand_corelation, rand_cospan):
        for _ in range(100):
            f = make(rng, rng.randint(0, 3), rng.randint(0, 3))
            g = make(rng, f.n, rng.randint(0, 3))
            assert type(f.dagger()) is type(f)
            assert f.dagger().dagger() == f
            assert f.compose(g).dagger() == g.dagger().compose(f.dagger())


def test_zigzag():
    # cup;cap style zig-zag built from the generators: d ; (id + m-dagger
    # pattern) collapses to the identity wire
    model = CorelModel()
    cup = model.gen("d")              # 1 -> 2
    cap = model.gen("m")              # 2 -> 1
    wire = cup.compose(cap)
    assert wire == Corelation.identity(1)


def test_cospan_extras_count_dropped_blocks():
    # e then i: the middle point touches no remaining terminal
    model = CospanModel()
    v = model.gen("e").compose(model.gen("i"))
    assert v.m == 1 and v.n == 1 and v.extras == 0
    closed = model.gen("i").compose(model.gen("e"))
    assert closed.m == 0 and closed.n == 0 and closed.extras == 1
    # corelations forget that floating point
    assert cospan_to_corel(closed) == Corelation(0, 0, [])


def test_cospan_to_corel_functorial():
    rng = random.Random(34)
    for _ in range(200):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        f = rand_cospan(rng, m, n)
        g = rand_cospan(rng, n, p)
        assert cospan_to_corel(f.compose(g)) == \
            cospan_to_corel(f).compose(cospan_to_corel(g))
        h = rand_cospan(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert cospan_to_corel(f.tensor(h)) == \
            cospan_to_corel(f).tensor(cospan_to_corel(h))


def test_cospan_vs_corel_on_terms():
    # H is identity-on-objects and collapses only the floating components
    corel, cospan = CorelModel(), CospanModel()
    t = seq(Gen("d"), Gen("m"))
    assert cospan_to_corel(evaluate(t, cospan)) == evaluate(t, corel)


def test_natspan_and_boolrel():
    m = NatSpanModel()
    two_paths = m.gen("d").compose(m.gen("m"))   # 1 -> 1 with two paths
    assert two_paths == NatSpan(1, 1, [[2]])
    assert support(two_paths) == BoolRel(1, 1, [[True]])
    b = BoolRelModel()
    assert b.gen("d").compose(b.gen("m")) == BoolRel.identity(1)


def test_support_functorial():
    rng = random.Random(35)

    def rand_span(m, n):
        return NatSpan(m, n, [[rng.randint(0, 2) for _ in range(m)]
                              for _ in range(n)])

    for _ in range(200):
        m, n, p = (rng.randint(0, 3) for _ in range(3))
        f, g = rand_span(m, n), rand_span(n, p)
        assert support(f.compose(g)) == support(f).compose(support(g))
        h = rand_span(rng.randint(0, 3), rng.randint(0, 3))
        assert support(f.tensor(h)) == support(f).tensor(support(h))


def test_corel_format_round_trip():
    rng = random.Random(36)
    for _ in range(100):
        c = rand_corelation(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert parse_corel(format_corel(c)) == c
    with pytest.raises(ValueError):
        parse_corel("corel 1 1 { {x1} }")


@pytest.mark.parametrize("src, message", [
    ("corel 1 1 { {x\u0661 y1} }", "bad terminal 'x\u0661'"),
    ("corel \u0661 1 { {x1 y1} }", "bad counts '\u0661' '1'"),
    ("corel -1 1 { }", "bad counts '-1' '1'"),
    ("corel 1 1 { x1 }", "terminal 'x1' outside a block"),
])
def test_parse_corel_refuses_malformed_input(src, message):
    with pytest.raises(ValueError) as exc:
        parse_corel(src)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# prop laws of the four set props, on random values

def _corelations(m, n):
    tags = [("x", i) for i in range(m)] + [("y", j) for j in range(n)]

    def build(labels):
        blocks = {}
        for el, label in zip(tags, labels):
            blocks.setdefault(label, []).append(el)
        return Corelation(m, n, list(blocks.values()))

    return st.lists(st.integers(0, max(len(tags) - 1, 0)),
                    min_size=len(tags), max_size=len(tags)).map(build)


def _cospans(m, n):
    return st.builds(lambda c, k: Cospan(m, n, c.blocks, k),
                     _corelations(m, n), st.integers(0, 2))


def _matrices(m, n, entries):
    return st.lists(st.lists(entries, min_size=m, max_size=m),
                    min_size=n, max_size=n)


def _natspans(m, n):
    return _matrices(m, n, st.integers(0, 3)).map(
        lambda mat: NatSpan(m, n, mat))


def _boolrels(m, n):
    return _matrices(m, n, st.booleans()).map(lambda mat: BoolRel(m, n, mat))


CARRIERS = {"corel": (Corelation, _corelations),
            "cospan": (Cospan, _cospans),
            "natspan": (NatSpan, _natspans),
            "boolrel": (BoolRel, _boolrels)}


@pytest.mark.parametrize("kind", sorted(CARRIERS))
@PROPERTY
@given(data=st.data())
def test_prop_laws(kind, data):
    carrier, values = CARRIERS[kind]
    m, n, p, q, a, b = data.draw(st.lists(st.integers(0, 3), min_size=6,
                                          max_size=6))
    f = data.draw(values(m, n))
    g = data.draw(values(n, p))
    h = data.draw(values(p, q))
    k = data.draw(values(p, a))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert carrier.identity(m).compose(f) == f
    assert f.compose(carrier.identity(n)) == f
    # interchange: (f + g) ; (g + k) = (f ; g) + (g ; k)
    assert f.tensor(g).compose(g.tensor(k)) == \
        f.compose(g).tensor(g.compose(k))
    assert carrier.symmetry(m, b).compose(carrier.symmetry(b, m)) == \
        carrier.identity(m + b)
    assert type(f.tensor(g)) is type(f.compose(g)) is carrier


@pytest.mark.parametrize("functor, source, target", [
    (support, _natspans, BoolRel), (cospan_to_corel, _cospans, Corelation)],
    ids=["support", "cospan_to_corel"])
@PROPERTY
@given(data=st.data())
def test_forgetful_functors(functor, source, target, data):
    m, n, p, a, b = data.draw(st.lists(st.integers(0, 3), min_size=5,
                                       max_size=5))
    f, g = data.draw(source(m, n)), data.draw(source(n, p))
    h = data.draw(source(a, b))
    assert functor(f.compose(g)) == functor(f).compose(functor(g))
    assert functor(f.tensor(h)) == functor(f).tensor(functor(h))
    assert type(functor(f)) is target
    carrier = type(f)
    assert functor(carrier.symmetry(m, a)) == target.symmetry(m, a)
    assert functor(carrier.identity(m)) == target.identity(m)


def test_cospan_never_equals_corelation():
    corel = Corelation(1, 1, [(("x", 0), ("y", 0))])
    cospan = Cospan(1, 1, corel.blocks)
    assert cospan != corel and corel != cospan
    assert not (cospan == corel or corel == cospan)
    assert cospan == Cospan(1, 1, corel.blocks, 0)
    assert cospan != Cospan(1, 1, corel.blocks, 1)
    assert cospan_to_corel(cospan) == corel
    assert len({corel, cospan}) == 2
    # the same matrix over N and over B are different morphisms
    assert NatSpan(1, 1, [[1]]) != BoolRel(1, 1, [[True]])
    assert BoolRel(1, 1, [[True]]) != NatSpan(1, 1, [[1]])


def test_matrix_entries_are_checked():
    with pytest.raises(ValueError):
        NatSpan(1, 1, [[-1]])
    with pytest.raises(ValueError):
        NatSpan(2, 1, [[1]])
    with pytest.raises(ValueError):
        BoolRel(1, 2, [[True]])
    assert BoolRel(2, 1, [[2, 0]]).matrix == ((True, False),)
