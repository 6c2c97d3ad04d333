import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propnet.exactla import (DimensionMismatch, Subspace, eliminate, kernel,
                             rref)
from propnet.linrel import LinRel
from propnet.scalar import QQ, QS, RatFunc

from helpers import (PROPERTY, contains, dense_rref, from_vectors, is_stored,
                     is_stored_qs, rand_fraction, rand_ratfunc, rand_rows,
                     rand_scalar,
                     rank, scalars, sparse_rows, to_dense, to_sparse,
                     to_sympy)


def test_rref_idempotent_and_pivots():
    rng = random.Random(10)
    for field in (QQ, QS):
        for _ in range(40):
            nc = rng.randint(1, 5)
            rows = rand_rows(rng, field, rng.randint(1, 4), nc)
            red, pivots = rref(to_sparse(rows), field)
            red2, pivots2 = rref(red, field)
            assert red == red2 and pivots == pivots2
            red = to_dense(red, nc, field)
            for r, c in enumerate(pivots):
                assert red[r][c] == field.one
                for r2 in range(len(red)):
                    if r2 != r:
                        assert red[r2][c] == field.zero


def test_rank_nullity():
    rng = random.Random(11)
    for field in (QQ, QS):
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 5)
            rows = rand_rows(rng, field, nr, nc)
            assert rank(rows, field) + kernel(to_sparse(rows), field,
                                              nc).dim == nc


def test_kernel_vectors_annihilate():
    rng = random.Random(12)
    for field in (QQ, QS):
        for _ in range(30):
            nc = rng.randint(1, 4)
            rows = rand_rows(rng, field, rng.randint(1, 3), nc)
            for v in kernel(to_sparse(rows), field, nc).basis:
                for row in rows:
                    dot = field.zero
                    for a, b in zip(row, v):
                        dot = dot + a * b
                    assert dot == field.zero


def test_subspace_canonical_equality():
    a = Subspace(QQ, 3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace(QQ, 3, [[1, 1, 2], [1, -1, 0]])
    assert a == b and hash(a) == hash(b)
    c = Subspace(QQ, 3, [[1, 0, 0]])
    assert a != c
    with pytest.raises(DimensionMismatch):
        a == Subspace(QQ, 2, [[1, 0]])


def test_annihilator_duality():
    rng = random.Random(13)
    for field in (QQ, QS):
        for _ in range(30):
            amb = rng.randint(1, 5)
            vecs = rand_rows(rng, field, rng.randint(0, amb), amb)
            sp = Subspace(field, amb, vecs)
            ann = kernel(sp.rows, field, amb)
            assert sp.dim + ann.dim == amb
            for v in sp.basis:
                for w in ann.basis:
                    dot = sum((x * y for x, y in zip(v, w)), field.zero)
                    assert dot == field.zero
            assert kernel(ann.rows, field, amb) == sp


def test_dimension_checks():
    one = QQ.coerce(1)
    with pytest.raises(DimensionMismatch, match="differs from width 2"):
        LinRel.from_constraints(QQ, 1, 1, [[one, one], [one]])
    with pytest.raises(DimensionMismatch):
        Subspace(QQ, 3, [[one, one]])
    with pytest.raises(DimensionMismatch):
        contains(Subspace(QQ, 2, [[one, one]]), [one])


def test_over_qs_entries():
    rng = random.Random(14)
    s = QS.parse("s")
    rows = [[s, QS.one], [s * s, s]]
    assert rank(rows, QS) == 1
    k = kernel(to_sparse(rows), QS, 2)
    assert k.dim == 1
    v = k.basis[0]
    assert s * v[0] + v[1] == QS.zero
    for _ in range(10):
        x = rand_scalar(rng, QS)
        assert QS.coerce(x) == x and is_stored_qs(x)


# ---------------------------------------------------------------------------
# kernel returns the canonical basis without a second reduction

def _rand_entry(rng, field):
    if rng.random() < 0.3:
        return field.zero
    # degree 1 over Q(s) keeps the eliminations small
    return rand_fraction(rng) if field is QQ else \
        QS.coerce(rand_ratfunc(rng, 1))


def _kernel_cases(rng, field):
    """(rows, width) covering no rows, the zero matrix, full rank, one row,
    one column and random shapes."""
    cases = [([], 3)]
    cases += [([[field.zero] * c for _ in range(r)], c) for r, c in
              ((1, 1), (1, 4), (3, 1), (3, 3))]
    for n in (1, 2, 4):
        # rows of the identity with random entries after the diagonal,
        # columns shuffled: full row rank
        perm = rng.sample(range(n + 2), n + 2)
        rows = []
        for i in range(n):
            row = [field.zero] * (n + 2)
            row[i] = field.one
            for j in range(i + 1, n + 2):
                row[j] = _rand_entry(rng, field)
            rows.append([row[p] for p in perm])
        cases.append((rows, n + 2))
    for r, c in [(1, rng.randint(1, 5)) for _ in range(5)] + \
                [(rng.randint(1, 4), 1) for _ in range(5)] + \
                [(rng.randint(1, 4), rng.randint(1, 6)) for _ in range(25)]:
        cases.append(([[_rand_entry(rng, field) for _ in range(c)]
                       for _ in range(r)], c))
    return cases


def test_kernel_basis_is_canonical():
    rng = random.Random(15)
    for field in (QQ, QS):
        for rows, c in _kernel_cases(rng, field):
            k = kernel(to_sparse(rows), field, c)
            assert Subspace(field, c, k.basis).rows == k.rows
            for v in k.basis:
                for row in rows:
                    dot = sum((a * b for a, b in zip(row, v)), field.zero)
                    assert dot == field.zero
            assert k.dim == c - rank(rows, field)


# ---------------------------------------------------------------------------
# rref skips zeros and unit pivots; the dense elimination is the oracle

over_fields = pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])


def _forms(rows):
    """Rows of exact canonical forms: (numerator, denominator) of a
    rational, coefficient tuples of a RatFunc's parts; a RatFunc must hold
    s, since a constant is stored as a rational."""
    assert all(is_stored_qs(x) for r in rows for x in r
               if type(x) is RatFunc)
    return [[(x.num.coeffs, x.den.coeffs) if isinstance(x, RatFunc)
             else (x.numerator, x.denominator) for x in r] for r in rows]


@over_fields
@PROPERTY
@given(data=st.data())
def test_rref_matches_dense_oracle(field, data):
    rows = data.draw(sparse_rows(field))
    # repeated rows, and sometimes no rows at all
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = rows[:data.draw(st.sampled_from([0, len(rows)]))]
    width = len(rows[0]) if rows else 0
    sparse = to_sparse(rows)
    before = [dict(r) for r in sparse]
    red, pivots = rref(sparse, field)
    dense_red, dense_pivots = dense_rref(rows, field)
    if field is QS:
        assert all(is_stored_qs(x) for r in red for x in r.values())
    assert pivots == dense_pivots
    assert _forms(to_dense(red, width, field)) == _forms(dense_red)
    assert all(min(r) == c and r[c] == field.one and field.zero not in
               r.values() for r, c in zip(red, pivots))
    assert sparse == before


@over_fields
@PROPERTY
@given(data=st.data())
def test_rref_is_idempotent(field, data):
    rows = data.draw(sparse_rows(field))
    red, pivots = rref(to_sparse(rows), field)
    again, pivots2 = rref(red, field)
    assert pivots2 == pivots
    assert _forms(to_dense(again, len(rows[0]), field)) == \
        _forms(to_dense(red, len(rows[0]), field))


def check_rref_from(field, case):
    """For every ``start`` from 0 to the width plus 1, ``rref`` from
    ``start`` gives the rows of the full ``rref`` whose pivot is at or past
    it, in the same canonical forms and with the same pivots; the input
    rows are not changed."""
    width, rows = case
    sparse = to_sparse([[field.coerce(x) for x in r] for r in rows])
    before = [dict(r) for r in sparse]
    full, pivots = rref(sparse, field)
    for start in range(width + 2):
        red, got = rref(sparse, field, start)
        assert got == [p for p in pivots if p >= start]
        assert _forms(to_dense(red, width, field)) == _forms(to_dense(
            [r for r, p in zip(full, pivots) if p >= start], width, field))
        assert sparse == before
    assert rref(sparse, field, 0) == (full, pivots)


def _rref_from_examples(test):
    """A row wholly before column 2; rows whose entries before column 2
    cancel; duplicate rows; no rows."""
    for case in [(4, [[2, 1, 0, 0], [0, 0, 1, 3], [0, 3, 0, 0]]),
                 (4, [[1, 2, 0, 1], [1, 2, 1, 0], [2, 4, 3, -1]]),
                 (3, [[1, -1, 2], [0, 1, 1], [1, -1, 2], [1, -1, 2]]),
                 (3, [])]:
        test = example(case)(test)
    return test


def _rows_and_width(field):
    return sparse_rows(field, max_rows=6, max_cols=7).map(
        lambda rows: (len(rows[0]), rows))


@PROPERTY
@given(_rows_and_width(QQ))
@_rref_from_examples
def test_rref_from_a_start_column_qq(case):
    check_rref_from(QQ, case)


@PROPERTY
@given(_rows_and_width(QS))
@_rref_from_examples
def test_rref_from_a_start_column_qs(case):
    check_rref_from(QS, case)


def test_sums_and_products_of_fractions_are_stored():
    """Halves and thirds that add or multiply to integers: every entry
    that rref, kernel and eliminate give over q is an int exactly when it
    is integral."""
    rng = random.Random(22)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
              Fraction(3, 2), Fraction(2, 3), Fraction(-1, 3),
              Fraction(1, 4)]
    for _ in range(2000):
        width = rng.randint(1, 4)
        rows = [{j: x for j in range(width) if (x := rng.choice(values))}
                for _ in range(rng.randint(1, 4))]
        gone = [j for j in range(width) if rng.random() < 0.5]
        for out in (rref(rows, QQ)[0], kernel(rows, QQ, width).rows,
                    eliminate(rows, QQ, gone)):
            assert all(is_stored(x) for r in out for x in r.values()), out


# ---------------------------------------------------------------------------
# one sparse form per subspace, whatever the route to it

@over_fields
@PROPERTY
@given(data=st.data())
def test_subspace_routes_agree(field, data):
    dense = data.draw(sparse_rows(field))
    width = len(dense[0])
    space = Subspace(field, width, dense)
    rows = data.draw(st.permutations(to_sparse(dense)))
    factors = data.draw(st.lists(scalars(field), min_size=len(rows),
                                 max_size=len(rows)))
    scaled = Subspace.span(field, width, [{j: x * k for j, x in r.items()}
                                          for r, k in zip(rows, factors)])
    dom = data.draw(st.integers(0, width))
    rel = from_vectors(field, dom, width - dom, space.basis)
    composed = (LinRel.identity(field, dom).compose(rel)
                .compose(LinRel.identity(field, width - dom)))
    for other in (scaled, composed.space, rel.dagger().dagger().space,
                  Subspace(field, width, space.basis)):
        assert other == space and hash(other) == hash(space)
        assert other.rows == space.rows and other.basis == space.basis
    assert all(len(v) == width for v in space.basis)


# ---------------------------------------------------------------------------
# eliminate: its rows cut out the projection of the kernel

def _kernel_of_sparse(rows, field, columns):
    """Kernel of sparse rows over the listed columns, in their order."""
    return kernel(to_sparse([[r.get(j, field.zero) for j in columns]
                             for r in rows]), field, len(columns))


@over_fields
@PROPERTY
@given(data=st.data())
def test_eliminate_projects_the_kernel(field, data):
    dense = data.draw(sparse_rows(field, max_rows=6, max_cols=7))
    width = len(dense[0])
    gone = data.draw(st.sets(st.integers(0, width - 1)))
    kept = [j for j in range(width) if j not in gone]
    rows = [{j: x for j, x in enumerate(r) if x} for r in dense]
    before = [dict(r) for r in rows]
    left = eliminate(rows, field, sorted(gone))
    assert rows == before
    assert all(row and gone.isdisjoint(row) for row in left)
    projected = Subspace(field, len(kept),
                         [[v[j] for j in kept] for v in
                          kernel(to_sparse(dense), field, width).basis])
    assert _kernel_of_sparse(left, field, kept) == projected
    shuffled = data.draw(st.permutations(rows))
    assert _kernel_of_sparse(eliminate(shuffled, field, gone), field,
                             kept) == projected


# ---------------------------------------------------------------------------
# rank and kernel against sympy, a second and independent elimination

def _check_against_sympy(field, rows, width):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    m = sympy.Matrix(len(rows), width,
                     [to_sympy(sympy, s, x) for r in rows for x in r])
    r = rank(rows, field)
    assert r == m.rank(simplify=sympy.cancel)
    k = kernel(to_sparse(rows), field, width)
    assert k.dim == width - r
    for v in k.basis:
        image = m * sympy.Matrix([to_sympy(sympy, s, x) for x in v])
        assert all(sympy.cancel(e) == 0 for e in image)


@over_fields
def test_rank_and_kernel_edge_shapes_match_sympy(field):
    zero, one = field.zero, field.one
    for rows, width in (([], 3), ([[zero, zero]], 2), ([[zero], [one]], 1),
                        ([[one, -one, zero, one]], 4),
                        ([[zero], [zero], [zero]], 1)):
        _check_against_sympy(field, rows, width)


@over_fields
@settings(PROPERTY, max_examples=60)  # sympy's Q(s) rank is slow
@given(data=st.data())
def test_rank_and_kernel_match_sympy(field, data):
    rows = data.draw(sparse_rows(field))
    _check_against_sympy(field, rows, len(rows[0]))
