"""Exact linear algebra over a scalar field.

Matrices are plain lists of rows whose entries are already field elements
(the public constructors coerce); subspaces are stored in spanning form,
canonicalized so that each subspace of a given ambient space has exactly one
representation (reduced echelon basis with pivot 1 and increasing pivots).
Equality of subspaces is then structural equality of the representations.

The matrices met here come from generators with entries 0 and +-1, so most
cells are zero and most pivots are already 1.  ``rref`` stores rows densely
but computes sparsely: it skips every cell whose result is known in advance
(dividing by a unit pivot, scaling a zero, subtracting a zero multiple).
Each skipped cell already holds the value it would have been given, and a
field value has one canonical form, so the reduced basis is exactly the
dense one.  Constructors whose basis is reduced by construction (identity,
symmetry, tensor) build ``Subspace(..., _canonical=True)`` and skip ``rref``.
``Subspace(...)`` coerces every entry of raw data; results computed from
field elements (``dagger``, and the rows ``eliminate`` leaves) use
``Subspace.span``, which only reduces.  ``eliminate`` projects columns off
sparse rows one pivot at a time: a composite of relations is the span of
what is left of both bases once their middle is eliminated, and a circuit's
black box is ``eliminate`` of its internal unknowns, then ``kernel``.
"""

from __future__ import annotations

import heapq

from .scalar import Field, RatFunc


class DimensionMismatch(ValueError):
    pass


def rref(rows, field: Field):
    """Reduced row echelon form of a list of row lists (copied, not changed).

    Returns (rows, pivot_columns); zero rows are removed.

    Only arithmetic whose result is not known in advance is done.  A pivot
    row is scaled only when its pivot is not 1: negated when it is -1,
    else by one inverse times each nonzero entry.  A row is updated only
    when its entry at the pivot column is nonzero, and only at the pivot
    row's nonzero columns; those all lie at or right of the pivot column,
    because every row at or below the pivot is zero left of it.  The
    skipped cells would have been ``x / 1``, ``0 / p``, ``a - f * 0`` or
    ``a - 0 * b``, each equal to the value left in place, and the pivot
    cells are set to the 1 and 0 they would have become.  Equal field
    values have equal canonical forms, so the result is the one the dense
    elimination gives, entry by entry.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero, one, minus_one = field.zero, field.one, -field.one
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        # nonzero columns right of the pivot
        nz = [j for j in range(c + 1, ncols) if prow[j]]
        p = prow[c]
        unit = _unit(p, one, minus_one)
        if unit != 1:
            if unit == -1:
                for j in nz:
                    prow[j] = -prow[j]
            else:
                inv = one / p
                for j in nz:
                    prow[j] = prow[j] * inv
            prow[c] = one
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
                row[c] = zero
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


class Subspace:
    """Linear subspace of field^ambient with a unique canonical basis."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: Field, ambient: int, basis, _canonical=False):
        self.field = field
        self.ambient = ambient
        if _canonical:
            self.basis = [tuple(v) for v in basis]
            return
        vecs = []
        for v in basis:
            v = [field.coerce(x) for x in v]
            if len(v) != ambient:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient {ambient}")
            vecs.append(v)
        reduced, _ = rref(vecs, field)
        self.basis = [tuple(v) for v in reduced]

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """Span of vectors of length ``ambient`` whose entries are already
        elements of ``field``: reduced, not coerced."""
        return cls(field, ambient, rref(vectors, field)[0], _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        v = [self.field.coerce(x) for x in v]
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length != ambient")
        rows = [list(b) for b in self.basis] + [v]
        reduced, _ = rref(rows, self.field)
        return len(reduced) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, tuple(self.basis)))

    def annihilator(self) -> "Subspace":
        """Subspace of covectors c with c.v = 0 for every v here."""
        return kernel(self.basis, self.field, self.ambient)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field.name}^{self.ambient})"


def kernel(rows, field: Field, width: int) -> Subspace:
    """Canonical spanning basis of {v in field^width : r.v = 0 for every
    row r}, from one elimination; no rows give the whole space.

    The rows are reduced with their columns reversed.  A free column f then
    gives a kernel vector that is 1 at f, 0 at every other free column, and
    (back in natural order) 0 before f, because a reduced row has no entry
    to the left of its pivot.  Taken in increasing order of f, these vectors
    are the reduced echelon basis itself, so no second ``rref`` is needed.
    """
    if any(len(r) != width for r in rows):
        raise DimensionMismatch(f"row length differs from width {width}")
    reduced, pivots = rref([r[::-1] for r in rows], field)
    pivot_set = set(pivots)
    basis = []
    for fc in range(width - 1, -1, -1):
        if fc in pivot_set:
            continue
        v = [field.zero] * width
        v[fc] = field.one
        for r, pc in zip(reduced, pivots):
            if pc > fc:
                break
            if r[fc]:
                v[pc] = -r[fc]
        basis.append(v[::-1])
    return Subspace(field, width, basis, _canonical=True)


def _is_constant(x) -> bool:
    """Every rational is; a rational function is when both parts are."""
    return not isinstance(x, RatFunc) or x.num.degree + x.den.degree == 0


def _unit(x, one, minus_one) -> int:
    """1 or -1 when x is that field value, else 0."""
    return 1 if x == one else -1 if x == minus_one else 0


def eliminate(rows, field: Field, columns):
    """Sparse rows (dicts from column to nonzero entry) whose solutions are
    those of ``rows`` (not changed) projected off ``columns``: each step
    subtracts a pivot row from the other rows holding its column, then
    drops it and any empty row.  Pivots have the least Markowitz cost
    (row length - 1) * (column count - 1) (Tinney & Walker 1967), then a
    constant entry, then the lowest column and row.  A heap holds each
    column's best pivot, re-keyed when the column gains or loses a row;
    other stale keys are recomputed when they come up.
    """
    rows = [dict(r) for r in rows]
    where = {c: set() for c in columns}
    for i, row in enumerate(rows):
        for c in row.keys() & where.keys():
            where[c].add(i)

    def key(c):
        n = len(where[c]) - 1
        return min(((len(rows[i]) - 1) * n, not _is_constant(rows[i][c]),
                    c, i) for i in where[c])

    heap = sorted(key(c) for c in where if where[c])  # a sorted list is a heap
    one, minus_one = field.one, -field.one
    while heap:
        best = heapq.heappop(heap)
        c, r = best[2:]
        if not where.get(c):
            continue
        if (now := key(c)) != best:
            heapq.heappush(heap, now)
            continue
        prow, rows[r] = rows[r], None
        p = prow.pop(c)
        changed = [j for j in prow if j in where]
        targets = where.pop(c) - {r}
        if targets:
            # whether the pivot and each entry of its row is 1 or -1 is
            # decided once for all the rows it is subtracted from, the
            # entries' when first needed
            inv_unit = _unit(p, one, minus_one)
            inv = p if inv_unit else one / p
            units = None
        for i in targets:
            row = rows[i]
            f = -row.pop(c)
            g = (f if inv_unit == 1 else -f) if inv_unit else f * inv
            g_unit = _unit(g, one, minus_one)
            if g_unit:
                terms = (prow.items() if g_unit == 1
                         else [(j, -x) for j, x in prow.items()])
            else:
                if units is None:
                    units = [_unit(x, one, minus_one) for x in prow.values()]
                terms = [(j, (g if u == 1 else -g) if u else g * x)
                         for (j, x), u in zip(prow.items(), units)]
            for j, t in terms:
                row[j] = row[j] + t if j in row else t
                if not row[j]:
                    del row[j]
            for j in changed:
                (where[j].add if j in row else where[j].discard)(i)
        for j in changed:
            where[j].discard(r)
            if where[j]:
                heapq.heappush(heap, key(j))
    return [row for row in rows if row]
