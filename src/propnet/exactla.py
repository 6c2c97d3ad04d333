"""Exact linear algebra over a scalar field, on sparse rows.

A row is a dict from column to nonzero entry, and its entries are already
field elements in their stored form (the public constructors coerce dense
raw data): a rational is an int exactly when integral, else a Fraction,
and over Q(s) a constant is such a rational, a RatFunc only when it holds
s (see ``scalar``).  A product or a sum of two Fractions can be integral,
so each one stored is brought back to that form (``scalar.stored``), and
a pivot is inverted with ``field.inv``, never with ``/``, which would
turn two ints into a float.

A subspace is stored as its reduced echelon basis: sparse rows, each with
pivot 1 at its least column, in increasing pivot order.  That form is
unique, so equal subspaces have equal rows; ``Subspace.basis`` is a dense
view, built on read.  Generator relations have entries 0 and +-1 and about
two nonzeros per vector, so a relation costs time and memory in proportion
to its nonzeros (row-wise storage, Gustavson 1978; sparse elimination,
Davis 2006, chapters 2 and 6).

A relation stores its constraint rows as such a subspace (see
``linrel``).  ``rref`` reduces to the canonical form.  A composite is one
``rref`` started past the middle v, at negative columns: an echelon basis
in a block order, reduced forward only over v, then one reduction of what
is left (Cox, Little and O'Shea, section 3.1).  Rows reduced by
construction (symmetry, tensor, composite) use ``Subspace.canonical``;
rows computed from field elements (``dagger``, and the rows ``eliminate``
leaves) use ``Subspace.span``, which reduces without coercing.
``eliminate`` projects a circuit's internal unknowns off its equations
one Markowitz pivot at a time.  ``kernel`` solves rows for a basis; only
the read-only views ``LinRel.space``, which ``AffRel`` inherits, and
``AffRel.hspace`` call it.
"""

from __future__ import annotations

import heapq

from .scalar import Field, RatFunc, stored


class DimensionMismatch(ValueError):
    pass


def rref(rows, field: Field, start: int | None = None):
    """Reduced row echelon form of sparse rows (copied, not changed).
    Returns (rows, pivot_columns), in increasing pivot order; rows that
    reduce to nothing are dropped.  With a ``start`` column, only the rows
    whose pivot is at or past it are returned, the reduced basis of the
    span's rows with no column before it, and a forward pass (``_forward``)
    sets the rest aside first; columns may be negative.

    Incremental Gauss-Jordan: each row in turn is reduced by the pivot rows
    whose columns it holds.  Those hold no other pivot column, so none
    comes back.  What is left, if anything, is scaled to 1 at its least
    column (negated when that entry is -1, with no inverse; the pivot is
    set to 1, not multiplied out), and that column is cleared from the
    earlier pivot rows, which gain only columns right of it.  The reduced
    echelon form is unique and a field value has one canonical form, so
    the rows are the dense elimination's, entry by entry.
    """
    one, minus_one = field.one, -field.one
    head = {}  # pivot column before start -> its row, never reduced
    done = {}  # pivot column -> its row
    seen = set()  # every column a pivot row has held
    for row in rows:
        row = dict(row)
        if start is not None and not _forward(row, head, start, field, one,
                                              minus_one):
            continue
        for c in [c for c in row if c in done]:
            _subtract(row, row.pop(c), done[c], c, one, minus_one)
        if not row:
            continue
        c = min(row)
        if row[c] != one:
            row = _scaled(row, c, field, one, minus_one)
        if c in seen:
            for prow in done.values():
                if c in prow:
                    _subtract(prow, prow.pop(c), row, c, one, minus_one)
        seen.update(row)
        done[c] = row
    pivots = sorted(done)
    return [done[c] for c in pivots], pivots


def _forward(row, head, start, field, one, minus_one) -> bool:
    """Reduce ``row`` in place by ``head``'s rows (pivot column before
    ``start`` -> row with pivot 1), least column first, and tell whether
    what is left lies at or past ``start``; if not, it is nothing or a new
    pivot row, scaled and never touched again.  So ``head`` is an echelon
    basis, not a reduced one, but the rows left past ``start`` still span
    the span's rows with no column before it: a combination holding rows
    of ``head`` is nonzero at their least pivot (Cox, Little and O'Shea,
    "Ideals, Varieties, and Algorithms", section 3.1)."""
    while row:
        c = min(row)
        if c >= start:
            return True
        if c not in head:
            head[c] = (row if row[c] == one
                       else _scaled(row, c, field, one, minus_one))
            return False
        _subtract(row, row.pop(c), head[c], c, one, minus_one)
    return False


def _scaled(row, c, field, one, minus_one):
    """``row`` over its entry at c, not 1, which is set to 1: negated when
    that entry is -1, with no inverse."""
    if row[c] == minus_one:
        return {j: one if j == c else -x for j, x in row.items()}
    inv = field.inv(row[c])
    return {j: one if j == c else stored(x * inv) for j, x in row.items()}


def _subtract(row, f, prow, c, one, minus_one):
    """row -= f * prow at every column of prow but c, dropping the entries
    that cancel."""
    unit = _unit(f, one, minus_one)
    for j, x in prow.items():
        if j != c:
            t = (x if unit == 1 else -x) if unit else stored(f * x)
            if j not in row:
                row[j] = -t
            elif y := row[j] - t:
                row[j] = stored(y)
            else:
                del row[j]


class Subspace:
    """Linear subspace of field^ambient with a unique canonical basis,
    stored as sparse rows."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: Field, ambient: int, vectors):
        """The span of dense vectors of length ``ambient``, whose entries
        are coerced into ``field``."""
        rows = []
        for v in vectors:
            v = [field.coerce(x) for x in v]
            if len(v) != ambient:
                raise DimensionMismatch(
                    f"row length {len(v)} differs from width {ambient}")
            rows.append({j: x for j, x in enumerate(v) if x})
        self.field = field
        self.ambient = ambient
        self.rows = rref(rows, field)[0]

    @classmethod
    def canonical(cls, field: Field, ambient: int, rows) -> "Subspace":
        """The subspace whose reduced echelon basis is ``rows``, sparse and
        in pivot order (taken as given, not checked)."""
        space = object.__new__(cls)
        space.field, space.ambient, space.rows = field, ambient, rows
        return space

    @classmethod
    def span(cls, field: Field, ambient: int, rows) -> "Subspace":
        """Span of sparse rows over ``ambient`` columns whose entries are
        already elements of ``field``: reduced, not coerced."""
        return cls.canonical(field, ambient, rref(rows, field)[0])

    @property
    def basis(self):
        """The canonical basis as dense tuples, built on each read."""
        zero, n = self.field.zero, self.ambient
        return [tuple([row.get(j, zero) for j in range(n)])
                for row in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, *(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field.name}^{self.ambient})"


def kernel(rows, field: Field, width: int) -> Subspace:
    """Canonical basis of {v in field^width : r.v = 0 for every sparse row
    r}, from one elimination; no rows give the whole space.

    The rows are reduced with column j read as width - 1 - j.  A free
    column f then gives a kernel vector that is 1 at f, minus r's entry at
    f at the pivot of each reduced row r holding f, and 0 elsewhere; back
    in natural order it has nothing left of f, because a reduced row has
    no entry left of its pivot.  Taken in increasing order of f, these
    vectors are the reduced echelon basis itself, so no second ``rref`` is
    needed.
    """
    last = width - 1
    reduced, pivots = rref([{last - j: x for j, x in r.items()}
                            for r in rows], field)
    held = {}  # free column -> (pivot column, entry) of each kernel vector
    for r, pc in zip(reduced, pivots):
        for j, x in r.items():
            if j != pc:
                held.setdefault(last - j, []).append((last - pc, -x))
    bound = {last - pc for pc in pivots}
    one = field.one
    basis = []
    for f in range(width):
        if f not in bound:
            v = {f: one}
            v.update(held.get(f, ()))
            basis.append(v)
    return Subspace.canonical(field, width, basis)


def _unit(x, one, minus_one) -> int:
    """1 or -1 when x is that field value, else 0."""
    return 1 if x == one else -1 if x == minus_one else 0


def eliminate(rows, field: Field, columns):
    """Sparse rows (dicts from column to nonzero entry) whose solutions are
    those of ``rows`` (not changed) projected off ``columns``, a circuit's
    black box: each step subtracts a pivot row from the other rows holding
    its column, then drops it and any empty row.  Pivots have the least
    Markowitz cost (row length - 1) * (column count - 1) (Tinney & Walker
    1967), then a constant entry, which slows Q(s) degree growth, then the
    lowest column and row.  A heap holds each column's best pivot, re-keyed
    when the column gains or loses a row, and other stale keys when met.
    """
    rows = [dict(r) for r in rows]
    where = {c: set() for c in columns}
    for i, row in enumerate(rows):
        for c in row.keys() & where.keys():
            where[c].add(i)

    def key(c):
        held = where[c]
        if len(held) == 1:
            (i,) = held
            x = rows[i][c]
            return (0, type(x) is RatFunc, c, i)
        n = len(held) - 1
        return min(((len(rows[i]) - 1) * n,
                    type(rows[i][c]) is RatFunc, c, i)
                   for i in held)

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
            inv = p if inv_unit else field.inv(p)
            units = None
        for i in targets:
            row = rows[i]
            f = -row.pop(c)
            g = (f if inv_unit == 1 else -f) if inv_unit else stored(f * inv)
            g_unit = _unit(g, one, minus_one)
            if g_unit:
                terms = (prow.items() if g_unit == 1
                         else [(j, -x) for j, x in prow.items()])
            else:
                if units is None:
                    units = [_unit(x, one, minus_one) for x in prow.values()]
                terms = [(j, (g if u == 1 else -g) if u else stored(g * x))
                         for (j, x), u in zip(prow.items(), units)]
            for j, t in terms:
                row[j] = stored(row[j] + t) if j in row else t
                if not row[j]:
                    del row[j]
            for j in changed:
                (where[j].add if j in row else where[j].discard)(i)
        for j in changed:
            where[j].discard(r)
            if where[j]:
                heapq.heappush(heap, key(j))
    return [row for row in rows if row]
