"""Exact linear algebra over a scalar field.

Matrices are dense row-major lists; subspaces are stored in spanning form,
canonicalized so that each subspace of a given ambient space has exactly one
representation (reduced echelon basis with pivot 1 and increasing pivots).
Equality of subspaces is then structural equality of the representations.
"""

from __future__ import annotations

from .scalar import Field


class DimensionMismatch(ValueError):
    pass


class Mat:
    """Dense matrix over a Field; entries live in field.coerce's image."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = [field.coerce(x) for x in entries]
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field, n, m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        rows = [[field.one if i == j else field.zero for j in range(n)]
                for i in range(n)]
        return cls.from_rows(field, rows)

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("vector length != cols")
        v = [self.field.coerce(x) for x in v]
        out = []
        for i in range(self.rows):
            acc = self.field.zero
            r = self.row(i)
            for a, b in zip(r, v):
                acc = acc + a * b
            out.append(acc)
        return out

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        rows = []
        ocols = [[other[i, j] for i in range(other.rows)]
                 for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            out = []
            for c in ocols:
                acc = self.field.zero
                for a, b in zip(r, c):
                    acc = acc + a * b
                out.append(acc)
            rows.append(out)
        return Mat.from_rows(self.field, rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __str__(self):
        return "\n".join(" ".join(self.field.fmt(x) for x in r)
                         for r in self.row_list())

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field.name})"


def rref(rows, field: Field):
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
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
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
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Mat.identity(field, ambient).row_list())

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
        m = Mat.from_rows(self.field, self.basis) if self.basis else \
            Mat.zero(self.field, 1, self.ambient)
        return kernel(m)

    def __str__(self):
        if not self.basis:
            return "(zero subspace)"
        return "\n".join(" ".join(self.field.fmt(x) for x in v)
                         for v in self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field.name}^{self.ambient})"


def canonical_basis(field: Field, ambient: int, vectors) -> Subspace:
    return Subspace(field, ambient, vectors)


def kernel(m: Mat) -> Subspace:
    """Canonical spanning basis of {v : m.v = 0}, from one elimination.

    The rows are reduced with their columns reversed.  A free column f then
    gives a kernel vector that is 1 at f, 0 at every other free column, and
    (back in natural order) 0 before f, because a reduced row has no entry
    to the left of its pivot.  Taken in increasing order of f, these vectors
    are the reduced echelon basis itself, so no second ``rref`` is needed.
    Reversing also eliminates the trailing columns first; ``blackbox`` puts
    its internal unknowns there.
    """
    field = m.field
    n = m.cols
    reduced, pivots = rref([r[::-1] for r in m.row_list()], field)
    pivot_set = set(pivots)
    basis = []
    for fc in range(n - 1, -1, -1):
        if fc in pivot_set:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in zip(reduced, pivots):
            if pc > fc:
                break
            if r[fc] != field.zero:
                v[pc] = -r[fc]
        basis.append(v[::-1])
    return Subspace(field, n, basis, _canonical=True)


def rank(m: Mat) -> int:
    return len(rref(m.row_list(), m.field)[0])


def subspace_eq(a: Subspace, b: Subspace) -> bool:
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return a.basis == b.basis


def solve(m: Mat, rhs):
    """One solution of m.x = rhs, or None if inconsistent."""
    field = m.field
    rhs = [field.coerce(x) for x in rhs]
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length != rows")
    aug = [m.row(i) + [rhs[i]] for i in range(m.rows)]
    reduced, pivots = rref(aug, field)
    x = [field.zero] * m.cols
    for r, pc in zip(reduced, pivots):
        if pc == m.cols:
            return None
        x[pc] = r[-1]
    return x
