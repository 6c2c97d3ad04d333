"""Set-based props: corelations, cospans, natural-number spans, boolean
relations, and the functors between them.

A corelation m -> n is a partition of the tagged terminal set
{x_0..x_{m-1}} + {y_0..y_{n-1}}; a cospan is a corelation that also
counts apex points touching no terminal.  Composition glues along the
shared boundary and keeps a block exactly when it reaches a remaining
terminal ("path" connectivity); a cospan turns each dropped middle-only
block into one extra apex point.  Spans and boolean relations are one
matrix prop, over the natural numbers or the booleans.
"""

from __future__ import annotations

from operator import mul

from .term import PropModel, Signature


class InterfaceMismatch(ValueError):
    pass


def _xkey(el):
    tag, i = el
    return (0 if tag == "x" else 1, i)


def _canonical_blocks(blocks):
    blocks = [tuple(sorted(b, key=_xkey)) for b in blocks]
    blocks.sort(key=lambda b: _xkey(b[0]))
    return tuple(blocks)


class _UnionFind:
    """Union-find over the integers 0 .. size - 1."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.components = size

    def find(self, x):
        """Root of x, halving the path to it on the way."""
        parent = self.parent
        while (p := parent[x]) != x:
            parent[x] = x = parent[p]  # x skips to its grandparent
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
            self.components -= 1


class Corelation:
    __slots__ = ("m", "n", "blocks")

    def __init__(self, m: int, n: int, blocks):
        self.m = m
        self.n = n
        blocks = _canonical_blocks(blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for el in b:
                tag, i = el
                limit = m if tag == "x" else n
                if tag not in ("x", "y") or not 0 <= i < limit:
                    raise ValueError(f"bad terminal {el!r}")
                if el in seen:
                    raise ValueError(f"terminal {el!r} in two blocks")
                seen.add(el)
        if len(seen) != m + n:
            raise ValueError("blocks do not cover all terminals")
        self.blocks = blocks

    @classmethod
    def identity(cls, n: int) -> "Corelation":
        return cls.symmetry(0, n)

    @classmethod
    def symmetry(cls, m: int, n: int) -> "Corelation":
        blocks = [(("x", i), ("y", n + i)) for i in range(m)]
        blocks += [(("x", m + j), ("y", j)) for j in range(n)]
        return cls(m + n, n + m, blocks)

    def dagger(self) -> "Corelation":
        return Corelation(self.n, self.m, _dagger_blocks(self))

    def tensor(self, *others: "Corelation") -> "Corelation":
        return _from_canonical(Corelation, *_tensor_blocks(self, others))

    def compose(self, *others: "Corelation") -> "Corelation":
        rels = (self, *others)
        part, _dropped = _compose_blocks(rels)
        return _from_canonical(Corelation, self.m, rels[-1].n, part)

    def __eq__(self, other):
        """Of the same type only: a cospan never equals a corelation."""
        return (type(other) is type(self) and self.m == other.m
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.m, self.n, self.blocks))

    def __repr__(self):
        return f"Corelation({format_corel(self)!r})"


def _dagger_blocks(f):
    """Blocks of f with its domain and codomain terminals swapped."""
    swap = {"x": "y", "y": "x"}
    return [tuple((swap[t], i) for t, i in b) for b in f.blocks]


def _tensor_blocks(f, others):
    """Sizes and canonical blocks of f tensored with ``others``: each
    block shifted past the terminals before it, the x-led ones first."""
    heads, tails, dx, dy = [], [], 0, 0
    for g in (f, *others):
        for b in g.blocks:
            (heads if b[0][0] == "x" else tails).append(tuple(
                [(t, i + dx) if t == "x" else (t, i + dy) for t, i in b]))
        dx, dy = dx + g.m, dy + g.n
    return dx, dy, tuple(heads + tails)


def _compose_blocks(rels):
    """Boundary partition of the composite of ``rels`` in order, already
    in canonical order, plus the count of its components that touch no
    boundary terminal.  One union-find glues every layer at once: point i
    of a layer is the integer i past the points of the layers before it,
    where layer 0 is the first relation's domain and layer j + 1 the
    codomain of relation j."""
    for f, g in zip(rels, rels[1:]):
        if f.n != g.m:
            raise InterfaceMismatch(f"cannot compose {f.n} -> with {g.m} <-")
    uf = _UnionFind(rels[0].m + sum([f.n for f in rels]))
    start = 0  # the first point of f's domain layer
    for f in rels:
        cod = start + f.m
        for b in f.blocks:
            first, *rest = [i + (start if t == "x" else cod) for t, i in b]
            for x in rest:
                uf.union(first, x)
        start = cod
    # boundary points in canonical order, so each block comes out sorted
    # and the blocks come out ordered by their first terminal
    find, blocks = uf.find, {}
    for i in range(rels[0].m):
        blocks.setdefault(find(i), []).append(("x", i))
    for j in range(rels[-1].n):
        blocks.setdefault(find(start + j), []).append(("y", j))
    return tuple(map(tuple, blocks.values())), uf.components - len(blocks)


def _from_canonical(cls, m, n, blocks):
    """A ``cls`` on valid canonical blocks, as ``_compose_blocks`` and
    ``_tensor_blocks`` return them, without ``__init__``'s sort and checks."""
    rel = object.__new__(cls)
    rel.m, rel.n, rel.blocks = m, n, blocks
    return rel


class Cospan(Corelation):
    """Iso class of a finite-set cospan: its boundary partition, as a
    corelation, plus the count of apex points touching no terminal."""

    __slots__ = ("extras",)

    def __init__(self, m, n, blocks, extras=0):
        if extras < 0:
            raise ValueError("extras must be >= 0")
        super().__init__(m, n, blocks)
        self.extras = extras

    def dagger(self) -> "Cospan":
        return Cospan(self.n, self.m, _dagger_blocks(self), self.extras)

    def tensor(self, *others: "Cospan") -> "Cospan":
        composite = _from_canonical(Cospan, *_tensor_blocks(self, others))
        composite.extras = self.extras + sum([g.extras for g in others])
        return composite

    def compose(self, *others: "Cospan") -> "Cospan":
        rels = (self, *others)
        part, dropped = _compose_blocks(rels)
        composite = _from_canonical(Cospan, self.m, rels[-1].n, part)
        composite.extras = sum(f.extras for f in rels) + dropped
        return composite

    def __eq__(self, other):
        return super().__eq__(other) and self.extras == other.extras

    def __hash__(self):
        return hash((self.m, self.n, self.blocks, self.extras))

    def __repr__(self):
        return f"Cospan({format_corel(self)!r}, extras={self.extras})"


class _MatrixProp:
    """An n x m matrix over a commutative semiring: the prop Mat(R) (Lack,
    "Composing PROPs"), composed by the matrix product and tensored by the
    block sum.  A subclass gives ``_entry``, which checks and coerces one
    entry, and ``_sum``, the semiring sum; the product is ``*``, and 0 and
    1 are the integers'."""

    __slots__ = ("m", "n", "matrix")

    def __init__(self, m, n, matrix):
        matrix = tuple(tuple(map(self._entry, row)) for row in matrix)
        if len(matrix) != n or any(len(r) != m for r in matrix):
            raise ValueError(f"matrix must be {n}x{m}")
        self.m = m
        self.n = n
        self.matrix = matrix

    @classmethod
    def identity(cls, n: int):
        return cls.symmetry(0, n)

    @classmethod
    def symmetry(cls, m: int, n: int):
        size = m + n
        mat = [[0] * size for _ in range(size)]
        for i in range(m):
            mat[n + i][i] = 1
        for j in range(n):
            mat[j][m + j] = 1
        return cls(size, size, mat)

    def tensor(self, *others):
        """The block sum, each matrix padded once to the full width."""
        m = self.m + sum([a.m for a in others])
        rows = [row + (0,) * (m - self.m) for row in self.matrix]
        left = self.m
        for a in others:
            before, after = (0,) * left, (0,) * (m - left - a.m)
            rows += [before + row + after for row in a.matrix]
            left += a.m
        return type(self)(m, self.n + sum([a.n for a in others]), rows)

    def compose(self, *others):
        """The matrix products, from the left."""
        out = self
        for other in others:
            if out.n != other.m:
                raise InterfaceMismatch(
                    f"cannot compose {out.n} -> with {other.m} <-")
            cols = list(zip(*out.matrix)) if out.n else [()] * out.m
            mat = [[out._sum(map(mul, row, col)) for col in cols]
                   for row in other.matrix]
            out = type(self)(out.m, other.n, mat)
        return out

    def __eq__(self, other):
        return (type(other) is type(self) and self.m == other.m
                and self.n == other.n and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.m, self.n, self.matrix))

    def __repr__(self):
        return f"{type(self).__name__}({self.m}->{self.n}, {self.matrix})"


def _natural(x) -> int:
    x = int(x)
    if x < 0:
        raise ValueError("entries must be natural numbers")
    return x


class NatSpan(_MatrixProp):
    """Iso class of a span of finite sets: an n x m matrix of multiplicities."""

    __slots__ = ()
    _entry = staticmethod(_natural)
    _sum = staticmethod(sum)
    # bound on each subclass itself: perfbench/tracing.py traces compose
    # class by class
    compose = _MatrixProp.compose


class BoolRel(_MatrixProp):
    """A relation between finite sets: an n x m boolean matrix."""

    __slots__ = ()
    _entry = staticmethod(bool)
    _sum = staticmethod(any)
    compose = _MatrixProp.compose


def support(s: NatSpan) -> BoolRel:
    """The functor M: a span is sent to its underlying relation."""
    return BoolRel(s.m, s.n, s.matrix)


# ---------------------------------------------------------------------------
# Prop models

WIRE_SIGNATURE = Signature({"m": (2, 1), "i": (0, 1), "d": (1, 2),
                            "e": (1, 0)})


class CorelModel(PropModel):
    signature = WIRE_SIGNATURE
    carrier = Corelation

    GENERATORS = {
        "m": Corelation(2, 1, [(("x", 0), ("x", 1), ("y", 0))]),
        "i": Corelation(0, 1, [(("y", 0),)]),
        "d": Corelation(1, 2, [(("x", 0), ("y", 0), ("y", 1))]),
        "e": Corelation(1, 0, [(("x", 0),)]),
    }


class CospanModel(PropModel):
    signature = WIRE_SIGNATURE
    carrier = Cospan

    GENERATORS = {name: Cospan(c.m, c.n, c.blocks)
                  for name, c in CorelModel.GENERATORS.items()}


class NatSpanModel(PropModel):
    signature = WIRE_SIGNATURE
    carrier = NatSpan

    GENERATORS = {
        "m": NatSpan(2, 1, [[1, 1]]),
        "i": NatSpan(0, 1, [[]]),
        "d": NatSpan(1, 2, [[1], [1]]),
        "e": NatSpan(1, 0, []),
    }


class BoolRelModel(PropModel):
    signature = WIRE_SIGNATURE
    carrier = BoolRel

    GENERATORS = {name: support(s)
                  for name, s in NatSpanModel.GENERATORS.items()}


# ---------------------------------------------------------------------------
# Textual corelation format: corel m n { {x1 x2 y1} {y2} }

def format_corel(c: Corelation) -> str:
    def fmt_el(el):
        tag, i = el
        return f"{tag}{i + 1}"

    inner = " ".join("{" + " ".join(fmt_el(e) for e in b) + "}"
                     for b in c.blocks)
    return f"corel {c.m} {c.n} {{ {inner} }}".replace("{  }", "{ }")


def _is_number(tok: str) -> bool:
    """A count or terminal index is written in ASCII digits only."""
    return tok.isascii() and tok.isdigit()


def parse_corel(src: str) -> Corelation:
    tokens = src.replace("{", " { ").replace("}", " } ").split()
    if len(tokens) < 5 or tokens[0] != "corel":
        raise ValueError("expected: corel m n { ... }")
    if not (_is_number(tokens[1]) and _is_number(tokens[2])):
        raise ValueError(f"bad counts {tokens[1]!r} {tokens[2]!r}")
    m, n = int(tokens[1]), int(tokens[2])
    if tokens[3] != "{" or tokens[-1] != "}":
        raise ValueError("expected braces around block list")
    blocks = []
    cur = None
    for tok in tokens[4:-1]:
        if tok == "{":
            if cur is not None:
                raise ValueError("nested block")
            cur = []
        elif tok == "}":
            if cur is None:
                raise ValueError("unbalanced '}'")
            blocks.append(cur)
            cur = None
        else:
            tag, idx = tok[0], tok[1:]
            if tag not in "xy" or not _is_number(idx):
                raise ValueError(f"bad terminal {tok!r}")
            if cur is None:
                raise ValueError(f"terminal {tok!r} outside a block")
            cur.append((tag, int(idx) - 1))
    if cur is not None:
        raise ValueError("unbalanced '{'")
    return Corelation(m, n, blocks)
