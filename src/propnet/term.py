"""Free symmetric monoidal syntax over a signature, plus generic evaluation.

Terms are immutable trees.  ``Seq`` and ``Par`` hold the children of one
``(seq ...)`` or ``(par ...)`` form, as composition and tensor are strictly
associative; a ``Seq`` is in diagrammatic order: its first term happens
first.  A model supplies the meaning of generators, identities,
symmetries and the two compositions; ``evaluate`` is then the unique strict
symmetric monoidal extension.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class UnknownGenerator(KeyError):
    pass


class ArityMismatch(ValueError):
    pass


class TermParseError(ValueError):
    pass


class PropTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Gen(PropTerm):
    name: str


@dataclass(frozen=True)
class Id(PropTerm):
    n: int


@dataclass(frozen=True)
class Sym(PropTerm):
    m: int
    n: int


class _Form(PropTerm):
    """A ``Seq`` or ``Par``, compared pairwise and hashed by its printed
    form, both over an explicit stack: forms may nest thousands deep."""
    __slots__ = ()

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            s, t = pairs.pop()
            if isinstance(s, _Form) and type(s) is type(t) \
                    and len(s.terms) == len(t.terms):
                pairs += zip(s.terms, t.terms)
            elif isinstance(s, _Form) or s != t:
                return False
        return True

    def __post_init__(self):
        if not self.terms:
            raise ValueError(f"{self.head} needs at least one term")

    def __hash__(self):
        return hash(format_term(self))

    def __repr__(self):
        """The dataclass ``repr``, over ``fold``'s explicit stack."""
        def close(form, parts):
            tail = "," if len(parts) == 1 else ""
            return f"{type(form).__name__}(terms=({', '.join(parts)}{tail}))"
        return fold(self, "Gen(name={!r})".format, "Id(n={!r})".format,
                    "Sym(m={!r}, n={!r})".format, gather, gather, close)


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Form):
    """One or more terms composed in order; build it with ``seq``."""
    terms: tuple[PropTerm, ...]
    head = "seq"


@dataclass(frozen=True, eq=False, repr=False)
class Par(_Form):
    """One or more terms side by side, top first; build it with ``par``."""
    terms: tuple[PropTerm, ...]
    head = "par"


def seq(*terms: PropTerm) -> PropTerm:
    if not terms:
        raise ValueError("seq needs at least one term")
    return Seq(terms) if len(terms) > 1 else terms[0]


def par(*terms: PropTerm) -> PropTerm:
    if len(terms) < 2:
        return terms[0] if terms else Id(0)
    return Par(terms)


class Signature:
    """Generator name -> (dom, cod) arity table.

    ``resolver`` may supply arities for structured names (label/scalar
    sugar) not listed up front; it returns an arity pair or None.
    """

    def __init__(self, table, resolver=None):
        self.table = dict(table)
        self.resolver = resolver

    def arity_of(self, name):
        if name in self.table:
            return self.table[name]
        if self.resolver is not None:
            got = self.resolver(name)
            if got is not None:
                return got
        raise UnknownGenerator(name)


# The widest interface a term may have, in objects.  Values grow with the
# width squared: the identity on 1,000 objects is a 4,000-wire relation.
MAX_WIDTH = 1000


def _bounded(n: int) -> int:
    if n > MAX_WIDTH:
        raise ValueError(f"interface of {n} objects exceeds the limit "
                         f"of {MAX_WIDTH}")
    return n


def fold(t: PropTerm, gen, ident, sym, seq, par, close=None):
    """The value of ``t``, over an explicit stack: nesting costs no Python
    stack.  Leaves take ``gen(name)``, ``ident(n)`` and ``sym(m, n)``.  A
    ``Seq`` folds each child in from the left once it is done, by
    ``seq(acc, value, k)`` for child k = 2, 3, ..., so the first fault met
    from the left is raised; a ``Par`` likewise with ``par``.  Given
    ``gather`` for both, a form's value is ``close(form, values)`` of the
    list of all its children's values, as in ``evaluate``.  An
    ``ArityMismatch`` gets "in term k of a seq: " for each form around
    where it arose, outermost first; past 8 forms, for the outermost and
    innermost 4 only."""
    stack, node = [], t  # stack: [form, its fold, k, acc] per open form
    try:
        while True:
            kind = type(node)
            if kind is Gen:
                value = gen(node.name)
            elif kind is Id:
                value = ident(node.n)
            elif kind is Sym:
                value = sym(node.m, node.n)
            elif kind is Seq or kind is Par:
                stack.append([node, seq if kind is Seq else par, 1, None])
                node = node.terms[0]
                continue
            else:
                raise TypeError(f"not a term: {node!r}")
            while stack:
                # off the stack while it folds: a mismatch it raises is
                # placed by the forms around it
                frame = stack.pop()
                form, op, k, acc = frame
                if k > 1:
                    value = op(acc, value, k)
                if k < len(form.terms):
                    frame[2:] = k + 1, value
                    stack.append(frame)
                    node = form.terms[k]
                    break
                if close is not None:
                    value = close(form, value if k > 1 else [value])
            else:
                return value
    except ArityMismatch as e:
        where = [f"in term {k} of a {form.head}: "
                 for form, _op, k, _acc in stack]
        if len(where) > 8:
            where[4:-4] = [f"… {len(where) - 8} more forms … "]
        raise ArityMismatch("".join(where) + str(e)) from None


def _seq_arity(acc, value, k):
    (dom, cod), (d, c) = acc, value
    if d != cod:
        raise ArityMismatch(f"cannot compose: term {k - 1} of a seq has "
                            f"codomain {cod}, term {k} has domain {d}")
    return (dom, c)


def arity(t: PropTerm, sig: Signature):
    """(dom, cod) of a term, checking interfaces and ``MAX_WIDTH``."""
    return fold(t, sig.arity_of, lambda n: (_bounded(n), n),
                lambda m, n: (_bounded(m + n), n + m), _seq_arity,
                lambda a, b, _k: (_bounded(a[0] + b[0]),
                                  _bounded(a[1] + b[1])))


def gather(acc, value, k):
    """A ``fold`` step that collects a form's child values in a list."""
    if k == 2:
        return [acc, value]
    acc.append(value)
    return acc


class PropModel:
    """A semantic model.  Subclasses give ``signature`` and the values of
    generators, in ``GENERATORS`` or by overriding ``gen``; a value's
    ``compose`` and ``tensor`` take any number of further values, so a
    form's children combine in one call, and values compare with ``==``;
    symmetries come from ``carrier`` on ``width`` wires per object (e.g. 2
    when a port carries a potential/current pair), and the identity on n
    is the symmetry on 0 and n.
    """

    signature: Signature
    GENERATORS: dict = {}
    carrier = None
    width: int = 1

    def gen(self, name):
        try:
            return self.GENERATORS[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def identity(self, n):
        return self.symmetry(0, n)

    def symmetry(self, m, n):
        return self.carrier.symmetry(self.width * m, self.width * n)

    def seq(self, first, *rest):
        """The composite of a ``(seq ...)`` form's values, in order."""
        return first.compose(*rest)

    def par(self, first, *rest):
        """The tensor of a ``(par ...)`` form's values, top first."""
        return first.tensor(*rest)

    def eq(self, a, b) -> bool:
        return a == b


def evaluate(t: PropTerm, model: PropModel):
    """The value of ``t`` in ``model``, once ``arity`` has checked it.
    Each form hands all its children's values, in order, to one call of
    ``model.seq`` or ``model.par``."""
    arity(t, model.signature)
    return fold(t, model.gen, model.identity, model.symmetry, gather, gather,
                lambda form, values: (model.seq if type(form) is Seq
                                      else model.par)(*values))


def model_equal(model: PropModel, s: PropTerm, t: PropTerm) -> bool:
    return model.eq(evaluate(s, model), evaluate(t, model))


# ---------------------------------------------------------------------------
# S-expression grammar:
#   (gen NAME) (id N) (sym M N) (seq T1 T2 ...) (par T1 T2 ...)
#   (label KIND LIT?) and (scalar LIT) are generator sugar; they parse to
#   Gen nodes with structured names "label:kind:lit" / "scalar:lit".  A
#   literal is a balanced run of tokens, so it may hold brackets.

# a bracket, or a run of characters that are neither brackets nor space
# (``\s`` in a str pattern matches exactly where ``str.isspace`` is true)
_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_term(src: str) -> PropTerm:
    """One pass over the tokens; each open ``(seq ...)`` or ``(par ...)``
    form waits on a list with its children read so far."""
    tokens = _TOKEN.findall(src)
    starts = []

    def at(k):  # where token k starts, worked out when first needed
        if not starts:
            starts.extend(m.start() for m in _TOKEN.finditer(src))
        return starts[k]

    def need(k, what):
        if k < len(tokens):
            return tokens[k]
        raise TermParseError(f"unexpected end of input, expected {what}")

    def nat(tok, k):
        if tok.isascii() and tok.isdigit():
            return int(tok)
        raise TermParseError(f"expected a natural number near position "
                             f"{at(k)}")

    forms, gens, i = [], {}, 0  # forms: (seq or par, head's index, children)
    while True:
        tok = need(i, "term or ')'" if forms else "'('")
        if tok == ")" and forms:
            build, h, children = forms.pop()
            if not children:
                raise TermParseError(f"empty ({tokens[h]} ...) at position "
                                     f"{at(h)}")
            term = build(*children)
        elif tok != "(":
            raise TermParseError(f"expected '(' at position {at(i)}")
        else:
            head = need(i + 1, "form head")
            i += 2
            if head == "seq" or head == "par":
                forms.append((seq if head == "seq" else par, i - 1, []))
                continue
            if head == "gen":
                # one node per name, as terms are immutable
                name = need(i, "generator name")
                term = gens.get(name) or gens.setdefault(name, Gen(name))
                i += 1
            elif head == "id" or head == "sym":
                end = i + (1 if head == "id" else 2)
                counts = [need(j, "object count") for j in range(i, end)]
                term = (Id if head == "id" else Sym)(
                    *[nat(c, i - 1) for c in counts])
                i = end
            elif head == "label" or head == "scalar":
                j, depth = i, 0  # the literal: a balanced run of tokens
                while (tok := need(j, f"{head} literal or ')'")) != ")" \
                        or depth:
                    depth += (tok == "(") - (tok == ")")
                    j += 1
                if j == i:
                    raise TermParseError(f"empty {head} at position "
                                         f"{at(i - 1)}")
                # tokens written apart read as one space, none as none;
                # only a bracket can touch another token
                words = tokens[i:j]
                if "(" in words or ")" in words:
                    words = src[at(i):at(j)].split()
                lit = " ".join(words)
                # a label's kind is the first word of its literal
                term = Gen(f"{head}:" + (lit.replace(" ", ":", 1)
                                         if head == "label" else lit))
                i = j
            else:
                raise TermParseError(f"unknown form {head!r} at position "
                                     f"{at(i - 1)}")
            if need(i, "')'") != ")":
                raise TermParseError(f"expected ')' at position {at(i)}")
        i += 1
        if not forms:
            if i != len(tokens):
                raise TermParseError(f"trailing input at token {i}")
            return term
        forms[-1][2].append(term)


def _format_gen(name: str) -> str:
    if name.startswith("label:"):
        return "(label " + " ".join(name.split(":")[1:]) + ")"
    if name.startswith("scalar:"):
        return f"(scalar {name.split(':', 1)[1]})"
    return f"(gen {name})"


def format_term(t: PropTerm) -> str:
    return fold(t, _format_gen, "(id {})".format, "(sym {} {})".format,
                gather, gather,
                lambda form, parts: f"({form.head} {' '.join(parts)})")
