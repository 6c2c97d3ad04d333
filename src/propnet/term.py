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


@dataclass(frozen=True)
class Seq(PropTerm):
    """Two or more terms composed in order; build it with ``seq``."""
    terms: tuple[PropTerm, ...]


@dataclass(frozen=True)
class Par(PropTerm):
    """Two or more terms side by side, top first; build it with ``par``."""
    terms: tuple[PropTerm, ...]


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


def arity(t: PropTerm, sig: Signature):
    """(dom, cod) of a term, checking interfaces and ``MAX_WIDTH``."""
    if isinstance(t, Gen):
        return sig.arity_of(t.name)
    if isinstance(t, Id):
        return (_bounded(t.n), t.n)
    if isinstance(t, Sym):
        return (_bounded(t.m + t.n), t.n + t.m)
    if isinstance(t, (Seq, Par)):
        head = "seq" if isinstance(t, Seq) else "par"
        dom = cod = 0
        for k, s in enumerate(t.terms, 1):
            try:
                d, c = arity(s, sig)
            except ArityMismatch as e:
                raise ArityMismatch(f"in term {k} of a {head}: {e}") from None
            if head == "par":
                dom, cod = _bounded(dom + d), _bounded(cod + c)
            elif k > 1 and d != cod:
                raise ArityMismatch(f"cannot compose: term {k - 1} of a seq "
                                    f"has codomain {cod}, term {k} has "
                                    f"domain {d}")
            else:
                dom, cod = (d if k == 1 else dom), c
        return (dom, cod)
    raise TypeError(f"not a term: {t!r}")


class PropModel:
    """A semantic model.  Subclasses give ``signature`` and the values of
    generators, in ``GENERATORS`` or by overriding ``gen``; values compose
    with ``compose`` and ``tensor`` and compare with ``==``, symmetries
    come from ``carrier`` on ``width`` wires per object (e.g. 2 when a
    port carries a potential/current pair), and the identity on n is the
    symmetry on 0 and n.
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

    def seq(self, a, b):
        return a.compose(b)

    def par(self, a, b):
        return a.tensor(b)

    def eq(self, a, b) -> bool:
        return a == b


def evaluate(t: PropTerm, model: PropModel):
    arity(t, model.signature)
    return _eval(t, model)


def _eval(t, model):
    if isinstance(t, Gen):
        return model.gen(t.name)
    if isinstance(t, Id):
        return model.identity(t.n)
    if isinstance(t, Sym):
        return model.symmetry(t.m, t.n)
    if isinstance(t, (Seq, Par)):
        # a left fold as a plain loop, one stack frame per nesting level
        op = model.seq if isinstance(t, Seq) else model.par
        value = _eval(t.terms[0], model)
        for s in t.terms[1:]:
            value = op(value, _eval(s, model))
        return value
    raise TypeError(f"not a term: {t!r}")


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


def _tokenize(src: str):
    return [(m.group(), m.start()) for m in _TOKEN.finditer(src)]


def parse_term(src: str) -> PropTerm:
    tokens = _tokenize(src)
    term, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise TermParseError(f"trailing input at token {pos}")
    return term


def _expect(tokens, pos, what):
    if pos >= len(tokens):
        raise TermParseError(f"unexpected end of input, expected {what}")
    return tokens[pos]


def _parse_sexpr(tokens, pos):
    tok, at = _expect(tokens, pos, "'('")
    if tok != "(":
        raise TermParseError(f"expected '(' at position {at}")
    head, at = _expect(tokens, pos + 1, "form head")
    pos += 2
    if head == "gen":
        name, _ = _expect(tokens, pos, "generator name")
        pos += 1
        term = Gen(name)
    elif head in ("label", "scalar"):
        lit, pos = _literal(tokens, pos, head, at)
        # a label's kind is the first word of its literal
        term = Gen(f"{head}:" + (lit.replace(" ", ":", 1)
                                 if head == "label" else lit))
    elif head == "id":
        n, _ = _expect(tokens, pos, "object count")
        pos += 1
        term = Id(_parse_nat(n, at))
    elif head == "sym":
        m, _ = _expect(tokens, pos, "object count")
        n, _ = _expect(tokens, pos + 1, "object count")
        pos += 2
        term = Sym(_parse_nat(m, at), _parse_nat(n, at))
    elif head in ("seq", "par"):
        subterms = []
        while _expect(tokens, pos, "term or ')'")[0] != ")":
            sub, pos = _parse_sexpr(tokens, pos)
            subterms.append(sub)
        if not subterms:
            raise TermParseError(f"empty ({head} ...) at position {at}")
        term = seq(*subterms) if head == "seq" else par(*subterms)
    else:
        raise TermParseError(f"unknown form {head!r} at position {at}")
    tok, at = _expect(tokens, pos, "')'")
    if tok != ")":
        raise TermParseError(f"expected ')' at position {at}")
    return term, pos + 1


def _literal(tokens, pos, head, at):
    """The balanced run of tokens before the form's ')', as one string in
    which tokens written apart are joined by one space; and the position
    of that ')'."""
    text, depth, end = "", 0, 0
    while True:
        tok, start = _expect(tokens, pos, f"{head} literal or ')'")
        if tok == ")" and not depth:
            break
        depth += (tok == "(") - (tok == ")")
        text += (" " if text and start > end else "") + tok
        end = start + len(tok)
        pos += 1
    if not text:
        raise TermParseError(f"empty {head} at position {at}")
    return text, pos


def _parse_nat(tok, at) -> int:
    if not tok.isdigit():
        raise TermParseError(f"expected a natural number near position {at}")
    return int(tok)


def format_term(t: PropTerm) -> str:
    if isinstance(t, Gen):
        if t.name.startswith("label:"):
            return "(label " + " ".join(t.name.split(":")[1:]) + ")"
        if t.name.startswith("scalar:"):
            return f"(scalar {t.name.split(':', 1)[1]})"
        return f"(gen {t.name})"
    if isinstance(t, Id):
        return f"(id {t.n})"
    if isinstance(t, Sym):
        return f"(sym {t.m} {t.n})"
    if isinstance(t, (Seq, Par)):
        parts = ["(seq" if isinstance(t, Seq) else "(par"]
        for s in t.terms:
            parts.append(format_term(s))
        return " ".join(parts) + ")"
    raise TypeError(f"not a term: {t!r}")
