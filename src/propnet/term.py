"""Free symmetric monoidal syntax over a signature, plus generic evaluation.

Terms are immutable, so one node may stand for every copy of an equal
subterm: a term is a DAG, and the reader builds each distinct subterm
once.  ``Seq`` and ``Par`` hold the children of one ``(seq ...)`` or
``(par ...)`` form, as composition and tensor are strictly associative; a
``Seq`` is in diagrammatic order: its first term happens first.  A model
supplies the meaning of generators, identities, symmetries and the two
compositions; ``evaluate`` is then the unique strict symmetric monoidal
extension, and computes each distinct subterm's value once per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_


class UnknownGenerator(KeyError):
    def __str__(self):
        return f"unknown generator {self.args[0]!r}"


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
        """The dataclass ``repr``, over ``dag_fold``'s explicit stack."""
        def close(form, parts):
            tail = "," if len(parts) == 1 else ""
            return f"{type(form).__name__}(terms=({', '.join(parts)}{tail}))"
        return dag_fold(self, repr, close, ())


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


# The widest interface a term may have, in objects.  Bases are sparse, so
# (seq (id 1000) (sym 500 500)), a 4,000-wire relation in the linrel model
# over q, takes 0.17 s and peaks at 4.1 MB (Python 3.11, 2-vCPU VM).
MAX_WIDTH = 1000


def _bounded(n: int) -> int:
    if n > MAX_WIDTH:
        raise ValueError(f"interface of {n} objects exceeds the limit "
                         f"of {MAX_WIDTH}")
    return n


def _seq_arity(acc, value, k):
    (dom, cod), (d, c) = acc, value
    if d != cod:
        raise ArityMismatch(f"cannot compose: term {k - 1} of a seq has "
                            f"codomain {cod}, term {k} has domain {d}")
    return (dom, c)


def _par_arity(acc, value, _k):
    return (_bounded(acc[0] + value[0]), _bounded(acc[1] + value[1]))


def _leaf_arity(node, sig):
    kind = type(node)
    if kind is Gen:
        return sig.arity_of(node.name)
    if kind is Id:
        return (_bounded(node.n), node.n)
    if kind is Sym:
        return (_bounded(node.m + node.n), node.n + node.m)
    raise TypeError(f"not a term: {node!r}")


def arity(t: PropTerm, sig: Signature, shared: set | None = None):
    """(dom, cod) of a term, checking interfaces and ``MAX_WIDTH``.

    The walk keeps the arity of every subterm it has done, by identity, so
    a subterm met again is not walked again; the ids of those met more
    than once go into ``shared`` when it is given.  Each child is checked
    against its form as soon as it is done, so the first fault met from
    the left is raised.  An ``ArityMismatch`` gets "in term k of a seq: "
    for each form around where it arose, outermost first; past 8 forms,
    for the outermost and innermost 4 only."""
    seen = {}  # id of each subterm done -> its arity
    stack, node = [], t  # stack: [form, k, acc] per open form
    try:
        while True:
            key = id(node)
            value = seen.get(key)
            if value is not None:
                if shared is not None:
                    shared.add(key)
            elif type(node) is Seq or type(node) is Par:
                stack.append([node, 1, None])
                node = node.terms[0]
                continue
            else:
                value = seen[key] = _leaf_arity(node, sig)
            while stack:
                # off the stack while it is checked: a mismatch it raises
                # is placed by the forms around it
                frame = stack.pop()
                form, k, acc = frame
                if k > 1:
                    value = (_seq_arity if type(form) is Seq
                             else _par_arity)(acc, value, k)
                if k < len(form.terms):
                    frame[1:] = k + 1, value
                    stack.append(frame)
                    node = form.terms[k]
                    break
                seen[id(form)] = value
            else:
                return value
    except ArityMismatch as e:
        where = [f"in term {k} of a {form.head}: " for form, k, _acc in stack]
        if len(where) > 8:
            where[4:-4] = [f"… {len(where) - 8} more forms … "]
        raise ArityMismatch("".join(where) + str(e)) from None


def dag_fold(t: PropTerm, leaf, close, shared=None):
    """The value of ``t``, over an explicit stack, so nesting costs no
    Python stack: ``leaf(node)`` at a leaf, and ``close(form, values)`` at
    a form, given the values of all its children in order.  A subterm
    whose id is in ``shared`` (any subterm, when ``shared`` is None) is
    computed once, where it is first met, and its value is reused wherever
    it recurs; no value outlives the call.  Given no ids, the walk is over
    the tree and keeps no value past the form that takes it, as printing
    needs: a printer that kept them would hold the text of every subterm
    at once."""
    if type(t) is not Seq and type(t) is not Par:
        return leaf(t)
    memo, stack = {}, [(t, [])]  # stack: (form, its values so far)
    while True:
        form, values = stack[-1]
        terms = form.terms
        k = len(values)
        while k < len(terms):
            node = terms[k]
            key = id(node)
            if key in memo:
                values.append(memo[key])
            elif type(node) is Seq or type(node) is Par:
                stack.append((node, []))
                break
            else:
                value = leaf(node)
                if shared is None or key in shared:
                    memo[key] = value
                values.append(value)
            k += 1
        else:
            stack.pop()
            value = close(form, values)
            if not stack:
                return value
            if shared is None or id(form) in shared:
                memo[id(form)] = value
            stack[-1][1].append(value)


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


def _power(seq, value, r):
    """``value`` composed with itself r >= 1 times, by squaring: one binary
    ``seq`` call per binary digit of r past the first, and one more per
    further 1 digit."""
    power = None
    while True:
        if r & 1:
            power = value if power is None else seq(power, value)
        r >>= 1
        if not r:
            return power
        value = seq(value, value)


def evaluate(t: PropTerm, model: PropModel):
    """The value of ``t`` in ``model``, once ``arity`` has checked it.

    A term is a DAG: a subterm met more than once is evaluated once.  Each
    form hands its children's values, in order, to one call of
    ``model.seq`` or ``model.par``, except that in a ``Seq`` a run of one
    child r times over is first composed to one value by squaring, with
    binary ``model.seq`` calls; a form that is a single run is that value."""
    shared = set()
    arity(t, model.signature, shared)

    def leaf(node):
        kind = type(node)
        if kind is Gen:
            return model.gen(node.name)
        if kind is Id:
            return model.identity(node.n)
        return model.symmetry(node.m, node.n)

    def close(form, values):
        terms = form.terms
        if type(form) is Par or not any(map(is_, terms, terms[1:])):
            return (model.seq if type(form) is Seq else model.par)(*values)
        runs, i = [], 0
        while i < len(terms):
            j = i + 1
            while j < len(terms) and terms[j] is terms[i]:
                j += 1
            runs.append(_power(model.seq, values[i], j - i))
            i = j
        return model.seq(*runs) if len(runs) > 1 else runs[0]

    return dag_fold(t, leaf, close, shared)


def model_equal(model: PropModel, s: PropTerm, t: PropTerm) -> bool:
    return evaluate(s, model) == evaluate(t, model)


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
    form waits on a list with its children read so far.

    The term read is a DAG: equal subterms are one node.  A leaf is keyed
    by its text, and a form by its head and the identities of its
    children, so each key is made and looked up once per form read."""
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

    forms, i = [], 0  # forms: (seq or par, head's index, children)
    nodes = {}  # key -> the node read for it
    while True:
        tok = need(i, "term or ')'" if forms else "'('")
        if tok == ")" and forms:
            build, h, children = forms.pop()
            if not children:
                raise TermParseError(f"empty ({tokens[h]} ...) at position "
                                     f"{at(h)}")
            if forms:  # the outermost form cannot recur: it needs no key
                key = (build, *map(id, children))
                term = nodes.get(key) or nodes.setdefault(key,
                                                          build(*children))
            else:
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
                name = need(i, "generator name")
                term = nodes.get(name) or nodes.setdefault(name, Gen(name))
                i += 1
            elif head == "id" or head == "sym":
                end = i + (1 if head == "id" else 2)
                # keyed by its one or two counts as written
                counts = tuple([need(j, "object count")
                                for j in range(i, end)])
                term = nodes.get(counts)
                if term is None:
                    term = nodes[counts] = (Id if head == "id" else Sym)(
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
                name = f"{head}:" + (lit.replace(" ", ":", 1)
                                     if head == "label" else lit)
                term = nodes.get(name) or nodes.setdefault(name, Gen(name))
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


def _format_leaf(node) -> str:
    kind = type(node)
    if kind is Id:
        return f"(id {node.n})"
    if kind is Sym:
        return f"(sym {node.m} {node.n})"
    if kind is not Gen:
        raise TypeError(f"not a term: {node!r}")
    head, _, rest = node.name.partition(":")
    if head == "label" or head == "scalar":
        # the sugared form, when it reads back as this generator
        lit = rest.replace(":", " ", 1) if head == "label" else rest
        try:
            if parse_term(f"({head} {lit})") == node:
                return f"({head} {lit})"
        except TermParseError:
            pass
    return f"(gen {node.name})"


def format_term(t: PropTerm) -> str:
    return dag_fold(t, _format_leaf,
                    lambda form, parts: f"({form.head} {' '.join(parts)})",
                    ())
