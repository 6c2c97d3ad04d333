"""Exact scalar arithmetic: rationals and rational functions in ``s``.

A rational is stored as a Python ``int`` exactly when it is integral, and
as a ``fractions.Fraction`` (positive denominator, reduced) only
otherwise.  Almost every entry the engine meets is 0, 1, -1 or a small
integer, and integer arithmetic skips the instance checks and the gcd of
every Fraction operation.  An ``int`` is a ``numbers.Rational`` and
compares and hashes equal to the equal Fraction, so the stored form is
unique and equality stays structural.  ``int / int`` is a float, so no
field value is divided with ``/``: an inverse is ``Field.inv``, and a
quotient of rationals is built as ``Fraction(a, b)`` and brought to its
stored form by ``stored``; the literal parser, too, divides by ``QS.inv``.

A polynomial is stored fraction-free, as one rational content times a
primitive integer tuple, so its arithmetic is integer arithmetic plus one
operation on the contents.  Rational functions are kept canonical with a
monic denominator and coprime numerator/denominator, so equality is plain
structural equality.

A value of Q(s) is stored as a rational, in the same form, exactly when
it is constant, and as a ``RatFunc`` only when it holds s.  Most entries
met in practice are constants (circuit matrices are full of 0, 1 and -1,
and resistor values are constants), and they skip the two ``Poly``s; a
RatFunc with a rational takes a direct path with no gcd, and a constant
result of two RatFuncs is demoted.  ``QS.format`` prints a constant as a
constant polynomial, -(13/5), as it prints a RatFunc's coefficients.  A
constant part is coprime to anything nonzero, so ``RatFunc`` runs
``poly_gcd`` only when both parts have positive degree.

``poly_gcd`` computes the gcd of the stored primitive parts with the
heuristic GCDHEU of Char, Geddes & Gonnet (1989), which evaluates both
parts at an integer, takes one integer gcd and reads the candidate off its
digits.  A candidate is accepted only when it divides both parts exactly;
after six rejected evaluation points the Euclidean remainder loop over Q
decides.  ``RatFunc`` then divides the primitive parts by the gcd exactly
over the integers and rescales the contents once.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    pass


class ScalarParseError(ValueError):
    pass


# Largest exponent a scalar literal may use: ``s^k`` is built by k
# multiplications, so an unbounded k lets a short literal run for minutes.
# The same bound holds for the degree a power builds, exponent times the
# degree of its base, so that nested powers such as ``(s^1000)^1000`` do
# not get round it.
MAX_EXPONENT = 1000

# Largest product of a power's exponent and the coefficient bit length of
# its base: the power's coefficients grow to about that many bits, and its
# multiplications slow down with them.
MAX_POWER_BITS = 20000

# Deepest nesting of brackets and unary minus signs in a scalar literal:
# the parser recurses once per level.  Printed literals nest at most 3 deep.
MAX_NESTING = 100

# str.isdigit also passes "²", which int() refuses, and "٣", which it reads
_DIGITS = "0123456789"


class Poly:
    """Polynomial in ``s``: ``content * prim[k]`` is the coefficient of
    ``s^k``.  ``prim`` is a tuple of coprime integers whose last is
    positive, ``content`` a nonzero stored rational with the sign; the
    zero polynomial is ``()`` with content 0.  The form is unique, so
    equality is structural.  Products of primitive parts are primitive
    (Gauss's lemma): a product takes no gcd, and negation, scaling and
    ``monic`` change only the content.  A sum takes one gcd in
    ``_primitive``.
    """

    __slots__ = ("content", "prim")

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self.content, self.prim = _primitive(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def const(cls, c) -> "Poly":
        c = _exact(c)
        return _poly(c, (1,)) if c else _ZERO

    @classmethod
    def s(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as stored rationals, lowest degree first."""
        n, d = self.content.numerator, self.content.denominator
        return tuple(_div(n * x, d) for x in self.prim)

    def is_zero(self) -> bool:
        return not self.prim

    @property
    def degree(self) -> int:
        # -1 is the sentinel degree of the zero polynomial
        return len(self.prim) - 1

    def leading(self):
        p = self.prim
        if p and p[-1] != 1:
            return stored(self.content * p[-1])
        return self.content

    def __add__(self, other: "Poly") -> "Poly":
        # over the common denominator of the contents
        a, b, ca, cb = self.prim, other.prim, self.content, other.content
        da, db = ca.denominator, cb.denominator
        den = math.lcm(da, db)
        ma, mb = ca.numerator * (den // da), cb.numerator * (den // db)
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * x for x in a]
        for i, y in enumerate(b):
            out[i] += mb * y
        return _poly(*_primitive(out, den))

    def __neg__(self) -> "Poly":
        return _poly(-self.content, self.prim)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:
            prim = b if len(a) == 1 else a
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            prim = tuple(out)
        return _poly(stored(self.content * other.content), prim)

    def scale(self, c) -> "Poly":
        c = _exact(c)
        if not c or not self.prim:
            return _ZERO
        return _poly(stored(self.content * c), self.prim)

    def monic(self) -> "Poly":
        p = self.prim
        return _poly(_div(1, p[-1]), p) if p else self

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q, r = _ZERO, self
        dlead = other.leading()
        while not r.is_zero() and r.degree >= other.degree:
            t = _poly(_div(r.leading(), dlead),
                      (0,) * (r.degree - other.degree) + (1,))
            q = q + t
            r = r - t * other
        return q, r

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Poly) and \
            self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.prim))

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def _poly(content, prim: tuple) -> Poly:
    """The polynomial whose stored form, already canonical, is given."""
    p = object.__new__(Poly)
    p.content, p.prim = content, prim
    return p


def _primitive(ints, den: int):
    """Content and primitive part of the polynomial with coefficients
    ``ints[k] / den``: trailing zeros dropped, the integers divided by
    their gcd, and the sign of the last one moved into the content."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return 0, ()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    return _div(g, den), tuple(ints)


def _div(a, b):
    """a/b for stored rationals a and b, in its stored form."""
    return a if b == 1 else stored(Fraction(a, b))


def stored(x):
    """A field value in its stored form: an integral Fraction is its int,
    and any other value (an int, another Fraction, a RatFunc) already
    is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _exact(c):
    """``c`` in its stored form; a float is refused, since it is not
    exact."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}; use a Fraction")
    return stored(c if isinstance(c, Fraction) else Fraction(c))


_ZERO = Poly()
_ONE = Poly.const(1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.

    Nonconstant parts go to ``_heu_gcd`` as their stored primitive parts,
    and to ``_euclid_gcd`` only when GCDHEU gives up.
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    if len(a.prim) == 1 or len(b.prim) == 1:
        return _ONE
    h = _heu_gcd(a.prim, b.prim)
    if h is None:
        return _euclid_gcd(a, b)
    return _ONE if len(h) == 1 else _poly(_div(1, h[-1]), tuple(h))


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclidean remainders over Q; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# Evaluation points GCDHEU tries before it gives up (Char, Geddes & Gonnet).
HEU_TRIES = 6


def _heu_gcd(f, g):
    """Primitive gcd of two primitive integer coefficient lists (lowest
    degree first, both of positive degree) by GCDHEU, or None when every
    evaluation point fails.

    At an integer xi the candidate is the primitive part of the polynomial
    whose symmetric base-xi digits spell gcd(f(xi), g(xi)).  A candidate
    that divides f and g is the gcd, as long as xi is more than twice the
    Cauchy root bound of f or of g: the gcd is the candidate times some c,
    c(xi) divides the content of the digit polynomial, which is at most
    xi / 2, and every root of c lies within the root bound, so a
    nonconstant c would have |c(xi)| > xi / 2.  The second term of the
    first xi is that bound; the first makes a fit of the gcd's digits
    likely.  Each next xi is about 2.73 xi^(5/4), as in the paper.
    """
    nf = max(map(abs, f))
    ng = max(map(abs, g))
    bound = 2 * min(nf, ng) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(nf // abs(f[-1]), ng // abs(g[-1])) + 4)
    for _ in range(HEU_TRIES):
        h = _sym_digits(math.gcd(_evaluate(f, xi), _evaluate(g, xi)), xi)
        if len(h) == 1:
            return [1]
        content = math.gcd(*h)
        if content != 1:
            h = [c // content for c in h]
        if _exact_quo(f, h) is not None and _exact_quo(g, h) is not None:
            return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate(f, x: int) -> int:
    """f(x) by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _sym_digits(n: int, xi: int):
    """Digits of n > 0 in base xi, lowest first, each in (-xi/2, xi/2]."""
    half = xi // 2
    out = []
    while n:
        d = n % xi
        if d > half:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return out


def _exact_quo(a, b):
    """a / b for integer coefficient lists (lowest degree first), or None
    when b does not divide a over the integers."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    a = list(a)
    lead = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], lead)
        if r:
            return None
        if c:
            q[k] = c
            for j in range(db):
                a[k + j] -= c * b[j]
    if any(a[:db]):
        return None
    return q


def _cancel(num: Poly, den: Poly, g: Poly):
    """Canonical parts of num/den once their common factor g is divided
    out: exact integer division of the stored primitive parts, whose
    quotients are primitive again, then one scaling of the contents that
    makes the denominator monic."""
    qn = _exact_quo(num.prim, g.prim)
    qd = _exact_quo(den.prim, g.prim)
    lead = qd[-1]
    num = _poly(_div(num.content, den.content * lead), tuple(qn))
    return num, (_ONE if len(qd) == 1 else _poly(_div(1, lead), tuple(qd)))


class RatFunc:
    """Element of Q(s) in canonical form: monic denominator, coprime parts.
    A constant is stored as a rational; this constructor can still build
    a constant RatFunc, which equals its rational and ``QS.coerce``
    demotes.

    Construction takes the shortest route to that form.  A zero numerator
    gives 0/1.  A constant denominator c gives num/c.  A constant numerator
    is coprime to any denominator, so only the denominator is made monic.
    ``poly_gcd`` runs only when both parts have positive degree, and a
    common factor is divided out over the integers by ``_cancel``.  Every
    constant denominator ends up as the one shared polynomial 1.

    Negation and inversion of a canonical value are canonical after at most
    a scaling, and so are (num + c den)/den and c num/den for a rational c,
    so they build their results with ``_canonical`` and skip this
    constructor; a result of two RatFuncs goes through it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in rational function")
        if num.is_zero():
            self.num, self.den = num, _ONE
            return
        if len(num.prim) > 1 and len(den.prim) > 1:
            g = poly_gcd(num, den)
            if g.degree > 0:
                self.num, self.den = _cancel(num, den, g)
                return
        lead = den.leading()
        if lead != 1:
            num, den = num.scale(_div(1, lead)), den.monic()
        # every constant denominator is the shared _ONE (see __mul__)
        self.num, self.den = num, (_ONE if len(den.prim) == 1 else den)

    @classmethod
    def _canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """The value num/den, for parts already in canonical form."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def s(cls) -> "RatFunc":
        return cls(Poly.s())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _constant(self) -> bool:
        return self.den is _ONE and len(self.num.prim) < 2

    def __add__(self, other):
        other = _operand(other)
        if type(other) is RatFunc:
            if self.den == other.den:
                return _reduced(self.num + other.num, self.den)
            return _reduced(self.num * other.den + other.num * self.den,
                            self.den * other.den)
        if other is NotImplemented or not other:
            return other if other is NotImplemented else self
        # gcd(num + c den, den) = gcd(num, den) = 1
        return RatFunc._canonical(self.num + self.den.scale(other), self.den)

    __radd__ = __add__

    def __neg__(self):
        # the denominator is unchanged and still coprime to the numerator
        return RatFunc._canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if type(other) is RatFunc:
            if self.den is _ONE and other.den is _ONE:
                return _reduced(self.num * other.num)
            return _reduced(self.num * other.num, self.den * other.den)
        if other is NotImplemented or not other:
            return other
        return RatFunc._canonical(self.num.scale(other), self.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        """den/num: the parts are already coprime, so only the new
        denominator is made monic (both parts scaled by 1/lead)."""
        num, den = self.num, self.den
        if num.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        lead = num.leading()
        if lead != 1:
            num, den = num.monic(), den.scale(_div(1, lead))
        return RatFunc._canonical(den, _ONE if len(num.prim) == 1 else num)

    def __truediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self * _inv_qs(other)

    def __rtruediv__(self, other):
        return self.inv() * other

    def __eq__(self, other):
        if type(other) is not RatFunc:
            other = _operand(other)
            if type(other) is not RatFunc:
                # NotImplemented, or a rational, equal only to a constant
                return other if other is NotImplemented else \
                    self._constant() and self.num.content == other
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        # a constant hashes as the rational it equals
        return hash(self.num.content if self._constant()
                    else (self.num, self.den))

    def __repr__(self):
        return f"RatFunc({format_scalar(self)!r})"


def _reduced(num: Poly, den: Poly = None):
    """num/den in its stored form: a constant as its rational."""
    r = RatFunc(num, den)
    return r.num.content if r._constant() else r


def _operand(x):
    """``x`` as a RatFunc or a stored rational, or NotImplemented."""
    if type(x) is RatFunc or type(x) is int:
        return x
    if isinstance(x, (int, Fraction)):
        return _coerce_q(x)
    return _reduced(x) if isinstance(x, Poly) else NotImplemented


# ---------------------------------------------------------------------------
# Field descriptors.  exactla and everything above it is generic over these.

class Field:
    """A scalar field: its zero and one, ``coerce`` and ``parse`` into its
    values, ``inv``, the one way a value is divided by, and ``format``,
    which prints a value."""

    def __init__(self, name, zero, one, coerce, parse, inv, format):
        self.name = name
        self.zero = zero
        self.one = one
        self.coerce = coerce
        self.parse = parse
        self.inv = inv
        self.format = format

    def __repr__(self):
        return f"Field({self.name})"


def _coerce_q(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return stored(x)
    if isinstance(x, int):  # a bool, say
        return int(x)
    raise TypeError(f"not a rational: {x!r}")


def _inv_q(x):
    return _div(1, x)


def _coerce_qs(x):
    out = _operand(x)
    if out is NotImplemented:
        raise TypeError(f"not a rational function: {x!r}")
    return out.num.content if type(out) is RatFunc and out._constant() \
        else out


def _inv_qs(x):
    if type(x) is RatFunc:
        return x.inv()
    if not x:
        raise DivisionByZero("inverse of zero rational function")
    return _div(1, x)


# ---------------------------------------------------------------------------
# Scalar literal grammar: +, -, *, /, ^, parens, integers and the variable s.

class _Lexer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def peek(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.src):
            return None
        return self.src[self.pos]

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch


def _parse_expr(lx, atom):
    val = _parse_term(lx, atom)
    while True:
        ch = lx.peek()
        if ch == "+":
            lx.take()
            val = val + _parse_term(lx, atom)
        elif ch == "-":
            lx.take()
            val = val - _parse_term(lx, atom)
        else:
            return val


def _parse_term(lx, atom):
    val = _parse_factor(lx, atom)
    while True:
        ch = lx.peek()
        if ch == "*":
            lx.take()
            val = val * _parse_factor(lx, atom)
        elif ch == "/":
            lx.take()
            rhs = _parse_factor(lx, atom)
            if not rhs:
                raise DivisionByZero("division by zero in scalar literal")
            val = val * _inv_qs(rhs)  # two ints would divide to a float
        elif ch is not None and ch in _DIGITS + "s(":
            # implicit multiplication, e.g. "2s"
            val = val * _parse_factor(lx, atom)
        else:
            return val


def _nested(lx, parse, atom):
    """parse(lx, atom) one bracket or unary minus deeper."""
    if lx.depth == MAX_NESTING:
        raise ScalarParseError(f"literal nests deeper than the limit "
                               f"{MAX_NESTING} at position {lx.pos}")
    lx.depth += 1
    val = parse(lx, atom)
    lx.depth -= 1
    return val


def _parse_factor(lx, atom):
    if lx.peek() == "-":
        lx.take()
        return -_nested(lx, _parse_factor, atom)
    base = _parse_atom(lx, atom)
    if lx.peek() == "^":
        lx.take()
        sign = 1
        if lx.peek() == "-":
            lx.take()
            sign = -1
        exp = _parse_int(lx)
        if exp > MAX_EXPONENT:
            raise ScalarParseError(
                f"exponent {exp} exceeds the limit {MAX_EXPONENT}")
        degree, bits = _size(base)
        if exp * degree > MAX_EXPONENT or exp * bits > MAX_POWER_BITS:
            raise ScalarParseError(
                f"power too large: degree {exp * degree} (limit "
                f"{MAX_EXPONENT}), {exp * bits} coefficient bits (limit "
                f"{MAX_POWER_BITS})")
        acc = _power(base, exp)
        if sign < 0:
            if not acc:
                raise DivisionByZero("zero raised to negative power")
            acc = _inv_qs(acc)
        return acc
    return base


def _power(base, exp: int):
    """base^exp.  A canonical rational function's parts are coprime with a
    monic denominator, and so are their powers, so the parts are powered
    apart and the result needs no gcd."""
    if not isinstance(base, RatFunc):
        return base ** exp
    den = _ONE if base.den is _ONE else _poly_power(base.den, exp)
    return RatFunc._canonical(_poly_power(base.num, exp), den)


def _poly_power(p: Poly, exp: int) -> Poly:
    """p^exp by repeated squaring."""
    out = _ONE
    while exp:
        if exp & 1:
            out = out * p
        exp >>= 1
        if exp:
            p = p * p
    return out


def _size(x):
    """Degree and largest coefficient bit length of a literal's value."""
    if isinstance(x, RatFunc):
        cs = x.num.coeffs + x.den.coeffs
        return max(x.num.degree, x.den.degree), max(_size(c)[1] for c in cs)
    return 0, max(x.numerator.bit_length(), x.denominator.bit_length())


def _parse_int(lx) -> int:
    ch = lx.peek()
    if ch is None or ch not in _DIGITS:
        raise ScalarParseError(f"expected integer at position {lx.pos}")
    digits = ""
    while lx.peek() is not None and lx.peek() in _DIGITS:
        digits += lx.take()
    return int(digits)


def _parse_atom(lx, atom):
    ch = lx.peek()
    if ch == "(":
        lx.take()
        val = _nested(lx, _parse_expr, atom)
        if lx.peek() != ")":
            raise ScalarParseError(f"expected ')' at position {lx.pos}")
        lx.take()
        return val
    if ch == "s":
        lx.take()
        return atom("s")
    if ch is not None and ch in _DIGITS:
        return atom(_parse_int(lx))
    what = "end of input" if ch is None else f"character {ch!r}"
    raise ScalarParseError(f"unexpected {what} at position {lx.pos}")


def _parse(src: str, atom):
    """The value of a literal; ``atom`` reads its integers and ``s``."""
    lx = _Lexer(src)
    val = _parse_expr(lx, atom)
    if lx.peek() is not None:
        raise ScalarParseError(f"trailing input at position {lx.pos}")
    return val


def parse_rat(src: str):
    """The value of a literal in its stored form; the parser's own
    arithmetic is on Fractions."""
    def atom(x):
        if x == "s":
            raise ScalarParseError("variable s is not a rational number")
        return Fraction(x)

    return stored(_parse(src, atom))


def parse_ratfunc(src: str):
    """The value of a literal in its stored form in Q(s)."""
    return _coerce_qs(_parse(src, lambda x: RatFunc.s() if x == "s"
                             else Fraction(x)))


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        if k == 0:
            mono = _fmt_coeff(abs(c))
        elif abs(c) == 1:
            mono = "s" if k == 1 else f"s^{k}"
        else:
            mono = f"{_fmt_coeff(abs(c))}*s" if k == 1 else f"{_fmt_coeff(abs(c))}*s^{k}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f" + {mono}" if c > 0 else f" - {mono}")
    return "".join(parts)


def _fmt_coeff(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def _format_qs(x) -> str:
    """A value of Q(s) as printed: a constant as the constant polynomial,
    with a fraction bracketed, as in -(13/5)."""
    return format_scalar(x) if isinstance(x, RatFunc) else \
        format_poly(Poly.const(x))


def format_scalar(x) -> str:
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, RatFunc):
        if x.den == Poly.const(1):
            return format_poly(x.num)
        return f"({format_poly(x.num)})/({format_poly(x.den)})"
    raise TypeError(f"not a scalar: {x!r}")


QQ = Field("q", 0, 1, _coerce_q, parse_rat, _inv_q, format_scalar)
QS = Field("qs", 0, 1, _coerce_qs, parse_ratfunc, _inv_qs, _format_qs)

FIELDS = {"q": QQ, "qs": QS}
