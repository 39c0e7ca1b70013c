"""Exact Laurent-polynomial and rational-function arithmetic.

Coefficients are Python integers throughout (arbitrary precision, no floats);
exponents may be negative in every variable.  Values are never mutated after
construction, so they can be shared freely between threads.

Every polynomial class is built on one private core, ``_Laurent``: a sparse
dict ``terms`` from exponent (an int, or a tuple for several variables) to a
nonzero coefficient, where a coefficient is an int or a ring element and is
zero exactly when it is falsy.  The core holds the zero-stripping
constructor, ``from_pairs`` (the sum of (exponent, coefficient) pairs that
may repeat an exponent), ``zero``/``one``, equality and hashing with ints
read as constants, addition, negation, subtraction, powers, ``sorted_terms``
and the sign-and-term rendering loop.  Each subclass adds its product, its
per-variable methods and the text of one term:

* ``QPolynomial``   -- Z[q, q^-1], keys are q-exponents.
* ``BiPolynomial``  -- Z[q^±1, v^±1], keys are (q-exponent, v-exponent).
* ``XPolynomial``   -- Laurent polynomial in x whose coefficients live in any
  of the rings here (anything with truth value, ``+`` and ``*`` works); it
  renders its own text, with each coefficient in brackets.

``RationalFunction`` is a quotient num/den of two BiPolynomials.  No gcd
reduction is performed; equality is decided by cross-multiplication.

``QPolynomial`` products are computed three ways, by operand size.  A zero
or one-term operand shifts and scales the other's terms; a product of fewer
than ``_SCHOOLBOOK_PAIRS`` term pairs (or one too sparse to pack) runs the
schoolbook double loop; anything larger goes through Kronecker substitution
(``_kronecker_mul``): each operand becomes one integer whose base-2^(8w)
digits are its coefficients, the two integers are multiplied once, and the
product's digits are read back as coefficients.  No product coefficient
exceeds min(len a, len b) * max|a| * max|b| in absolute value, and w is
chosen so that this bound stays below 2^(8w-1), half the digit base; so
each digit of the integer product is exactly one coefficient, read as a
signed digit, and no carry between digits is lost.  There is no modular
reduction and the result is exact.  ``packed_width`` picks such a digit
width for a given coefficient bound and ``QPolynomial.from_packed`` reads a
nonnegative packed integer back, for callers that do their own integer
arithmetic on packed coefficients (``weylchar`` characters, ``cform.E_spec``).
"""

from __future__ import annotations

from math import gcd
from struct import pack, unpack

# A product of fewer term pairs than this keeps the schoolbook loop.
_SCHOOLBOOK_PAIRS = 256


class BoundExceeded(ValueError):
    """An input lies beyond the size a route is configured to compute."""


# Largest |n| each exhaustive enumeration accepts.  walks.enumerate_walks
# lists 2^l walks, l about 2|n|, and weylchar.enumerate_basis about 3^n
# monomials; on a 2-core x86 VM |n| = 9 walks take 8-15 s and 0.5 GB and
# n = 12 bases 14 s and 1.3 GB, and each step further costs 3-4x more.
SIZE_LIMITS = {"walks": 9, "basis": 12}


def check_size(name, n):
    """Raise BoundExceeded, before any work, when |n| > SIZE_LIMITS[name]."""
    if abs(n) > SIZE_LIMITS[name]:
        raise BoundExceeded("%s is limited to |n| <= %d" % (name, SIZE_LIMITS[name]))


class RingError(ArithmeticError):
    pass


class DenominatorVanishesAtZero(RingError):
    pass


class NotPolynomial(RingError):
    pass


class DivergesAtInfinity(RingError):
    pass


class _Laurent:
    """The sparse Laurent-polynomial core of QPolynomial, BiPolynomial and
    XPolynomial; see the module docstring."""

    __slots__ = ("terms",)

    # The exponent of a constant: the key an int coerces to.
    _ORIGIN = 0

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def _nonzero(cls, terms):
        """Wrap a dict that holds no zero coefficient, without copying it."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @staticmethod
    def _accumulate(out, pairs):
        for e, c in pairs:
            out[e] = out[e] + c if e in out else c
        return out

    @classmethod
    def from_pairs(cls, pairs):
        """The sum of the (exponent, coefficient) pairs, which may repeat an
        exponent; a coefficient that sums to zero is dropped."""
        return cls(cls._accumulate({}, pairs))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._ORIGIN: 1})

    def _coerce(self, other):
        return type(self)({self._ORIGIN: other}) if isinstance(other, int) else other

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(self._accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._nonzero({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def render(self):
        """Compact canonical text, terms in ascending exponent order."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            sign = "-" if c < 0 else "+" if parts else ""
            parts.append(sign + self._term_str(abs(c), e))
        return "".join(parts)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())


class QPolynomial(_Laurent):
    """Integer-coefficient Laurent polynomial in one variable q."""

    __slots__ = ()

    @classmethod
    def from_packed(cls, value, width):
        """sum_i d_i q^i, d_i the base-2^(8*width) digits of the nonnegative
        integer `value`; every digit must lie below 2^(8*width-1)."""
        raw = value.to_bytes(-(-value.bit_length() // (8 * width)) * width, "little")
        return cls._nonzero({i: c for i, c in enumerate(_bytes_to_digits(raw, width)) if c})

    @classmethod
    def monomial(cls, coeff, exp=0):
        return cls({exp: coeff})

    @classmethod
    def q_power(cls, exp):
        return cls({exp: 1})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return QPolynomial()
            return QPolynomial._nonzero({e: c * other for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return QPolynomial()
        if len(b) == 1:
            ((e0, c0),) = b.items()
            return QPolynomial._nonzero({e + e0: c * c0 for e, c in a.items()})
        if len(a) * len(b) >= _SCHOOLBOOK_PAIRS:
            out = _kronecker_mul(a, b)
            if out is not None:
                return QPolynomial._nonzero(out)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def min_exp(self):
        return min(self.terms) if self.terms else None

    def max_exp(self):
        return max(self.terms) if self.terms else None

    def coefficient(self, exp):
        return self.terms.get(exp, 0)

    def scale_exponents(self, k):
        """Substitute q -> q^k (k nonzero; k = -1 is the inversion)."""
        if k == 0:
            raise ValueError("exponent scale must be nonzero")
        return QPolynomial._nonzero({e * k: c for e, c in self.terms.items()})

    def truncate_above(self, bound):
        return QPolynomial({e: c for e, c in self.terms.items() if e <= bound})

    def truncate_below(self, bound):
        return QPolynomial({e: c for e, c in self.terms.items() if e >= bound})

    def eval_at_one(self):
        return sum(self.terms.values())

    def divide_exact(self, other):
        """Exact Laurent division; raises NotPolynomial on remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return QPolynomial.zero()
        # Shift both operands so they are honest polynomials, divide, shift back.
        s_shift = self.min_exp()
        o_shift = other.min_exp()
        num = {e - s_shift: c for e, c in self.terms.items()}
        den = {e - o_shift: c for e, c in other.terms.items()}
        ddeg = max(den)
        dlead = den[ddeg]
        quot = {}
        rem = dict(num)
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                raise NotPolynomial("division leaves a remainder")
            c, r = divmod(rem[rdeg], dlead)
            if r != 0:
                raise NotPolynomial("division leaves a remainder")
            shift = rdeg - ddeg
            quot[shift] = c
            for e, dc in den.items():
                e2 = e + shift
                rem[e2] = rem.get(e2, 0) - c * dc
                if rem[e2] == 0:
                    del rem[e2]
        return QPolynomial({e + s_shift - o_shift: c for e, c in quot.items()})

    @staticmethod
    def _term_str(c, e):
        if e == 0:
            return str(c)
        qs = "q" if e == 1 else "q^%d" % e
        return qs if c == 1 else "%d*%s" % (c, qs)


def _kronecker_mul(a, b):
    """Product of two coefficient dicts {exponent: int} by Kronecker
    substitution, or None when the product is too sparse to pack (more
    output slots than term pairs, where the schoolbook loop does less work).

    Exponents are packed on the grid low + step*i, step the gcd of every
    exponent offset.  Digits are `width`-byte two's-complement chunks; XOR
    with `half` (2^(8*width-1) in every chunk) turns them into offset-binary
    chunks c + 2^(8*width-1), which are nonnegative, so an operand is that
    integer minus `half`, and adding `half` to the product gives chunks that
    carry into each other nowhere.
    """
    a_low, b_low = min(a), min(b)
    step = gcd(*(e - a_low for e in a), *(e - b_low for e in b))
    a_len = (max(a) - a_low) // step + 1
    b_len = (max(b) - b_low) // step + 1
    size = a_len + b_len - 1
    if size > len(a) * len(b):
        return None
    width = packed_width(
        min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    )
    half = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")

    def packed(terms, low, length):
        dense = [0] * length
        for e, c in terms.items():
            dense[(e - low) // step] = c
        return (int.from_bytes(_digits_to_bytes(dense, width), "little") ^ half) - half

    packed_a = packed(a, a_low, a_len)
    packed_b = packed_a if b is a else packed(b, b_low, b_len)
    raw = ((packed_a * packed_b + half) ^ half).to_bytes(width * size, "little")
    low = a_low + b_low
    return {low + i * step: c for i, c in enumerate(_bytes_to_digits(raw, width)) if c}


# struct codes of the signed little-endian digit widths packed in one call.
_STRUCT_CODES = {1: "<%db", 2: "<%dh", 4: "<%di", 8: "<%dq"}


def packed_width(bound):
    """Digit width w in bytes with bound < 2^(8*w-1), rounded up to a width
    that struct packs in one call where there is one."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in _STRUCT_CODES if width <= w), width)


def _digits_to_bytes(digits, width):
    code = _STRUCT_CODES.get(width)
    if code:
        return pack(code % len(digits), *digits)
    return b"".join([c.to_bytes(width, "little", signed=True) for c in digits])


def _bytes_to_digits(raw, width):
    code = _STRUCT_CODES.get(width)
    if code:
        return unpack(code % (len(raw) // width), raw)
    return [
        int.from_bytes(raw[i:i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    ]


def substitute_q_inverse(p):
    """q -> q^-1: negate every exponent (an involution)."""
    return p.scale_exponents(-1)


class BiPolynomial(_Laurent):
    """Integer-coefficient Laurent polynomial in q and v; keys (qe, ve)."""

    __slots__ = ()

    _ORIGIN = (0, 0)

    @classmethod
    def monomial(cls, coeff, q_exp=0, v_exp=0):
        return cls({(q_exp, v_exp): coeff})

    @classmethod
    def from_q(cls, p, v_exp=0):
        return cls({(e, v_exp): c for e, c in p.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPolynomial({k: c * other for k, c in self.terms.items()})
        out = {}
        for (q1, v1), c1 in self.terms.items():
            for (q2, v2), c2 in other.terms.items():
                k = (q1 + q2, v1 + v2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPolynomial(out)

    __rmul__ = __mul__

    def substitute_q_inverse(self):
        return BiPolynomial({(-qe, ve): c for (qe, ve), c in self.terms.items()})

    def shift(self, q_exp=0, v_exp=0):
        return BiPolynomial(
            {(qe + q_exp, ve + v_exp): c for (qe, ve), c in self.terms.items()}
        )

    def v_min(self):
        return min(ve for (_, ve) in self.terms) if self.terms else None

    def v_max(self):
        return max(ve for (_, ve) in self.terms) if self.terms else None

    def coeff_of_v(self, v_exp):
        """The coefficient of v^v_exp, as a QPolynomial in q."""
        return QPolynomial(
            {qe: c for (qe, ve), c in self.terms.items() if ve == v_exp}
        )

    def divide_exact_binomial(self, q_exp, v_exp):
        """Exact division by (1 - q^q_exp * v^v_exp), v_exp > 0.

        Uses the recurrence r[v] = p[v] + q^q_exp * r[v - v_exp] on slices of
        fixed v-exponent; raises NotPolynomial if the division is not exact.
        """
        if v_exp <= 0:
            raise ValueError("divisor must have positive v-degree")
        if self.is_zero():
            return BiPolynomial.zero()
        by_v = {}
        for (qe, ve), c in self.terms.items():
            by_v.setdefault(ve, {})[qe] = c
        vmin, vmax = self.v_min(), self.v_max()
        slices = {}
        out = {}
        for v in range(vmin, vmax + 1):
            cur = dict(by_v.get(v, {}))
            prev = slices.get(v - v_exp)
            if prev:
                for qe, c in prev.items():
                    qe2 = qe + q_exp
                    cur[qe2] = cur.get(qe2, 0) + c
            cur = {qe: c for qe, c in cur.items() if c != 0}
            if v > vmax - v_exp:
                if cur:
                    raise NotPolynomial("binomial division leaves a remainder")
                continue
            slices[v] = cur
            for qe, c in cur.items():
                out[(qe, v)] = c
        return BiPolynomial(out)

    @staticmethod
    def _term_str(c, key):
        qe, ve = key
        pieces = []
        if qe != 0:
            pieces.append("q" if qe == 1 else "q^%d" % qe)
        if ve != 0:
            pieces.append("v" if ve == 1 else "v^%d" % ve)
        if not pieces:
            return str(c)
        if c == 1:
            return "*".join(pieces)
        return "*".join([str(c)] + pieces)


class RationalFunction:
    """Quotient of two BiPolynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = BiPolynomial.monomial(num)
        if den is None:
            den = BiPolynomial.one()
        elif isinstance(den, int):
            den = BiPolynomial.monomial(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(BiPolynomial.zero())

    @classmethod
    def one(cls):
        return cls(BiPolynomial.one())

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        if isinstance(other, int):
            other = RationalFunction(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RationalFunction(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, BiPolynomial)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def substitute_q_inverse(self):
        return RationalFunction(
            self.num.substitute_q_inverse(), self.den.substitute_q_inverse()
        )

    def v_valuation(self):
        """Order at v = 0 (None for the zero function)."""
        if self.num.is_zero():
            return None
        return self.num.v_min() - self.den.v_min()

    def render(self):
        if self.den == BiPolynomial.one():
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __repr__(self):
        return "RationalFunction(%s)" % self.render()


def rf_eval_v0(r):
    """Evaluate a rational function at v = 0, exactly.

    Requires the denominator to be regular and nonvanishing at v = 0 after
    clearing a common v-power; the quotient num(q,0)/den(q,0) must be an
    honest Laurent polynomial in q.
    """
    if r.num.is_zero():
        return QPolynomial.zero()
    # Clear a common v-power only when the denominator has negative
    # v-exponents; a denominator vanishing at v=0 stays an error.
    shift = max(0, -r.den.v_min())
    num = r.num.shift(v_exp=shift)
    den = r.den.shift(v_exp=shift)
    den0 = den.coeff_of_v(0)
    if den0.is_zero():
        raise DenominatorVanishesAtZero(
            "denominator vanishes at v=0: %s" % r.den.render()
        )
    if num.v_min() < 0:
        raise NotPolynomial("value diverges at v=0")
    num0 = num.coeff_of_v(0)
    return num0.divide_exact(den0)


def rf_limit_v_infinity(r):
    """Limit as v -> infinity, exactly.

    Zero when deg_v(num) < deg_v(den); the exact quotient of leading-v
    coefficients when the degrees agree; DivergesAtInfinity otherwise.
    """
    if r.num.is_zero():
        return QPolynomial.zero()
    dn = r.num.v_max()
    dd = r.den.v_max()
    if dn > dd:
        raise DivergesAtInfinity("numerator v-degree exceeds denominator")
    if dn < dd:
        return QPolynomial.zero()
    return r.num.coeff_of_v(dn).divide_exact(r.den.coeff_of_v(dd))


class XPolynomial(_Laurent):
    """Laurent polynomial in x over an arbitrary coefficient ring."""

    __slots__ = ()

    @classmethod
    def constant(cls, coeff):
        return cls({0: coeff})

    @classmethod
    def from_q_terms(cls, xq_terms):
        """Build from {x_exp: {q_exp: coeff}} nested dicts."""
        return cls({e: QPolynomial(t) for e, t in xq_terms.items()})

    def __mul__(self, other):
        return XPolynomial.from_pairs(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    def x_shift(self, k):
        return XPolynomial({e + k: c for e, c in self.terms.items()})

    def mirror_x(self):
        """The involution x -> x^-1."""
        return XPolynomial({-e: c for e, c in self.terms.items()})

    def map_coeffs(self, fn):
        return XPolynomial({e: fn(c) for e, c in self.terms.items()})

    def truncate_x(self, bound):
        return XPolynomial({e: c for e, c in self.terms.items() if abs(e) <= bound})

    def coefficient(self, e):
        return self.terms.get(e)

    def eval_at_ones(self):
        """Total coefficient mass: x = 1 and q = 1 (QPolynomial coefficients)."""
        return sum(c.eval_at_one() for c in self.terms.values())

    def render(self):
        """Canonical text: x-terms ascending, QPolynomial coeffs ascending in q."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            cs = c.render()
            multi = len(getattr(c, "terms", {})) > 1
            if isinstance(c, RationalFunction) and c.den != BiPolynomial.one():
                cs = "(%s)/(%s)" % (c.num.render(), c.den.render())
                multi = False
                wrapped = cs
            else:
                wrapped = "(%s)" % cs if multi else cs
            if e == 0:
                chunks.append(wrapped)
                continue
            xs = "x" if e == 1 else "x^%d" % e
            if wrapped == "1":
                chunks.append(xs)
            elif wrapped == "-1":
                chunks.append("-" + xs)
            else:
                chunks.append(wrapped + "*" + xs)
        text = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-"):
                text += " - " + chunk[1:]
            else:
                text += " + " + chunk
        return text

