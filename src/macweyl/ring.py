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
read as constants, addition, negation, subtraction, ``sorted_terms`` and the
sign-and-term rendering loop.  Each subclass adds its product, its
per-variable methods and the text of one term:

* ``QPolynomial``   -- Z[q, q^-1], keys are q-exponents.
* ``BiPolynomial``  -- Z[q^±1, v^±1], keys are (q-exponent, v-exponent).
  It multiplies but no longer divides: the walk sum cancels its step
  binomials on ``ramyip``'s own packed rows.
* ``XPolynomial``   -- Laurent polynomial in x over any of the rings here,
  or holding RationalFunction values to render; it renders its own text,
  with each coefficient in brackets.

``RationalFunction`` is a quotient num/den of two BiPolynomials, a value
that is rendered and compared but not computed with.  No gcd reduction is
performed; equality is decided by cross-multiplication.

A ``QPolynomial`` product shifts and scales the other operand's terms when
one operand is an int, zero or a single term, and runs the schoolbook double
loop otherwise.  Callers with large products work on packed integers in the
one format defined here: ``packed_width`` picks a width of w bytes that keeps
a coefficient bound below 2^(8w-1), and ``QPolynomial.from_packed`` reads an
integer whose each w-byte group, read in two's complement, is one coefficient
back as a polynomial, in q or, group i at q^(2i + offset), in q^2
(``weylchar`` characters, the ``cform`` tables, ``E_spec`` and ``ramyip``'s
signed rows, biased into that form).
"""

from __future__ import annotations

from struct import unpack


class BoundExceeded(ValueError):
    """An input lies beyond the size a route is configured to compute."""


# Largest |n| each route accepts, so that an accepted input finishes in
# seconds, not minutes, on a 2-core x86 VM.  The walks (walks.walk_rows,
# enumerate_walks) number 2^l, l about 2|n|: the `walks` dump in JSON takes
# 1.6 s and 300 MB and prints 84 MB at n = -9 (0.9 s, 150 MB and 41 MB at
# n = 9), so the limit is the output's size.  weylchar.enumerate_basis lists
# about 3^n monomials: n = 12 bases take 14 s and 1.3 GB.  Each step further
# costs 2-4x more.  ramyip.specialize's two routes are
# polynomial in n, on packed rows 0.1-0.2 s together at |n| = 16 and 0.6-1.7 s
# at |n| = 32 (A2dagger the slower); ramyip.ramyip_sum keeps every
# v-exponent, and `epoly --spec full --format json` takes 0.25 s and prints
# 1.7 MB at n = -12 (0.4 s and 3.2 MB at -14).  fusion.fusion_character, in
# the lowest-weight quotients, takes 0.1 / 0.3 s (untwisted / twisted) at
# n = 6, 0.7-1.0 / 4.6-5.2 s at n = 7 and 18 / 120 s at n = 8.
# The closed-form characters (weylchar.ch_W, ch_W_sigma, ch_D) stop at the
# closed-forms ladder's top rung, |n| = 64, where a JSON job takes under a
# second at either sign; past it the negative weights are bound by memory
# (about 700 MB of output at n = -128).  The table inputs are bounded by a
# max_n: cform.ctable at 32 (2.8 s, 370 MB), and the verify suites
# (verify._SUITES) at recurrences 40 (1.2-1.8 s and 110 MB, packed integers;
# 48 takes 5.1 s) and duality 32 (1.6-2.4 s; 36 takes 5.3 s and 48 36 s).
# weylchar.limit_char grows as qmax^1.5, the partition series and the theta
# sum over it: at qmax 4096 a kind takes 0.1-0.3 s at xmax 8 (8192: 0.2-0.6
# s), and 1.4 s and 50 MB of JSON at any xmax, as a theta sum reaches no
# |x-exponent| past 2 isqrt(qmax) + 2.
SIZE_LIMITS = {"walks": 9, "basis": 12, "specialize": 32, "sum": 12,
               "fusion_oracle": 7, "characters": 64, "ctable": 32,
               "recurrences": 40, "duality": 32, "limitchar": 4096}


def check_size(name, n):
    """Raise BoundExceeded, before any work, when |n| > SIZE_LIMITS[name]."""
    if abs(n) > SIZE_LIMITS[name]:
        raise BoundExceeded("%s is limited to |n| <= %d" % (name, SIZE_LIMITS[name]))


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

    @classmethod
    def from_pairs(cls, pairs):
        """The sum of the (exponent, coefficient) pairs, which may repeat an
        exponent; a coefficient that sums to zero is dropped."""
        out = {}
        for e, c in pairs:
            out[e] = out[e] + c if e in out else c
        return cls(out)

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
        # One copy of self: a sum that cancels is deleted where it is made.
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            if e in out:
                c = out[e] + c
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return self._nonzero(out)

    __radd__ = __add__

    def __neg__(self):
        return self._nonzero({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

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
    def from_packed(cls, value, width, step=1, offset=0):
        """sum_i d_i q^(offset + step i), d_i the i-th `width`-byte group of
        the nonnegative integer `value` read in two's complement: its
        base-2^(8*width) digit when every digit lies below 2^(8*width-1).
        step = 2 reads a polynomial packed in Q = q^2."""
        raw = value.to_bytes(-(-value.bit_length() // (8 * width)) * width, "little")
        digits = _bytes_to_digits(raw, width)
        exps = range(offset, offset + step * len(digits), step)
        return cls._nonzero({e: c for e, c in zip(exps, digits) if c})

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
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

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

    @staticmethod
    def _term_str(c, e):
        if e == 0:
            return str(c)
        qs = "q" if e == 1 else "q^%d" % e
        return qs if c == 1 else "%d*%s" % (c, qs)


# struct codes of the signed little-endian digit widths read in one call.
_STRUCT_CODES = {1: "<%db", 2: "<%dh", 4: "<%di", 8: "<%dq"}


def packed_width(bound):
    """Digit width w in bytes with bound < 2^(8*w-1), rounded up to a width
    that struct unpacks in one call where there is one."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in _STRUCT_CODES if width <= w), width)


def _bytes_to_digits(raw, width):
    code = _STRUCT_CODES.get(width)
    if code:
        return unpack(code % (len(raw) // width), raw)
    return [
        int.from_bytes(raw[i:i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    ]


class BiPolynomial(_Laurent):
    """Integer-coefficient Laurent polynomial in q and v; keys (qe, ve)."""

    __slots__ = ()

    _ORIGIN = (0, 0)

    @classmethod
    def monomial(cls, coeff, q_exp=0, v_exp=0):
        return cls({(q_exp, v_exp): coeff})

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

    def v_min(self):
        return min(ve for (_, ve) in self.terms) if self.terms else None

    def v_max(self):
        return max(ve for (_, ve) in self.terms) if self.terms else None

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
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def render(self):
        if self.den == BiPolynomial.one():
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())


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

    def x_shift(self, k):
        return XPolynomial({e + k: c for e, c in self.terms.items()})

    def mirror_x(self):
        """The involution x -> x^-1."""
        return XPolynomial({-e: c for e, c in self.terms.items()})

    def map_coeffs(self, fn):
        return XPolynomial({e: fn(c) for e, c in self.terms.items()})

    def eval_at_ones(self):
        """Total coefficient mass: x = 1 and q = 1 (QPolynomial coefficients)."""
        return sum(c.eval_at_one() for c in self.terms.values())

    def render(self):
        """Canonical text: x-terms ascending, QPolynomial coeffs ascending in q."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            if isinstance(c, RationalFunction) and c.den == BiPolynomial.one():
                c = c.num  # a rational function over 1 is wrapped like its numerator
            cs = str(c) if isinstance(c, int) else c.render()
            wrapped = "(%s)" % cs if len(getattr(c, "terms", {})) > 1 else cs
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

