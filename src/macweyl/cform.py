"""Coefficient tables c_r / c_r-dagger and the eight specialized
E-polynomial closed forms built from them.

Each table exists twice: once by unrolling its defining recurrence (with
memoization) and once in closed form as a q-power times a base-q^2
trinomial.  The two must agree; the test suite checks this exhaustively.

The closed forms are computed on packed integers: a polynomial is one
nonnegative integer whose base-2^(8 w) digit i is its q^i coefficient.  A
table entry q^shift * (k22 + k + k11; k22, k, k11)_(q^2) is the product of
two packed base-q^2 binomials, shifted left by `shift` digits.  c_closed and
cdag_closed read one entry back, its digits below 3^(k22 + k + k11), the
trinomial's value at q = 1.  E_spec sums entries into one packed integer per
x-coefficient, so every term costs one integer multiply, one shift and one
add.  This is exact: every
table entry has nonnegative coefficients, and at q = 1 the trinomials over
all triples of total t add up to 3^t, so the entries of one E_spec(n) total
3^|n|, 3^(|n|-1) or 2 * 3^(|n|-1) at q = x = 1.  With 2 * 3^|n| < 2^(8 w - 1)
no digit of any product or partial sum reaches the sign bit of its w bytes,
digits never carry into each other, and QPolynomial.from_packed reads each
one back.
"""

from functools import lru_cache

from macweyl.qcomb import packed_q_binomial
from macweyl.ring import QPolynomial, XPolynomial, check_size, packed_width
from macweyl.walks import FAMILIES, normalize_spec


@lru_cache(maxsize=None)
def c_rec(r, k22, k12, k11):
    if k22 < 0 or k12 < 0 or k11 < 0:
        return QPolynomial.zero()
    if (k22, k12, k11) == (0, 0, 0):
        return QPolynomial.one()
    n = k22 + k12 + k11
    mid = QPolynomial.q_power(2 * n - 1) * c_rec(2, k22, k12 - 1, k11)
    last = c_rec(1, k22, k12, k11 - 1)
    if r == 1:
        return QPolynomial.q_power(2 * n) * c_rec(2, k22 - 1, k12, k11) + mid + last
    return c_rec(2, k22 - 1, k12, k11) + mid + last


def _shift(family, r, k22, kmid):
    """q-power of the closed form of c_r (A2, kmid = k12) or c_r-dagger
    (A2dagger, kmid = k21) in front of its base-q^2 trinomial."""
    if family == "A2":
        return kmid * kmid + (2 * k22 if r == 1 else 0)
    return kmid * (kmid - 1) + (2 * k22 + 2 * kmid if r == 1 else 0)


def _packed_entry(family, r, k22, kmid, k11, width, q_shift=0):
    """q^q_shift times table entry r of family at (k22, kmid, k11), packed at
    `width` bytes a digit: q^shift * (k22 + kmid + k11; k22, kmid, k11)_(q^2)
    is the product of two packed base-q^2 binomials, shifted left by `shift`
    digits.  0 when an index is negative."""
    if k22 < 0 or kmid < 0 or k11 < 0:
        return 0
    total = k22 + kmid + k11
    trinomial = (packed_q_binomial(total, k22, 2, width)
                 * packed_q_binomial(total - k22, kmid, 2, width))
    return trinomial << 8 * width * (_shift(family, r, k22, kmid) + q_shift)


def _closed(family, r, k22, kmid, k11):
    width = packed_width(3 ** max(k22 + kmid + k11, 0))
    return QPolynomial.from_packed(_packed_entry(family, r, k22, kmid, k11, width), width)


def c_closed(r, k22, k12, k11):
    return _closed("A2", r, k22, k12, k11)


@lru_cache(maxsize=None)
def cdag_rec(r, k22, k21, k11):
    if k22 < 0 or k21 < 0 or k11 < 0:
        return QPolynomial.zero()
    if (k22, k21, k11) == (0, 0, 0):
        return QPolynomial.one()
    n = k22 + k21 + k11
    last = cdag_rec(1, k22, k21, k11 - 1)
    if r == 1:
        q2n = QPolynomial.q_power(2 * n)
        return q2n * cdag_rec(2, k22 - 1, k21, k11) + q2n * cdag_rec(1, k22, k21 - 1, k11) + last
    return cdag_rec(2, k22 - 1, k21, k11) + cdag_rec(1, k22, k21 - 1, k11) + last


def cdag_closed(r, k22, k21, k11):
    return _closed("A2dagger", r, k22, k21, k11)


def _triples(total):
    for k22 in range(total + 1):
        for k12 in range(total - k22 + 1):
            yield k22, k12, total - k22 - k12


def E_spec(family, n, spec):
    """Closed-form specialized E-polynomial, exactly as the tables dictate.

    spec is "t0" or "tinf" (the latter meaning the q -> q^-1 substituted
    t = infinity limit).  n may be any integer; n = 0 gives 1.
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    spec = normalize_spec(spec)
    if n == 0:
        return XPolynomial.constant(QPolynomial.one())

    width = packed_width(2 * 3 ** abs(n))
    sums = {}

    def put(x_exp, r, k22, kmid, k11, q_shift=0):
        # x^x_exp q^q_shift times table entry r at (k22, kmid, k11), if any.
        entry = _packed_entry(family, r, k22, kmid, k11, width, q_shift)
        sums[x_exp] = sums.get(x_exp, 0) + entry

    if family == "A2":
        if n < 0 and spec == "t0":
            for k22, k12, k11 in _triples(-n):
                put(k22 - k11, 2, k22, k12, k11)
        elif n > 0 and spec == "t0":
            for k22, k12, k11 in _triples(n):
                put(k11 - k22 + 1, 2, k22 - 1, k12, k11, 2 * n - 1)
                put(k11 - k22 + 1, 1, k22, k12 - 1, k11)
        elif n < 0 and spec == "tinf":
            for k22, k12, k11 in _triples(-n):
                put(k11 - k22, 1, k22, k12, k11)
        else:  # n > 0, tinf: sums over triples totalling n-1
            for k22, k12, k11 in _triples(n - 1):
                put(k11 - k22 + 1, 2, k22, k12, k11)
    else:
        if n < 0 and spec == "t0":
            for k22, k21, k11 in _triples(-n):
                put(k11 - k22, 2, k22, k21, k11)
        elif n > 0 and spec == "t0":
            for k22, k21, k11 in _triples(n - 1):
                put(k11 - k22 + 1, 1, k22, k21, k11)
        elif n < 0 and spec == "tinf":
            for k22, k21, k11 in _triples(-n):
                put(k11 - k22, 1, k22, k21, k11)
        else:  # n > 0, tinf
            for k22, k21, k11 in _triples(n - 1):
                put(k11 - k22 + 1, 2, k22, k21, k11)
                put(k11 - k22 + 1, 1, k22, k21, k11)

    return XPolynomial({x: QPolynomial.from_packed(v, width) for x, v in sums.items()})


def ctable(family, r, max_n):
    """All table values with index sum <= max_n, as (key, value) pairs."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2, got %r" % (r,))
    if max_n < 0:
        raise ValueError("max_n must be nonnegative, got %d" % max_n)
    check_size("ctable", max_n)
    out = []
    for total in range(max_n + 1):
        for key in _triples(total):
            out.append((key, _closed(family, r, *key)))
    return out
