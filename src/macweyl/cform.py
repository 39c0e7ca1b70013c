"""Coefficient tables c_r / c_r-dagger and the eight specialized
E-polynomial closed forms built from them.

Each table exists twice: by its defining recurrence and in closed form as a
q-power times a base-q^2 trinomial.  The two must agree; verify's
recurrences suite and the tests check this exhaustively.  rec_layers
unrolls the recurrences, written as data in _RECURRENCES, on packed
integers at q = 2^(8 w): one layer of index sum t from the one before, by
integer shifts and adds, with no q-binomial.  This is carry-free when
3^t < 2^(8 w - 1).  The recurrences only add terms with nonnegative
coefficients, and at q = 1 each is Pascal's rule for trinomial
coefficients, so an entry of index sum t totals its trinomial coefficient,
at most 3^t, at q = 1.  Every digit of an entry, and of each partial sum,
is at most that total.

The closed forms are computed on packed integers in Q = q^2: a polynomial in
Q is one nonnegative integer whose base-2^(8 w) digit i is its Q^i
coefficient.  Every table entry of index sum t is

    q^shift * [t; k22, kmid, k11]_Q,
    [t; k22, kmid, k11]_Q = [t, k22]_Q [t - k22, kmid]_Q,

so the trinomials of one total t serve both families and both r.
_trinomials builds them once per (t, w) into a table T[k22][kmid], each the
product of two packed binomials at spacing 1, formed once per set of lower
indices (the trinomial is symmetric in them).  The binomials are the
Pascal rows m <= t of qcomb.pascal_rows, read at z = Q; the tests' reference
binomials are QPolynomial dicts in tests/references.py.  A shift s = 2 a + p is
a shift by a digits of Q times q^p, p the parity of s.  c_closed and
cdag_closed read one entry back.  E_spec keeps two accumulators per
x-coefficient, one per parity p of the q-shift, each the sum of Q^a T over
its terms: every term costs one shift and one add, and digit i of the
accumulator of parity p is the q^(2 i + p) coefficient.

This is exact.  Every table entry has nonnegative coefficients, and the
trinomials over all triples of total t add up to 3^t at q = 1, so the
entries of one E_spec(n) total 3^|n|, 3^(|n|-1) or 2 * 3^(|n|-1) at q = x =
1.  Digit i of a parity-p accumulator sums the q^(2 i + p) coefficients of
its terms; the terms of the other parity have none, so it sums a subset of
the same nonnegative coefficients as that coefficient of the result, and
any partial sum a subset of those: it is at most the total.  A digit of a
table entry is one trinomial coefficient, at most 3^t; a digit of
[m, j]_Q, m <= t, is at most (m choose j) < 3^t.  These are the bounds of a
packing in q at spacing 2, unchanged: with 2 * 3^|n| < 2^(8 w - 1) (E_spec)
or 3^t < 2^(8 w - 1) (c_closed), no digit reaches the sign bit of its w
bytes, digits never carry into each other, and QPolynomial.from_packed
reads each one back.  Packing in Q halves the
digits and drops the zero ones that spacing 2 leaves between them.

Memory: an lru_cache keeps at most _TABLES tables.  The table of (t, w)
holds (t + 1)(t + 2) / 2 entries, about a sixth of them distinct, of at
most t^2 / 3 + 1 digits of w bytes each: under 1 MB at t = 32 and 8 bytes.
The Pascal rows live only while a table is built: about t^4 / 24 digits,
10 MB at t = 64 and 13 bytes (E_spec at |n| = 64).
"""

from functools import lru_cache

from macweyl.qcomb import pascal_rows
from macweyl.ring import QPolynomial, XPolynomial, check_size, packed_width
from macweyl.walks import FAMILIES, normalize_spec


def _shift(family, r, k22, kmid):
    """q-power of the closed form of c_r (A2, kmid = k12) or c_r-dagger
    (A2dagger, kmid = k21) in front of its base-q^2 trinomial."""
    if family == "A2":
        return kmid * kmid + (2 * k22 if r == 1 else 0)
    return kmid * (kmid - 1) + (2 * k22 + 2 * kmid if r == 1 else 0)


# The number of (total, width) trinomial tables kept: E_spec(n) reads one,
# the duality and section-4 suites at most two in turn at each n, and the
# recurrences suite one (t, 2 w) table per total t, once.
_TABLES = 4


@lru_cache(maxsize=_TABLES)
def _trinomials(total, width):
    """T[k22][kmid] = [total; k22, kmid, total - k22 - kmid]_Q packed at
    `width` bytes a digit, Q = q^2; see the module docstring.  A trinomial
    is symmetric in its three lower indices, so it is formed once, as
    [total, a]_Q [total - a, b]_Q for its indices sorted a <= b <= c."""
    pascal = pascal_rows(total, width)
    products = {}
    table = []
    for k22 in range(total + 1):
        row = []
        for kmid in range(total - k22 + 1):
            a, b, _ = key = tuple(sorted((k22, kmid, total - k22 - kmid)))
            if key not in products:
                products[key] = pascal[total][a] * pascal[total - a][b]
            row.append(products[key])
        table.append(row)
    return table


def _closed(family, r, k22, kmid, k11):
    if k22 < 0 or kmid < 0 or k11 < 0:
        return QPolynomial.zero()
    total = k22 + kmid + k11
    width = packed_width(3**total)
    shift = _shift(family, r, k22, kmid)
    return QPolynomial.from_packed(
        _trinomials(total, width)[k22][kmid] << 8 * width * (shift >> 1), width, 2, shift & 1)


def c_closed(r, k22, k12, k11):
    return _closed("A2", r, k22, k12, k11)


def cdag_closed(r, k22, k21, k11):
    return _closed("A2dagger", r, k22, k21, k11)


# The defining recurrences of c_r (A2) and c_r-dagger (A2dagger), for
# rec_layers: family -> r -> one (source r, a, d) per index that steps
# down, in the order k22, kmid, k11:
# entry r at (k22, kmid, k11) of index sum t is the sum of q^(a t + d) times
# entry (source r) at that index minus one.
_RECURRENCES = {
    "A2": {1: ((2, 2, 0), (2, 2, -1), (1, 0, 0)),
           2: ((2, 0, 0), (2, 2, -1), (1, 0, 0))},
    "A2dagger": {1: ((2, 2, 0), (1, 2, 0), (1, 0, 0)),
                 2: ((2, 0, 0), (1, 0, 0), (1, 0, 0))},
}


def rec_layers(family, bound, width):
    """Yield the entries of index sum t = 0, ..., bound of both tables of
    `family` by their recurrences: {r: rows}, rows[k22][kmid] the entry at
    (k22, kmid, t - k22 - kmid) packed at q = 2^(8 width).  Each layer is
    integer shifts and adds of the one before, the only one kept; every
    digit reads back when 3^bound < 2^(8 width - 1) (the module
    docstring)."""
    bits = 8 * width
    rules = _RECURRENCES[family]
    layer = {1: [[1]], 2: [[1]]}
    yield layer
    for t in range(1, bound + 1):
        prev, layer = layer, {}
        for r, terms in rules.items():
            (r22, s22), (rmid, smid), (r11, s11) = [
                (source, bits * (a * t + d)) for source, a, d in terms]
            rows = []
            for k22 in range(t + 1):
                # Steps down k22, kmid and k11 read rows k22 - 1, k22 and k22
                # of the layer before.
                down22 = prev[r22][k22 - 1] if k22 else ()
                downmid, down11 = (prev[rmid][k22], prev[r11][k22]) if k22 < t else ((), ())
                top = t - k22
                rows.append([(down22[kmid] << s22 if k22 else 0)
                             + (downmid[kmid - 1] << smid if kmid else 0)
                             + (down11[kmid] << s11 if kmid < top else 0)
                             for kmid in range(top + 1)])
            layer[r] = rows
        yield layer


def _triples(total):
    for k22 in range(total + 1):
        for k12 in range(total - k22 + 1):
            yield k22, k12, total - k22 - k12


def _terms(family, n, spec):
    """(total, sign, terms): E_spec(family, n, spec), n != 0, sums over the
    triples (k22, kmid, k11) of `total` the monomials x^(sign (k11 - k22) +
    x_offset) q^q_shift times table entry r at (k22, kmid, k11), one for
    each (r, x_offset, q_shift) in terms."""
    if n < 0:
        # Triples of -n: t0 sums c_2 (mirrored, at x^(k22 - k11), for A2),
        # tinf c_1.
        mirror = family == "A2" and spec == "t0"
        return -n, -1 if mirror else 1, ((2 if spec == "t0" else 1, 0, 0),)
    # Triples of n - 1, at x^(k11 - k22 + 1) but for A2's t0 c_2 term.
    if family == "A2" and spec == "t0":
        # The printed sum over the triples of n of q^(2n-1) c_2(k22 - 1,
        # k12, k11) + c_1(k22, k12 - 1, k11) at x^(k11 - k22 + 1), reindexed.
        return n - 1, 1, ((2, 0, 2 * n - 1), (1, 1, 0))
    if family == "A2":
        return n - 1, 1, ((2, 1, 0),)
    if spec == "t0":
        return n - 1, 1, ((1, 1, 0),)
    return n - 1, 1, ((2, 1, 0), (1, 1, 0))


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
    bits = 8 * width
    total, sign, terms = _terms(family, n, spec)
    sums = {}  # (x, parity of the q-shift) -> packed sum in Q
    for k22, row in enumerate(_trinomials(total, width)):
        for kmid, entry in enumerate(row):
            x = sign * (total - kmid - 2 * k22)
            for r, x_offset, q_shift in terms:
                shift = _shift(family, r, k22, kmid) + q_shift
                key = (x + x_offset, shift & 1)
                sums[key] = sums.get(key, 0) + (entry << bits * (shift >> 1))

    coeffs = {}
    for (x, parity), value in sums.items():
        poly = QPolynomial.from_packed(value, width, 2, parity)
        coeffs[x] = coeffs[x] + poly if x in coeffs else poly
    return XPolynomial(coeffs)


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
