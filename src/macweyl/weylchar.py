"""Characters and bases of the Weyl modules for the osp(1|2) current
superalgebra, twisted and untwisted, for negative and positive weights;
PBW-graded characters; and truncated limit characters.  (The comparison
of these characters with the specialized E-polynomials is
verify.verify_section4.)

Basis monomials apply e-generators (weight +2 each) and odd g-generators
(weight +1 each) to a lowest- or highest-weight vector; the inequalities on
the generator t-degrees depend on the module family ("kind").

The closed-form characters ch_W and ch_W_sigma keep each x-coefficient as one
packed integer whose base-2^(8 w) digit i is its q^i coefficient, so a
q-shift is an integer shift and a sum of terms an integer sum.  All terms are
nonnegative and a character of weight n totals 3^|n| (n <= 0) or
b * 3^(n-1) (n > 0; b = 1 untwisted, 2 twisted) at q = x = 1, and w is
chosen with that total below 2^(8 w - 1), so no digit of any partial result
spills into the next and each reads back exactly; see _lowest_weight_char
(n <= 0, a three-term recurrence) and _highest_weight_char (n > 0, the
paper's double sum).
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from macweyl.qcomb import euler_product_truncated, packed_q_binomial, q_binomial
from macweyl.ring import QPolynomial, XPolynomial, check_size, packed_width

KINDS = (
    "untwisted_neg",
    "twisted_neg",
    "untwisted_pos",
    "twisted_pos",
    "twisted_pos_1",
    "twisted_pos_2",
    "classical",
    "limit",
)


@dataclass(frozen=True)
class BasisMonomial:
    kind: str
    e_degrees: tuple
    g_degrees: tuple
    weight: int
    t_degree: int
    pbw_degree: int


def enumerate_basis(kind, n):
    """All basis monomials of the given kind for parameter n."""
    if kind == "twisted_pos":
        return enumerate_basis("twisted_pos_1", n) + enumerate_basis("twisted_pos_2", n)
    return [BasisMonomial(kind, *m) for m in _basis_tuples(kind, n)]


def _basis_tuples(kind, n):
    """Yield (e_degrees, g_degrees, weight, t_degree, pbw_degree) for every
    basis monomial of one kind (not the union "twisted_pos")."""
    if kind not in KINDS or kind == "twisted_pos":
        raise ValueError("unknown basis kind %r" % (kind,))
    positive_kind = kind in ("untwisted_pos", "twisted_pos_1", "twisted_pos_2")
    if n < 0 or (positive_kind and n < 1):
        raise ValueError("n out of range for kind %s" % kind)
    check_size("basis", n)

    if kind == "untwisted_neg":
        for k in range(n + 1):
            for bs in combinations(range(n), k):
                for s in range(n - k + 1):
                    for a in combinations_with_replacement(range(n - k - s + 1), s):
                        yield (a, bs, -n + k + 2 * s, sum(a) + sum(bs), k + s)
    elif kind == "twisted_neg":
        for k in range(n + 1):
            for bs in combinations(range(1, 2 * n, 2), k):
                for s in range(n - k + 1):
                    vals = range(0, 2 * (n - k - s) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, bs, -n + k + 2 * s, sum(a) + sum(bs), s)
    elif kind == "untwisted_pos":
        for k in range(n):
            for bs in combinations(range(1, n), k):
                for s in range(n - k):
                    for a in combinations_with_replacement(range(1, n - k - s + 1), s):
                        yield (a, bs, n - k - 2 * s, sum(a) + sum(bs), k + s)
    elif kind == "twisted_pos_1":
        for k in range(n):
            for bs in combinations(range(1, 2 * n - 2, 2), k):
                for s in range(n - k):
                    vals = range(2, 2 * (n - s - k) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, bs, n - k - 2 * s, sum(a) + sum(bs), s)
    elif kind == "twisted_pos_2":
        for k in range(1, n + 1):
            for bs in combinations(range(1, 2 * n - 2, 2), k - 1):
                full = bs + (2 * n - 1,)
                for s in range(n - k + 1):
                    vals = range(0, 2 * (n - s - k) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, full, n - k - 2 * s, sum(a) + sum(full), s)
    elif kind == "classical":
        for k in range(n + 1):
            for a in combinations_with_replacement(range(n - k + 1), k):
                yield (a, (), -n + 2 * k, sum(a), k)
    else:  # limit: odd generators truncated below t-degree n, renormalized grading
        for k in range(n + 1):
            for cs in combinations(range(n), k):
                for s in range(k + 1):
                    for a in combinations_with_replacement(range(k - s + 1), s):
                        yield (a, cs, -k + 2 * s, sum(cs) - sum(a), 0)


def character_from_basis(kind, n):
    """sum over basis monomials of q^(t-degree) x^(weight)."""
    return XPolynomial.from_pairs(
        (m.weight, QPolynomial.q_power(m.t_degree)) for m in enumerate_basis(kind, n)
    )


def ch_D(n):
    """Character of the classical module of lowest weight -n (dimension 2^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_size("characters", n)
    return XPolynomial({-n + 2 * k: q_binomial(n, k) for k in range(n + 1)})


def _lowest_weight_char(m, b):
    """ch_W(-m) (b = 1) or ch_W_sigma(-m) (b = 2) by a three-term recurrence.

    The closed forms sum_{k,s} q^(b k(k-1)/2 + (b-1)k) [m,k] [m-k,s]
    x^(-m+k+2s), binomials in base Q = q^b, have by the q-binomial theorem
    the generating function sum_m F_m t^m / (Q;Q)_m
    = (-q^(b-1) t; Q)_inf / ((t x; Q)_inf (t/x; Q)_inf); comparing it at t
    and Q t gives

        F_m = (x + 1/x + q^(b m - 1)) F_(m-1) - (1 - q^(b (m-1))) F_(m-2),

    with F_0 = 1.  So no polynomial product is needed.  Each x-coefficient is
    kept as one integer whose base-2^(8 w) digit i is its q^i coefficient:
    multiplying by q^e is a shift and the recurrence is integer shifts and
    adds.  Every coefficient of F_j is nonnegative and at most F_j(1, 1) = 3^j,
    and w is chosen with 3^m < 2^(8 w - 1), so each F_j's integers have valid
    digits and read back exactly, whatever the order of the additions.
    """
    width = packed_width(3**m)
    bits = 8 * width
    prev, cur = {}, {0: 1}
    for j in range(1, m + 1):
        up, down = bits * (b * j - 1), bits * b * (j - 1)
        nxt = {}
        for x in range(-j, j + 1):
            p = prev.get(x, 0)
            nxt[x] = (cur.get(x - 1, 0) + cur.get(x + 1, 0) + (cur.get(x, 0) << up)
                      + (p << down) - p)
        prev, cur = cur, nxt
    return XPolynomial({x: QPolynomial.from_packed(v, width) for x, v in cur.items()})


def _highest_weight_char(n, b):
    """ch_W(n) (b = 1) or ch_W_sigma(n) (b = 2) for n >= 1, by the paper's
    double sum over 0 <= k < n, 0 <= s < n - k, binomials in base Q = q^b:

        b = 1: q^(k(k+1)/2) [n-1, k] q^s [n-k-1, s] x^(n-k-2s),
        b = 2: q^(k^2) [n-1, k] [n-k-1, s] (q^(2s) x^(n-k-2s) + q^(2n-1) x^(n-k-2s-1)).

    Each x-coefficient is summed as one packed integer, as in
    _lowest_weight_char: a term is the product of two packed binomials
    (qcomb.packed_q_binomial) shifted by its q-power.  Every term has
    nonnegative coefficients and the sum is b * 3^(n-1) at q = x = 1, so with
    b * 3^n < 2^(8 w - 1) no digit of a product or partial sum overflows and
    each reads back exactly.
    """
    width = packed_width(b * 3**n)
    bits = 8 * width
    sums = {}
    for k in range(n):
        outer = packed_q_binomial(n - 1, k, b, width) << bits * (
            k * (k + 1) // 2 if b == 1 else k * k)
        for s in range(n - k):
            x = n - k - 2 * s
            term = outer * packed_q_binomial(n - k - 1, s, b, width)
            sums[x] = sums.get(x, 0) + (term << bits * b * s)
            if b == 2:
                sums[x - 1] = sums.get(x - 1, 0) + (term << bits * (2 * n - 1))
    return XPolynomial({x: QPolynomial.from_packed(v, width) for x, v in sums.items()})


def ch_W(n):
    """Closed-form character of the untwisted module, any integer weight."""
    check_size("characters", n)
    if n <= 0:
        return _lowest_weight_char(-n, 1)
    return _highest_weight_char(n, 1)


def ch_W_sigma(n):
    """Closed-form character of the twisted module, any integer weight."""
    check_size("characters", n)
    if n <= 0:
        return _lowest_weight_char(-n, 2)
    return _highest_weight_char(n, 2)


def pbw_character(n, twisted=False):
    """Triple-graded data for the associated graded of the weight -n module.

    Yields one (x_weight, t_degree, pbw_degree) triple per basis monomial.
    The filtration counts applications of the raising half (e and g+ in the
    untwisted case, e alone in the twisted case).
    """
    kind = "twisted_neg" if twisted else "untwisted_neg"
    for _, _, w, t, p in _basis_tuples(kind, n):
        yield w, t, p


def pbw_character_specialized(n, twisted=False):
    """PBW character specialized for comparison with the t=infinity limits.

    Untwisted: substitute q -> q^2 in both gradings; twisted: leave both at
    q.  Either way the filtration variable is identified with q.
    """
    scale = 1 if twisted else 2
    terms = {}
    for w, t, p in pbw_character(n, twisted):
        by_q = terms.setdefault(w, {})
        e = scale * (t + p)
        by_q[e] = by_q.get(e, 0) + 1
    return XPolynomial.from_q_terms(terms)


LIMIT_KINDS = ("untwisted", "twisted", "classical_even", "classical_odd")

_LIMIT_FACTOR = {
    "untwisted": "untwisted_pair",
    "twisted": "twisted_pair",
    "classical_even": "classical_theta_even",
    "classical_odd": "classical_theta_odd",
}


def limit_char(kind, q_bound, x_bound):
    """Truncated product/theta form of the stable limit character."""
    if kind not in LIMIT_KINDS:
        raise ValueError("unknown limit kind %r" % (kind,))
    if q_bound < 0 or x_bound < 0:
        raise ValueError("truncation bounds must be nonnegative")
    return euler_product_truncated(_LIMIT_FACTOR[kind], q_bound, x_bound)


def approximant(kind, n, q_bound, x_bound):
    """Renormalized finite character approximating the limit.

    The finite character is evaluated at q -> q^-1 and shifted by the
    q-power that pins its top-degree stratum at zero; coefficients of
    q-degree at most floor((n-1)/2) are trusted.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q_bound < 0 or x_bound < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if kind == "untwisted":
        poly, shift = ch_W(-n), n * (n - 1) // 2
    elif kind == "twisted":
        poly, shift = ch_W_sigma(-n), n * n
    elif kind in ("classical_even", "classical_odd"):
        if kind == "classical_even" and n % 2 or kind == "classical_odd" and n % 2 == 0:
            raise ValueError("parity of n does not match the classical kind")
        poly, shift = ch_D(n), (n // 2) * ((n + 1) // 2)
    else:
        raise ValueError("unknown limit kind %r" % (kind,))
    q_shift = QPolynomial.q_power(shift)
    return XPolynomial({
        x: (q_shift * c.scale_exponents(-1)).truncate_above(q_bound).truncate_below(0)
        for x, c in poly.terms.items()
        if abs(x) <= x_bound
    })


def scale_q(poly, k):
    """Substitute q -> q^k in every coefficient of an XPolynomial."""
    return poly.map_coeffs(lambda c: c.scale_exponents(k))


def __getattr__(name):
    # verify_section4 is harness code and lives in verify; the old name stays
    # importable from here.  verify imports this module, hence the late import.
    if name == "verify_section4":
        from macweyl import verify

        return verify.verify_section4
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
