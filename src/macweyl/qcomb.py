"""Gaussian binomials, q-multinomials and truncated q-series products.

A truncated series is a plain XPolynomial cut to 0 <= q-exponent <= q_bound
and |x-exponent| <= x_bound; every coefficient it keeps is exact, so none is
reported beyond the degree to which it was actually computed.
"""

from functools import lru_cache

from macweyl.ring import QPolynomial, XPolynomial


@lru_cache(maxsize=None)
def _gauss(n, m):
    # Pascal recurrence in base q; exact, division-free.
    if m < 0 or m > n:
        return QPolynomial.zero()
    if m == 0 or m == n:
        return QPolynomial.one()
    return _gauss(n - 1, m) + QPolynomial.q_power(n - m) * _gauss(n - 1, m - 1)


def q_binomial(n, m, base_exponent=1):
    """Gaussian binomial [n choose m] in the variable q^base_exponent.

    Returns 0 when m is outside [0, n], mirroring the vanishing convention
    used by the coefficient tables.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = _gauss(n, m)
    if base_exponent == 1 or p.is_zero():
        return p
    return p.scale_exponents(base_exponent)


@lru_cache(maxsize=None)
def packed_q_binomial(n, m, spacing, width):
    """[n choose m] in q^spacing as one nonnegative integer whose base-2^(8*width)
    digit i is its q^i coefficient; 0 when m is outside [0, n].

    The caller picks `width` so that every digit of the sums and products it
    forms stays below 2^(8*width-1) (see ring.packed_width), and reads the
    result back with QPolynomial.from_packed.
    """
    if m < 0 or m > n:
        return 0
    digits = [0] * (spacing * m * (n - m) + 1)
    for e, c in _gauss(n, m).terms.items():
        digits[spacing * e] = c
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in digits]), "little")


def q_multinomial(k1, k2, k3, base_exponent=2):
    """Trinomial (k1+k2+k3 ; k1, k2, k3) in the given base; 0 on negatives."""
    if k1 < 0 or k2 < 0 or k3 < 0:
        return QPolynomial.zero()
    n = k1 + k2 + k3
    return q_binomial(n, k1, base_exponent) * q_binomial(n - k1, k2, base_exponent)


def _truncate_q(poly, q_bound):
    return poly.map_coeffs(lambda c: c.truncate_above(q_bound).truncate_below(0))


def _max_picks(exponents, q_bound):
    # Largest number of distinct factors whose smallest q-costs fit the bound.
    total = 0
    picks = 0
    for e in exponents:
        total += e
        if total > q_bound:
            break
        picks += 1
    return picks


def _one_side_product(exponents, x_step, q_bound, x_cap):
    """Expand prod (1 + q^e x^x_step) over the given exponents, truncated."""
    poly = XPolynomial.constant(QPolynomial.one())
    for e in exponents:
        q_e = QPolynomial.q_power(e)
        poly = poly + XPolynomial({
            xe + x_step: (q_e * c).truncate_above(q_bound)
            for xe, c in poly.terms.items()
            if abs(xe + x_step) <= x_cap
        })
    return poly


def _pair_product(exponents, q_bound, x_bound):
    exps = [e for e in exponents if e <= q_bound]
    slack = _max_picks(exps, q_bound)
    plus = _one_side_product(exps, +1, q_bound, x_bound + slack)
    minus = _one_side_product(exps, -1, q_bound, x_bound + slack)
    return _truncate_q((plus * minus).truncate_x(x_bound), q_bound)


def inv_pochhammer_truncated(k, q_bound):
    """1 / ((1-q)(1-q^2)...(1-q^k)), truncated to q-degree q_bound."""
    coeffs = [1] + [0] * q_bound
    for i in range(1, k + 1):
        for e in range(i, q_bound + 1):  # dividing by 1 - q^i adds the coefficient i below
            coeffs[e] += coeffs[e - i]
    return QPolynomial(dict(enumerate(coeffs[: q_bound + 1])))


def _theta_sum(parity, q_bound, x_bound):
    # sum over k of x^(2k) q^(k^2) (even) or x^(2k+1) q^(k(k+1)) (odd),
    # multiplied by the partition series 1 / prod_{i>=1} (1 - q^i); factors
    # with i > q_bound do not change it below q^(q_bound + 1).
    ps = inv_pochhammer_truncated(q_bound, q_bound)
    terms = {}
    for k in range(-(q_bound + x_bound + 2), q_bound + x_bound + 3):
        if parity == "even":
            xe, qe = 2 * k, k * k
        else:
            xe, qe = 2 * k + 1, k * (k + 1)
        if abs(xe) <= x_bound and qe <= q_bound:
            terms[xe] = (QPolynomial.q_power(qe) * ps).truncate_above(q_bound)
    return XPolynomial(terms)


def euler_product_truncated(factor_kind, q_bound, x_bound):
    """Truncated expansion of the named infinite product / theta quotient.

    untwisted_pair: prod (1+q^i x)(1+q^i x^-1), i >= 0.
    twisted_pair:   prod (1+q^(2i+1) x)(1+q^(2i+1) x^-1), i >= 0.
    single_plus:    prod (1+q^i x), i >= 0.
    classical_theta_even / _odd: theta-style sums divided by the eta-type
    product, expanded through the partition series.

    Result is exact for every retained coefficient: 0 <= q-exp <= q_bound and
    |x-exp| <= x_bound.
    """
    if factor_kind == "single_plus":
        exps = range(0, q_bound + 1)
        return _truncate_q(_one_side_product(exps, +1, q_bound, x_bound), q_bound)
    if factor_kind == "untwisted_pair":
        return _pair_product(range(0, q_bound + 1), q_bound, x_bound)
    if factor_kind == "twisted_pair":
        return _pair_product(range(1, q_bound + 1, 2), q_bound, x_bound)
    if factor_kind == "classical_theta_even":
        return _theta_sum("even", q_bound, x_bound)
    if factor_kind == "classical_theta_odd":
        return _theta_sum("odd", q_bound, x_bound)
    raise ValueError("unknown factor kind: %r" % (factor_kind,))


def wedge_lhs_truncated(q_bound, x_bound):
    """sum_k q^(k(k-1)/2) / (q)_k * x^k, truncated to the given bounds.

    Expanded independently of the product form so the two sides give a real
    identity check.
    """
    terms = {}
    for k in range(0, x_bound + 1):
        val = k * (k - 1) // 2
        if val > q_bound:
            break
        c = QPolynomial.q_power(val) * inv_pochhammer_truncated(k, q_bound - val)
        terms[k] = c.truncate_above(q_bound)
    return XPolynomial(terms)
