"""Gaussian binomials as packed Pascal rows, truncated q-series products and
theta sums.

pascal_rows builds the Gaussian binomials [m, j], m <= top, by Pascal's rule
on packed integers; cform reads them at z = Q = q^2 (its trinomial tables)
and weylchar.ch_D at z = q.  Nothing else in the package reads them: the
tests' reference binomials are QPolynomial dicts in tests/references.py.

A truncated series is a plain XPolynomial cut to 0 <= q-exponent <= q_bound
and |x-exponent| <= x_bound; every coefficient it keeps is exact, so none is
reported beyond the degree to which it was actually computed.
"""

from math import isqrt

from macweyl.ring import QPolynomial, XPolynomial


def pascal_rows(top, width):
    """rows[m][j] = [m, j]_z, 0 <= j <= m <= top, packed at z = 2^(8 width):
    base-2^(8 width) digit i is the z^i coefficient.  Pascal's rule
    [m, j] = [m - 1, j] + z^(m - j) [m - 1, j - 1] (Andrews, The Theory of
    Partitions, ch. 3) costs one shift and one add an entry.  Both terms
    have nonnegative coefficients, and a digit of [m, j] is at most its
    value at z = 1, C(m, j) <= C(top, top // 2), so with that below
    2^(8 width - 1) no digit carries and QPolynomial.from_packed reads each
    one back."""
    bits = 8 * width
    rows = [[1]]
    for m in range(1, top + 1):
        prev = rows[-1]
        rows.append([1] + [prev[j] + (prev[j - 1] << bits * (m - j)) for j in range(1, m)] + [1])
    return rows


def _one_side_product(exponents, q_bound, x_bound):
    """Expand prod (1 + q^e x) over the given exponents e >= 0, truncated."""
    poly = XPolynomial.constant(QPolynomial.one())
    for e in exponents:
        q_e = QPolynomial.q_power(e)
        poly = poly + XPolynomial({
            xe + 1: (q_e * c).truncate_above(q_bound)
            for xe, c in poly.terms.items()
            if xe + 1 <= x_bound
        })
    return poly


def inv_pochhammer_truncated(k, q_bound):
    """1 / ((1-q)(1-q^2)...(1-q^k)), truncated to q-degree q_bound."""
    coeffs = [1] + [0] * q_bound
    if k >= q_bound:
        # The factors past q^q_bound are 1 below it, so this is the partition
        # series: Euler's pentagonal number theorem gives p(m) as the sum over
        # j >= 1 of (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)), about
        # q_bound^1.5 steps instead of the product's q_bound^2 / 2.
        offsets, j = [], 1
        while j * (3 * j - 1) // 2 <= q_bound:
            sign = 1 if j % 2 else -1
            offsets += [(j * (3 * j - 1) // 2, sign), (j * (3 * j + 1) // 2, sign)]
            j += 1
        for m in range(1, q_bound + 1):
            coeffs[m] = sum(sign * coeffs[m - o] for o, sign in offsets if o <= m)
    else:
        for i in range(1, k + 1):
            for e in range(i, q_bound + 1):  # dividing by 1 - q^i adds the coefficient i below
                coeffs[e] += coeffs[e - i]
    return QPolynomial(dict(enumerate(coeffs)))


# Factor kind -> (b, theta): x^e has the exponents theta(e) in its theta
# coefficient; see euler_product_truncated.  The kinds are the limit kinds of
# weylchar.LIMIT_KINDS.
_THETAS = {
    "untwisted": (1, lambda e: (e * (e - 1) // 2, e * (e + 1) // 2)),
    "twisted": (2, lambda e: (e * e,)),
    "classical_even": (1, lambda e: () if e % 2 else (e * e // 4,)),
    "classical_odd": (1, lambda e: (e * e // 4,) if e % 2 else ()),
}


def _theta_sum(factor_kind, q_bound, x_bound):
    # sum_e x^e theta_e(q) / (q^b; q^b)_inf.  The factors 1 - q^(b i) with
    # b i > q_bound do not change it below q^(q_bound + 1), and every theta
    # exponent is at least (|e| - 1)^2 / 4, so no |e| > 2 isqrt(q_bound) + 2
    # has a term within the bound.
    b, theta = _THETAS[factor_kind]
    ps = inv_pochhammer_truncated(q_bound // b, q_bound // b).scale_exponents(b)
    reach = min(x_bound, 2 * isqrt(q_bound) + 2)
    return XPolynomial({
        e: QPolynomial.from_pairs(
            (t + i, c) for t in theta(e) for i, c in ps.terms.items() if t + i <= q_bound
        )
        for e in range(-reach, reach + 1)
    })


def euler_product_truncated(factor_kind, q_bound, x_bound):
    """Truncated expansion of the named infinite product / theta quotient.

    single_plus: prod (1+q^i x), i >= 0, expanded factor by factor.
    untwisted:   prod (1+q^i x)(1+q^i x^-1), i >= 0.
    twisted:     prod (1+q^(2i+1) x)(1+q^(2i+1) x^-1), i >= 0.
    classical_even / classical_odd: sum_k x^(2k) q^(k^2), resp.
    sum_k x^(2k+1) q^(k(k+1)), divided by (q; q)_inf.

    The two pair products are expanded as theta quotients too, by Jacobi's
    triple product (Andrews, The Theory of Partitions, ch. 2):

        prod (1+q^i x)(1+q^i x^-1)
            = sum_e x^e (q^(e(e-1)/2) + q^(e(e+1)/2)) / (q; q)_inf,
        prod (1+q^(2i+1) x)(1+q^(2i+1) x^-1)
            = sum_e x^e q^(e^2) / (q^2; q^2)_inf.

    Result is exact for every retained coefficient: 0 <= q-exp <= q_bound and
    |x-exp| <= x_bound.
    """
    if factor_kind == "single_plus":
        return _one_side_product(range(0, q_bound + 1), q_bound, x_bound)
    if factor_kind in _THETAS:
        return _theta_sum(factor_kind, q_bound, x_bound)
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
