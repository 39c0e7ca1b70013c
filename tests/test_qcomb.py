from itertools import permutations
from math import comb

from macweyl.qcomb import (
    euler_product_truncated,
    inv_pochhammer_truncated,
    pascal_rows,
    wedge_lhs_truncated,
)
from macweyl.ring import QPolynomial, XPolynomial, packed_width
from references import q_multinomial


def qp(d):
    return QPolynomial(d)


def brute_gauss(n, m):
    # independent oracle: partitions inside an m x (n-m) box, graded by area
    if m < 0 or m > n:
        return QPolynomial.zero()
    cols = n - m
    counts = {}

    def rec(row, maximum, area):
        if row == m:
            counts[area] = counts.get(area, 0) + 1
            return
        for part in range(maximum + 1):
            rec(row + 1, part, area + part)

    rec(0, cols, 0)
    return QPolynomial(counts)


def rows(top, step=1):
    # pascal_rows up to `top`, each entry decoded in q^step.
    width = packed_width(comb(top, top // 2))
    return [[QPolynomial.from_packed(v, width, step) for v in row]
            for row in pascal_rows(top, width)]


def test_q_binomial_examples():
    assert rows(2)[2][1] == qp({0: 1, 1: 1})
    assert rows(4)[4][2] == brute_gauss(4, 2)
    assert rows(4)[4][2] == qp({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    for n, row in enumerate(rows(5)):
        assert row[0] == row[n] == qp({0: 1})
    # A row holds [n, m] for 0 <= m <= n alone.
    assert len(rows(3)[3]) == 4


def test_q_binomial_against_brute_force():
    for n, row in enumerate(rows(8)):
        for m in range(n + 1):
            assert row[m] == brute_gauss(n, m)


def test_q_binomial_symmetry_and_pascal():
    table = rows(12)
    for n in range(13):
        for m in range(n + 1):
            assert table[n][m] == table[n][n - m]
            if 0 < m < n:
                lhs = table[n][m]
                rhs = table[n - 1][m] + QPolynomial.q_power(n - m) * table[n - 1][m - 1]
                assert lhs == rhs


def test_q_binomial_base_and_degree():
    for base in (1, 2):
        p = rows(5, base)[5][2]
        assert max(p.terms) == 2 * 3 * base
        assert all(c > 0 for c in p.terms.values())


def test_q_multinomial_examples():
    assert q_multinomial(1, 0, 1, 2) == qp({0: 1, 2: 1})
    assert q_multinomial(0, 0, 0, 2) == qp({0: 1})
    assert q_multinomial(-1, 1, 1, 1).is_zero()
    assert q_multinomial(-1, 1, 1, 2).is_zero()


def test_q_multinomial_permutation_invariance():
    triples = [
        (a, b, c)
        for a in range(6)
        for b in range(6)
        for c in range(6)
        if a + b + c <= 10
    ]
    for t in triples:
        base = q_multinomial(*t, 2)
        for p in permutations(t):
            assert q_multinomial(*p, 2) == base


def test_euler_product_examples():
    got = euler_product_truncated("single_plus", 2, 2)
    want = XPolynomial(
        {0: qp({0: 1}), 1: qp({0: 1, 1: 1, 2: 1}), 2: qp({1: 1, 2: 1})}
    )
    assert got == want
    got = euler_product_truncated("untwisted", 0, 1)
    assert got == XPolynomial({-1: qp({0: 1}), 0: qp({0: 2}), 1: qp({0: 1})})
    assert euler_product_truncated("twisted", 0, 5) == XPolynomial({0: qp({0: 1})})


def test_wedge_examples():
    assert wedge_lhs_truncated(0, 2) == XPolynomial({0: qp({0: 1}), 1: qp({0: 1})})
    assert wedge_lhs_truncated(5, 0) == XPolynomial({0: qp({0: 1})})


def test_wedge_identity_to_12_12():
    assert wedge_lhs_truncated(12, 12) == euler_product_truncated("single_plus", 12, 12)


def brute_partitions(m, k):
    # independent oracle: partitions of m into parts of size at most k
    if m == 0:
        return 1
    return sum(brute_partitions(m - part, part) for part in range(1, min(k, m) + 1))


def test_inv_pochhammer_counts_partitions_with_bounded_parts():
    for k in (0, 1, 5, 30):
        want = QPolynomial({m: brute_partitions(m, k) for m in range(31)})
        assert inv_pochhammer_truncated(k, 30) == want


def test_partition_series_pentagonal_matches_product_recurrence():
    # k >= q_bound takes Euler's pentagonal recurrence; k < q_bound, and this
    # literal product over every factor up to q^300, the product recurrence.
    product = [1] + [0] * 300
    for i in range(1, 301):
        for e in range(i, 301):
            product[e] += product[e - i]
    for q_bound in range(301):
        want = QPolynomial(dict(enumerate(product[: q_bound + 1])))
        assert inv_pochhammer_truncated(q_bound, q_bound) == want
        assert inv_pochhammer_truncated(q_bound + 3, q_bound) == want
        if q_bound:
            # one factor short: 1/(1 - q^q_bound) adds exactly the q^q_bound term
            short = inv_pochhammer_truncated(q_bound - 1, q_bound)
            assert short + QPolynomial.q_power(q_bound) == want
