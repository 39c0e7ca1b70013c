import random
from math import comb

import pytest

from macweyl.ring import (
    BiPolynomial,
    DenominatorVanishesAtZero,
    DivergesAtInfinity,
    NotPolynomial,
    QPolynomial,
    RationalFunction,
    XPolynomial,
    rf_eval_v0,
    rf_limit_v_infinity,
    substitute_q_inverse,
)
from macweyl.qcomb import q_binomial
from macweyl.weylchar import ch_W, ch_W_sigma


def qp(d):
    return QPolynomial(d)


def bp(d):
    return BiPolynomial(d)


def rand_qpoly(rng, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, 5)
    return QPolynomial({rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(n)})


def rand_bipoly(rng, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, 5)
    p = BiPolynomial(
        {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-9, 9) for _ in range(n)}
    )
    if not allow_zero and p.is_zero():
        return BiPolynomial.one()
    return p


def test_canonical_form_drops_zeros():
    assert qp({2: 0, 1: 3}).terms == {1: 3}
    assert bp({(1, 1): 0}).is_zero()
    assert XPolynomial({1: qp({})}).is_zero()


def test_substitute_q_inverse_examples():
    assert substitute_q_inverse(qp({0: 1, 1: 1})) == qp({0: 1, -1: 1})
    assert substitute_q_inverse(qp({0: 1})) == qp({0: 1})
    assert substitute_q_inverse(qp({2: 1, -1: 1})) == qp({-2: 1, 1: 1})


def test_substitute_q_inverse_involution_and_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_qpoly(rng), rand_qpoly(rng)
        assert substitute_q_inverse(substitute_q_inverse(a)) == a
        assert substitute_q_inverse(a + b) == substitute_q_inverse(a) + substitute_q_inverse(b)
        assert substitute_q_inverse(a * b) == substitute_q_inverse(a) * substitute_q_inverse(b)


def test_ring_axioms_random_triples():
    rng = random.Random(11)
    for _ in range(150):
        a, b, c = (rand_qpoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
    for _ in range(100):
        a, b, c = (rand_bipoly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_rf_equality_is_equivalence():
    rng = random.Random(13)
    for _ in range(100):
        num = rand_bipoly(rng)
        den = rand_bipoly(rng, allow_zero=False)
        r = RationalFunction(num, den)
        m1 = rand_bipoly(rng, allow_zero=False)
        m2 = rand_bipoly(rng, allow_zero=False)
        a = RationalFunction(num * m1, den * m1)
        b = RationalFunction(num * m2, den * m2)
        assert r == a and a == b and r == b


def test_rf_eval_v0_examples():
    one = bp({(0, 0): 1})
    # (1 + q v^2) / (1 - q^2 v^2) -> 1
    r = RationalFunction(bp({(0, 0): 1, (1, 2): 1}), bp({(0, 0): 1, (2, 2): -1}))
    assert rf_eval_v0(r) == qp({0: 1})
    # v^2 / (1 - v^2) -> 0
    r = RationalFunction(bp({(0, 2): 1}), bp({(0, 0): 1, (0, 2): -1}))
    assert rf_eval_v0(r) == qp({})
    # (q + q v^2) / 1 -> q
    r = RationalFunction(bp({(1, 0): 1, (1, 2): 1}), one)
    assert rf_eval_v0(r) == qp({1: 1})


def test_rf_eval_v0_denominator_vanishes():
    r = RationalFunction(bp({(0, 0): 1}), bp({(0, 2): 1}))
    with pytest.raises(DenominatorVanishesAtZero):
        rf_eval_v0(r)


def rand_bipoly_positive_v(rng):
    n = rng.randint(0, 4)
    return BiPolynomial(
        {(rng.randint(-3, 3), rng.randint(1, 4)): rng.randint(-9, 9) for _ in range(n)}
    )


def test_rf_eval_v0_multiplicative():
    rng = random.Random(17)
    one = bp({(0, 0): 1})
    for _ in range(120):
        # denominators with constant term 1 at v=0 keep the division exact
        d1 = one + rand_bipoly_positive_v(rng)
        d2 = one + rand_bipoly_positive_v(rng)
        n1 = rand_bipoly_positive_v(rng) + BiPolynomial.from_q(rand_qpoly(rng))
        n2 = rand_bipoly_positive_v(rng) + BiPolynomial.from_q(rand_qpoly(rng))
        a = RationalFunction(n1, d1)
        b = RationalFunction(n2, d2)
        assert rf_eval_v0(a * b) == rf_eval_v0(a) * rf_eval_v0(b)


def test_rf_limit_v_infinity_examples():
    # (q v^2) / (1 - v^2) -> -q
    r = RationalFunction(bp({(1, 2): 1}), bp({(0, 0): 1, (0, 2): -1}))
    assert rf_limit_v_infinity(r) == qp({1: -1})
    # 1 / (1 - v^2) -> 0
    r = RationalFunction(bp({(0, 0): 1}), bp({(0, 0): 1, (0, 2): -1}))
    assert rf_limit_v_infinity(r) == qp({})
    # v^4 / (1 - v^2) diverges
    r = RationalFunction(bp({(0, 4): 1}), bp({(0, 0): 1, (0, 2): -1}))
    with pytest.raises(DivergesAtInfinity):
        rf_limit_v_infinity(r)


def test_division_remainder_detected():
    with pytest.raises(NotPolynomial):
        qp({0: 1, 1: 1}).divide_exact(qp({0: 2}))
    with pytest.raises(NotPolynomial):
        qp({2: 1, 0: 1}).divide_exact(qp({1: 1, 0: 1}))
    assert qp({2: 1, 0: -1}).divide_exact(qp({1: 1, 0: -1})) == qp({1: 1, 0: 1})


def test_binomial_division():
    p = bp({(0, 0): 1, (2, 2): -1})  # 1 - q^2 v^2
    prod = p * bp({(5, 3): 2, (0, 0): 1})
    assert prod.divide_exact_binomial(2, 2) == bp({(5, 3): 2, (0, 0): 1})
    with pytest.raises(NotPolynomial):
        bp({(0, 1): 1}).divide_exact_binomial(1, 2)


def test_render_canonical():
    poly = XPolynomial(
        {
            -1: qp({3: 1}),
            0: qp({2: 1, 4: 1}),
            1: qp({1: 1, 3: 1}),
            2: qp({0: 1}),
        }
    )
    assert poly.render() == "q^3*x^-1 + (q^2+q^4) + (q+q^3)*x + x^2"
    assert XPolynomial({}).render() == "0"
    assert XPolynomial({1: qp({0: -1})}).render() == "-x"
    assert qp({0: 1, 2: -1}).render() == "1-q^2"


def test_laurent_core_builder_zero_and_repr():
    pairs = [(1, 2), (0, 5), (1, -2), (3, 1), (3, 1)]
    assert QPolynomial.from_pairs(pairs).terms == {0: 5, 3: 2}
    bi_pairs = [((0, 1), 1), ((1, 0), 4), ((0, 1), -1), ((1, 0), 1)]
    assert BiPolynomial.from_pairs(bi_pairs).terms == {(1, 0): 5}
    x_pairs = [(0, qp({1: 1})), (2, qp({0: 3})), (0, qp({1: -1})), (2, qp({1: 1}))]
    assert XPolynomial.from_pairs(x_pairs).terms == {2: qp({0: 3, 1: 1})}
    bx_pairs = [(-1, bp({(0, 1): 2})), (-1, bp({(0, 1): -2})), (4, bp({(1, 1): 1}))]
    assert XPolynomial.from_pairs(bx_pairs).terms == {4: bp({(1, 1): 1})}
    assert QPolynomial.from_pairs([]).is_zero()

    assert XPolynomial({0: RationalFunction.zero()}).is_zero()

    assert repr(qp({-2: -3, 0: 1, 1: 1, 4: -1})) == "QPolynomial(-3*q^-2+1+q-q^4)"
    bi = bp({(0, 0): 1, (1, 0): -2, (0, 1): 1, (-1, 3): 5, (2, -1): -1})
    assert repr(bi) == "BiPolynomial(5*q^-1*v^3+1+v-2*q-q^2*v^-1)"
    x = XPolynomial({-1: qp({0: -1}), 0: qp({2: 1, 0: 1}), 2: qp({3: -2})})
    assert repr(x) == "XPolynomial(-x^-1 + (1+q^2) - 2*q^3*x^2)"
    rf = RationalFunction(bp({(0, 1): 1}), bp({(0, 0): 1, (1, 2): -1}))
    xr = XPolynomial({0: rf, 1: RationalFunction(-1)})
    assert repr(xr) == "XPolynomial((v)/(1-q*v^2) - x)"


def test_xpolynomial_mirror_and_mass():
    poly = XPolynomial({-1: qp({0: 1}), 0: qp({1: 1}), 1: qp({0: 2})})
    assert poly.mirror_x() == XPolynomial({1: qp({0: 1}), 0: qp({1: 1}), -1: qp({0: 2})})
    assert poly.eval_at_ones() == 4


def schoolbook(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


EDGE_COEFFS = (0, 1, 127, 128, 255, 256, 2**63, 10**30)


def rand_mul_operand(rng):
    size = rng.randint(1, 80)
    stride = rng.choice((1, 2, 3))
    offset = rng.choice((0, 1))
    signs = rng.choice(("mixed", "negative", "positive"))
    terms = {}
    for _ in range(size):
        e = offset + stride * rng.randint(-60 // stride, 60 // stride)
        c = rng.choice(EDGE_COEFFS) if rng.random() < 0.5 else rng.randint(1, 10**rng.randint(0, 25))
        if signs == "negative" or (signs == "mixed" and rng.random() < 0.5):
            c = -c
        terms[e] = c
    return QPolynomial(terms)


def test_mul_matches_schoolbook_both_sides_of_cutoff():
    rng = random.Random(23)
    pair_counts = []
    for _ in range(300):
        a, b = rand_mul_operand(rng), rand_mul_operand(rng)
        pair_counts.append(len(a.terms) * len(b.terms))
        want = schoolbook(a, b)
        assert (a * b).terms == want
        assert (b * a).terms == want
        assert (a * a).terms == schoolbook(a, a)
    assert min(pair_counts) < 256 <= max(pair_counts)


def test_mul_monomial_int_and_zero_operands():
    rng = random.Random(29)
    zero = QPolynomial.zero()
    for _ in range(50):
        p = rand_mul_operand(rng)
        m = QPolynomial.monomial(rng.choice((-1, 1)) * rng.choice(EDGE_COEFFS[1:]), rng.randint(-60, 60))
        want = schoolbook(m, p)
        assert (m * p).terms == want
        assert (p * m).terms == want
        k = rng.choice((-(10**30), -256, -1, 1, 255, 2**63))
        assert (k * p).terms == (p * k).terms == {e: c * k for e, c in p.terms.items()}
        assert (p * zero).is_zero() and (zero * p).is_zero()
        assert (p * 0).is_zero() and (0 * p).is_zero()
    assert (zero * zero).is_zero()


def test_mul_sparse_operands_keep_schoolbook():
    # Exponents too far apart to pack densely; the product is still exact.
    a = QPolynomial({10**9 * i: i + 1 for i in range(20)})
    b = QPolynomial({7 * i: -(2 * i + 1) for i in range(20)})
    assert (a * b).terms == schoolbook(a, b)


def test_large_products_keep_known_masses():
    assert q_binomial(60, 30).eval_at_one() == comb(60, 30)
    assert ch_W(-40).eval_at_ones() == 3**40
    assert ch_W_sigma(-40).eval_at_ones() == 3**40
