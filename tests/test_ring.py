import random
from math import comb

from macweyl.ring import (
    BiPolynomial,
    QPolynomial,
    RationalFunction,
    XPolynomial,
)
from macweyl.weylchar import ch_W, ch_W_sigma
from references import q_binomial


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


def _no_zero_coefficient(poly):
    return all(c for c in poly.terms.values())


def test_sums_that_cancel_leave_no_zero_coefficient():
    a = qp({0: 1, 1: 2, 3: -1})
    total = a + qp({1: -2, 3: 1, 4: 5})
    assert total.terms == {0: 1, 4: 5} and _no_zero_coefficient(total)
    assert (a - a).terms == {} and (a + (-a)).is_zero()
    x = XPolynomial({-1: qp({0: 1}), 2: qp({1: 3, 2: 1})})
    total = x + XPolynomial({-1: qp({0: -1}), 2: qp({1: -3}), 5: qp({0: 1})})
    assert total.terms == {2: qp({2: 1}), 5: qp({0: 1})} and _no_zero_coefficient(total)
    assert (x - x).is_zero()
    for total in (qp({0: 3, 1: 1}) + -3, -3 + qp({0: 3, 1: 1}), qp({0: 3}) - 3, qp({}) + 0):
        assert _no_zero_coefficient(total) and 0 not in total.terms
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_qpoly(rng), rand_qpoly(rng)
        for total in (a + b, a - b, b - a, a + (-a)):
            assert _no_zero_coefficient(total)
        assert a + b == QPolynomial.from_pairs([*a.terms.items(), *b.terms.items()])


def test_substitute_q_inverse_examples():
    assert qp({0: 1, 1: 1}).scale_exponents(-1) == qp({0: 1, -1: 1})
    assert qp({0: 1}).scale_exponents(-1) == qp({0: 1})
    assert qp({2: 1, -1: 1}).scale_exponents(-1) == qp({-2: 1, 1: 1})


def test_substitute_q_inverse_involution_and_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_qpoly(rng), rand_qpoly(rng)
        assert a.scale_exponents(-1).scale_exponents(-1) == a
        assert (a + b).scale_exponents(-1) == a.scale_exponents(-1) + b.scale_exponents(-1)
        assert (a * b).scale_exponents(-1) == a.scale_exponents(-1) * b.scale_exponents(-1)


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

    assert XPolynomial({0: RationalFunction(0)}).is_zero()

    assert repr(qp({-2: -3, 0: 1, 1: 1, 4: -1})) == "QPolynomial(-3*q^-2+1+q-q^4)"
    bi = bp({(0, 0): 1, (1, 0): -2, (0, 1): 1, (-1, 3): 5, (2, -1): -1})
    assert repr(bi) == "BiPolynomial(5*q^-1*v^3+1+v-2*q-q^2*v^-1)"
    x = XPolynomial({-1: qp({0: -1}), 0: qp({2: 1, 0: 1}), 2: qp({3: -2})})
    assert repr(x) == "XPolynomial(-x^-1 + (1+q^2) - 2*q^3*x^2)"
    rf = RationalFunction(bp({(0, 1): 1}), bp({(0, 0): 1, (1, 2): -1}))
    xr = XPolynomial({0: rf, 1: RationalFunction(-1)})
    assert repr(xr) == "XPolynomial((v)/(1-q*v^2) - x)"
    assert XPolynomial.one().render() == "1"
    assert (XPolynomial.zero() + 1).render() == "1"


def test_xpolynomial_wraps_rational_function_over_one_like_its_numerator():
    num = bp({(0, 0): 1, (0, 2): -1})
    assert XPolynomial({1: RationalFunction(num)}).render() == "(1-v^2)*x"
    assert XPolynomial({1: RationalFunction(num)}).render() == XPolynomial({1: num}).render()
    mixed = XPolynomial({0: RationalFunction(num), -2: RationalFunction(bp({(1, 1): -1}))})
    assert mixed.render() == "-q*v*x^-2 + (1-v^2)"


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
        c = rng.choice((-1, 1)) * rng.choice(EDGE_COEFFS[1:])
        m = QPolynomial({rng.randint(-60, 60): c})
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
