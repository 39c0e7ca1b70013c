import time
from collections import Counter
from math import comb

import pytest

from macweyl import weylchar
from macweyl.cform import E_spec
from macweyl.ring import SIZE_LIMITS, BoundExceeded, QPolynomial, XPolynomial
from macweyl.weylchar import (
    KINDS,
    LIMIT_KINDS,
    _basis_tuples,
    approximant,
    basis_count,
    ch_D,
    ch_W,
    ch_W_sigma,
    enumerate_basis,
    limit_char,
    pbw_character_specialized,
    pbw_counts,
    scale_q,
)
from macweyl.verify import verify_section4


def qp(d):
    return QPolynomial(d)


def test_basis_counts():
    for n in range(8):
        assert len(enumerate_basis("untwisted_neg", n)) == 3**n
        assert len(enumerate_basis("twisted_neg", n)) == 3**n
    for n in range(1, 8):
        assert len(enumerate_basis("untwisted_pos", n)) == 3 ** (n - 1)
        assert len(enumerate_basis("twisted_pos", n)) == 2 * 3 ** (n - 1)
    for n in range(11):
        assert len(enumerate_basis("classical", n)) == 2**n


def _enumerated_pbw_triples(n, twisted):
    kind = "twisted_neg" if twisted else "untwisted_neg"
    return dict(Counter((w, t, p) for _, _, w, t, p in _basis_tuples(kind, n)))


def _kind_ns(max_n):
    for kind in KINDS:
        positive = kind in ("untwisted_pos", "twisted_pos", "twisted_pos_1", "twisted_pos_2")
        for n in range(1 if positive else 0, max_n + 1):
            yield kind, n


def test_pbw_counts_equal_enumerated_triples():
    for n in range(9):
        for twisted in (False, True):
            assert pbw_counts(n, twisted) == _enumerated_pbw_triples(n, twisted), (n, twisted)


def test_basis_counts_equal_enumeration():
    for kind, n in _kind_ns(8):
        assert basis_count(kind, n) == len(enumerate_basis(kind, n)), (kind, n)


def test_counts_keep_the_enumeration_limits():
    for fn, args in ((pbw_counts, (-1,)), (basis_count, ("untwisted_pos", 0)),
                     (basis_count, ("bogus", 2)), (basis_count, ("twisted_pos", -1))):
        with pytest.raises(ValueError):
            fn(*args)
    with pytest.raises(BoundExceeded):
        pbw_counts(SIZE_LIMITS["basis"] + 1, True)


@pytest.mark.parametrize("field, kind", [(3, "untwisted_neg"), (5, "untwisted_neg"),
                                         (3, "twisted_neg"), (5, "twisted_neg"),
                                         (3, "twisted_pos_2"), (5, "limit")])
def test_count_table_with_a_range_off_by_one_fails(monkeypatch, field, kind):
    # Field 3 is the g-degree range of a block, field 5 the e-degree range.
    blocks = weylchar._blocks

    def off_by_one(block_kind, n):
        out = blocks(block_kind, n)
        if block_kind == kind:
            widen = lambda r: range(r.start, r.stop + r.step, r.step)  # noqa: E731
            out = [b[:field] + (widen(b[field]),) + b[field + 1:] for b in out]
        return out

    monkeypatch.setattr(weylchar, "_blocks", off_by_one)
    n = 4
    assert basis_count(kind, n) != len(enumerate_basis(kind, n))
    if kind.endswith("_neg"):
        twisted = kind == "twisted_neg"
        assert pbw_counts(n, twisted) != _enumerated_pbw_triples(n, twisted)


def test_basis_example_n1():
    ms = enumerate_basis("untwisted_neg", 1)
    data = {(m.e_degrees, m.g_degrees): m.weight for m in ms}
    assert data == {((), ()): -1, ((0,), ()): 1, ((), (0,)): 0}


def test_basis_inequalities_hold():
    for n in range(1, 6):
        for m in enumerate_basis("untwisted_neg", n):
            k, s = len(m.g_degrees), len(m.e_degrees)
            assert all(0 <= b <= n - 1 for b in m.g_degrees)
            assert sorted(set(m.g_degrees)) == list(m.g_degrees)
            assert all(0 <= a <= n - k - s for a in m.e_degrees)
            assert list(m.e_degrees) == sorted(m.e_degrees)
        for m in enumerate_basis("twisted_neg", n):
            k, s = len(m.g_degrees), len(m.e_degrees)
            assert all(b % 2 == 1 and 1 <= b <= 2 * n - 1 for b in m.g_degrees)
            assert all(a % 2 == 0 and 0 <= a <= 2 * (n - k - s) for a in m.e_degrees)


def _gauss_rows(top, Q):
    """rows[N][j] = [N, j] at the integer Q, for j <= N <= top, by the
    product formula: [N, j] = [N, j - 1] (Q^(N-j+1) - 1) / (Q^j - 1), an
    exact division; at Q = 1 the binomial coefficients."""
    rows = []
    for N in range(top + 1):
        row = [1]
        for j in range(1, N + 1):
            if Q == 1:
                row.append(comb(N, j))
            else:
                value, rest = divmod(row[-1] * (Q ** (N - j + 1) - 1), Q**j - 1)
                assert rest == 0
                row.append(value)
        rows.append(row)
    return rows


def _double_sum_at(n, b, q):
    """The paper's double sum for ch_W (b = 1) or ch_W_sigma (b = 2) of
    weight n, binomials in base q^b, evaluated at the integer q:
    {x-exponent: value}."""
    out = {}

    def put(x, v):
        out[x] = out.get(x, 0) + v

    if n <= 0:
        m = -n
        gauss = _gauss_rows(m, q**b)
        for k in range(m + 1):
            outer = q ** (b * k * (k - 1) // 2 + (b - 1) * k) * gauss[m][k]
            for s in range(m - k + 1):
                put(-m + k + 2 * s, outer * gauss[m - k][s])
        return out
    gauss = _gauss_rows(n - 1, q**b)
    for k in range(n):
        outer = q ** (k * (k + 1) // 2 if b == 1 else k * k) * gauss[n - 1][k]
        for s in range(n - k):
            inner = outer * gauss[n - k - 1][s]
            put(n - k - 2 * s, q ** (b * s) * inner)
            if b == 2:
                put(n - k - 2 * s - 1, q ** (2 * n - 1) * inner)
    return out


def _at_power_of_two(poly, width):
    """poly at q = 2^(8 width), written digit by digit: to_bytes raises
    unless every coefficient lies in [0, 2^(8 width))."""
    assert min(poly.terms) >= 0
    digits = [poly.terms.get(e, 0) for e in range(max(poly.terms) + 1)]
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in digits), "little")


def _assert_equals_double_sum(n, b):
    """ch_W(n) (b = 1) or ch_W_sigma(n) (b = 2) equals the paper's double
    sum, both evaluated at q = B = 2^(8 w) above the sum's total at q = 1.
    Every term of the sum has nonnegative coefficients, so no coefficient
    of it reaches B, and its value at B has them as its base-B digits; the
    character's side is written digit by digit.  So the values are equal
    exactly when the polynomials are."""
    total = sum(_double_sum_at(n, b, 1).values())
    assert total == (3**-n if n <= 0 else b * 3 ** (n - 1))
    width = total.bit_length() // 8 + 1
    char = (ch_W if b == 1 else ch_W_sigma)(n)
    assert ({x: _at_power_of_two(c, width) for x, c in char.terms.items()}
            == _double_sum_at(n, b, 1 << 8 * width)), (n, b)


def test_lowest_weight_recurrence_equals_closed_form_sum():
    for m in list(range(13)) + [29, 40]:
        for b in (1, 2):
            _assert_equals_double_sum(-m, b)


def test_packed_highest_weight_equals_closed_form_sum():
    # packed_width(2 * 3^n) is 8 bytes up to n = 39 and wider from n = 40.
    for n in list(range(1, 17)) + [39, 40]:
        for b in (1, 2):
            _assert_equals_double_sum(n, b)


def character_from_basis(kind, n):
    """sum over basis monomials of q^(t-degree) x^(weight)."""
    return XPolynomial.from_pairs(
        (m.weight, QPolynomial.q_power(m.t_degree)) for m in enumerate_basis(kind, n)
    )


def test_characters_match_basis_enumeration():
    for n in range(7):
        assert character_from_basis("untwisted_neg", n) == ch_W(-n)
        assert character_from_basis("twisted_neg", n) == ch_W_sigma(-n)
    for n in range(1, 7):
        assert character_from_basis("untwisted_pos", n) == ch_W(n)
        assert character_from_basis("twisted_pos", n) == ch_W_sigma(n)
        assert character_from_basis("classical", n) == ch_D(n)


def test_ch_D_examples():
    assert ch_D(0) == XPolynomial({0: qp({0: 1})})
    assert ch_D(1) == XPolynomial({-1: qp({0: 1}), 1: qp({0: 1})})
    assert ch_D(2) == XPolynomial({-2: qp({0: 1}), 0: qp({0: 1, 1: 1}), 2: qp({0: 1})})
    for n in range(11):
        assert ch_D(n).eval_at_ones() == 2**n


def test_ch_W_examples():
    assert ch_W(-1) == XPolynomial({-1: qp({0: 1}), 0: qp({0: 1}), 1: qp({0: 1})})
    assert ch_W(-2) == XPolynomial(
        {
            -2: qp({0: 1}),
            -1: qp({0: 1, 1: 1}),
            0: qp({0: 1, 1: 2}),
            1: qp({0: 1, 1: 1}),
            2: qp({0: 1}),
        }
    )
    assert scale_q(ch_W(2), 2) == XPolynomial(
        {2: qp({0: 1}), 1: qp({2: 1}), 0: qp({2: 1})}
    )


def test_ch_W_sigma_examples():
    assert ch_W_sigma(-1) == XPolynomial({-1: qp({0: 1}), 0: qp({1: 1}), 1: qp({0: 1})})
    assert ch_W_sigma(1) == XPolynomial({1: qp({0: 1}), 0: qp({1: 1})})
    assert ch_W_sigma(2) == XPolynomial(
        {
            2: qp({0: 1}),
            1: qp({1: 1, 3: 1}),
            0: qp({2: 1, 4: 1}),
            -1: qp({3: 1}),
        }
    )


def test_characters_stop_at_size_limit():
    limit = SIZE_LIMITS["characters"]
    # The closed-forms ladder's top rung and both signs stay in range.
    assert ch_W_sigma(-64).eval_at_ones() == 3**64
    assert ch_W(64).eval_at_ones() == 3**63
    assert ch_W_sigma(64).eval_at_ones() == 2 * 3**63
    for fn, n in ((ch_W, limit + 1), (ch_W, -limit - 1), (ch_W_sigma, limit + 1),
                  (ch_W_sigma, -limit - 1), (ch_D, limit + 1)):
        with pytest.raises(BoundExceeded):
            fn(n)
    for kind in ("untwisted", "twisted", "classical_odd"):
        with pytest.raises(BoundExceeded):
            approximant(kind, 2 * limit + 1, 3, 3)


def test_symmetry_of_negative_characters():
    """Holds by construction: _character computes the x^k coefficients,
    k >= 0, of a negative weight and reads x^-k off the same value.  The
    real check is the double-sum references above."""
    for n in range(1, 7):
        assert ch_W(-n) == ch_W(-n).mirror_x()
        assert ch_W_sigma(-n) == ch_W_sigma(-n).mirror_x()
    # positive-weight characters are nonsymmetric
    assert ch_W(2) != ch_W(2).mirror_x()
    assert ch_W_sigma(2) != ch_W_sigma(2).mirror_x()


def test_embedding_monotonicity():
    # the inclusion of the weight -n module in the weight -(n+1) module
    # shifts t-degrees by n (untwisted) or 2n-1 (twisted)
    def leq(small, big):
        for x, c in small.terms.items():
            other = big.terms.get(x) or QPolynomial.zero()
            for e, v in c.terms.items():
                if v > other.terms.get(e, 0):
                    return False
        return True

    for n in range(1, 6):
        shifted = ch_W(-n).map_coeffs(lambda c, n=n: QPolynomial.q_power(n) * c)
        assert leq(shifted, ch_W(-n - 1))
        shifted = ch_W_sigma(-n).map_coeffs(
            lambda c, n=n: QPolynomial.q_power(2 * n - 1) * c
        )
        assert leq(shifted, ch_W_sigma(-n - 1))


def test_pbw_examples():
    assert pbw_character_specialized(1, twisted=False) == XPolynomial(
        {-1: qp({0: 1}), 1: qp({2: 1}), 0: qp({2: 1})}
    )
    assert pbw_character_specialized(1, twisted=True) == XPolynomial(
        {-1: qp({0: 1}), 1: qp({1: 1}), 0: qp({1: 1})}
    )
    assert pbw_character_specialized(0, twisted=False) == XPolynomial({0: qp({0: 1})})
    assert pbw_character_specialized(0, twisted=True) == XPolynomial({0: qp({0: 1})})


def test_pbw_mass():
    for n in range(5):
        assert pbw_character_specialized(n, False).eval_at_ones() == 3**n
        assert pbw_character_specialized(n, True).eval_at_ones() == 3**n


def test_pbw_specialized_closed_forms():
    # independent double-sum forms of the PBW specializations
    from macweyl.qcomb import q_multinomial

    for n in range(6):
        untw, tw = {}, {}
        for k in range(n + 1):
            for s in range(n - k + 1):
                x = -n + k + 2 * s
                mult = q_multinomial(k, s, n - k - s, 2)
                c = QPolynomial.q_power(k * (k - 1) + 2 * k + 2 * s) * mult
                untw[x] = untw[x] + c if x in untw else c
                c = QPolynomial.q_power(k * k + s) * mult
                tw[x] = tw[x] + c if x in tw else c
        assert pbw_character_specialized(n, twisted=False) == XPolynomial(untw)
        assert pbw_character_specialized(n, twisted=True) == XPolynomial(tw)


def test_limit_char_examples():
    assert limit_char("untwisted", 0, 1) == XPolynomial(
        {-1: qp({0: 1}), 0: qp({0: 2}), 1: qp({0: 1})}
    )
    assert limit_char("twisted", 0, 5) == XPolynomial({0: qp({0: 1})})


def _literal_pair_product(exponents, q_bound):
    # prod (1 + q^i x)(1 + q^i / x) over the exponents, one factor at a time,
    # truncated in q only: a later factor may bring a far x-exponent back.
    poly = XPolynomial.constant(qp({0: 1}))
    for i in exponents:
        for step in (1, -1):
            poly = XPolynomial.from_pairs(
                [(x, c) for x, c in poly.terms.items()]
                + [(x + step, (QPolynomial.q_power(i) * c).truncate_above(q_bound))
                   for x, c in poly.terms.items()]
            )
    return poly


def test_theta_forms_equal_literal_pair_products():
    for q_bound in range(25):
        for kind, exponents in (
            ("untwisted", range(0, q_bound + 1)),
            ("twisted", range(1, q_bound + 1, 2)),
        ):
            product = _literal_pair_product(exponents, q_bound)
            for x_bound in range(9):
                expected = XPolynomial(
                    {x: c for x, c in product.terms.items() if abs(x) <= x_bound})
                assert limit_char(kind, q_bound, x_bound) == expected, (kind, q_bound, x_bound)


def test_limit_char_stops_at_the_q_bound_not_the_x_bound():
    start = time.perf_counter()
    for kind in LIMIT_KINDS:
        assert limit_char(kind, 3, 10**9) == limit_char(kind, 3, 64)
    assert time.perf_counter() - start < 1.0


def test_approximant_stabilization():
    for kind in ("untwisted", "twisted"):
        limit = limit_char(kind, 3, 5)
        for n in (8, 9, 10):
            assert approximant(kind, n, 3, 5) == limit
    assert approximant("classical_even", 8, 3, 5) == limit_char("classical_even", 3, 5)
    assert approximant("classical_odd", 9, 3, 5) == limit_char("classical_odd", 3, 5)
    with pytest.raises(ValueError):
        approximant("classical_even", 7, 2, 3)


def test_limit_basis_character_matches_product():
    # q-grading of the truncated stable basis agrees with the product form
    # through the trusted window
    for n in (6, 8):
        d = (n - 1) // 2
        terms = {}
        for m in enumerate_basis("limit", n):
            c = QPolynomial.q_power(m.t_degree)
            terms[m.weight] = terms[m.weight] + c if m.weight in terms else c
        poly = XPolynomial(
            {
                x: c.truncate_above(d)
                for x, c in terms.items()
                if abs(x) <= d + 2 and not c.truncate_above(d).is_zero()
            }
        )
        assert poly == limit_char("untwisted", d, d + 2)


def test_verify_section4_statuses():
    entries = verify_section4([n for n in range(-3, 4) if n != 0])
    by_key = {(e["identity"], e["n"]): e for e in entries}
    assert by_key[("ch_W_vs_E_A2dagger_t0", -1)]["status"] == "EQUAL"
    assert by_key[("ch_Wsigma_vs_E_A2_t0", 2)]["status"] == "EQUAL"
    for n in range(1, 4):
        for ident in ("ch_W_vs_E_A2dagger_t0", "ch_Wsigma_vs_E_A2_t0"):
            assert by_key[(ident, n)]["status"] == "EQUAL"
            assert by_key[(ident, -n)]["status"] == "EQUAL"
        assert by_key[("pbw_untwisted_vs_E_A2dagger_tinf", n)]["status"] == "EQUAL_UP_TO"
        assert by_key[("pbw_untwisted_vs_E_A2dagger_tinf", n)]["transform"] == {
            "x_mirror": True
        }
        assert by_key[("pbw_twisted_vs_E_A2_tinf", n)]["status"] == "KNOWN_ERRATUM"


def test_known_erratum_difference_at_n1():
    lhs = pbw_character_specialized(1, twisted=True)
    rhs = E_spec("A2", -1, "tinf")
    diff = lhs - rhs
    assert diff == XPolynomial({-1: qp({0: 1, 2: -1}), 1: qp({0: -1, 1: 1})})


def test_section4_without_errata_reports_mismatch():
    entries = verify_section4([1], errata={})
    entry = next(e for e in entries if e["identity"] == "pbw_twisted_vs_E_A2_tinf")
    assert entry["status"] == "MISMATCH"
    assert {t["x"] for t in entry["diff"]} == {-1, 1}
