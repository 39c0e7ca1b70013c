from functools import lru_cache

import pytest

from macweyl import cform
from macweyl.cform import E_spec, _shift, _triples, c_closed, cdag_closed, ctable
from macweyl.ring import QPolynomial, XPolynomial, packed_width
from references import c_rec, cdag_rec, q_binomial, q_multinomial


def qp(d):
    return QPolynomial(d)


def test_c_examples():
    assert c_rec(2, 0, 1, 0) == qp({1: 1})
    assert c_rec(1, 1, 0, 0) == qp({2: 1})
    assert c_rec(1, 0, 0, 1) == qp({0: 1})
    assert c_closed(2, 0, 1, 0) == qp({1: 1})
    assert c_closed(1, 1, 0, 0) == qp({2: 1})


def test_cdag_examples():
    assert cdag_rec(1, 0, 1, 0) == qp({2: 1})
    assert cdag_rec(2, 0, 1, 0) == qp({0: 1})
    assert cdag_rec(2, 1, 0, 1) == qp({0: 1, 2: 1})
    assert cdag_closed(2, 1, 0, 1) == qp({0: 1, 2: 1})


def test_negative_indices_vanish():
    assert c_rec(1, -1, 0, 2).is_zero()
    assert c_closed(2, 0, -3, 1).is_zero()
    assert cdag_rec(2, 0, 0, -1).is_zero()
    assert cdag_closed(1, -1, -1, -1).is_zero()


def test_recurrence_equals_closed_form_sum_le_14():
    count = 0
    for total in range(15):
        for key in _triples(total):
            count += 1
            for r in (1, 2):
                assert c_rec(r, *key) == c_closed(r, *key)
                assert cdag_rec(r, *key) == cdag_closed(r, *key)
    assert count == 680


def test_packed_recurrence_layers_equal_dict_recurrences_le_14():
    width = packed_width(3**14)
    for family, rec in (("A2", c_rec), ("A2dagger", cdag_rec)):
        count = 0
        for total, layer in enumerate(cform.rec_layers(family, 14, width)):
            for k22, kmid, k11 in _triples(total):
                count += 1
                for r in (1, 2):
                    value = layer[r][k22][kmid]
                    assert QPolynomial.from_packed(value, width) == rec(r, k22, kmid, k11), (
                        family, r, k22, kmid, k11)
        assert count == 680


def test_E_spec_examples():
    assert E_spec("A2", -1, "t0") == XPolynomial(
        {-1: qp({0: 1}), 0: qp({1: 1}), 1: qp({0: 1})}
    )
    assert E_spec("A2", 2, "t0") == XPolynomial(
        {
            2: qp({0: 1}),
            1: qp({1: 1, 3: 1}),
            0: qp({2: 1, 4: 1}),
            -1: qp({3: 1}),
        }
    )
    assert E_spec("A2dagger", 2, "t0") == XPolynomial(
        {2: qp({0: 1}), 1: qp({2: 1}), 0: qp({2: 1})}
    )
    assert E_spec("A2", 0, "t0") == XPolynomial({0: qp({0: 1})})
    assert E_spec("A2dagger", 0, "tinf") == XPolynomial({0: qp({0: 1})})


def test_duality_identities():
    for n in range(0, 7):
        lhs = E_spec("A2dagger", n + 1, "t0")
        rhs = E_spec("A2dagger", -n, "tinf").x_shift(1)
        assert lhs == rhs
        lhs = E_spec("A2", n + 1, "tinf")
        rhs = E_spec("A2", -n, "t0").x_shift(1)
        assert lhs == rhs


def test_mass_3_to_n_at_t0():
    for family in ("A2", "A2dagger"):
        for n in range(0, 7):
            assert E_spec(family, -n, "t0").eval_at_ones() == 3**n


def test_negative_t0_polynomials_are_x_symmetric():
    for family in ("A2", "A2dagger"):
        for n in range(1, 5):
            p = E_spec(family, -n, "t0")
            assert p == p.mirror_x()


def test_ctable_dump():
    rows = ctable("A2", 2, 2)
    assert len(rows) == 10
    assert dict((k, v) for k, v in rows)[(0, 1, 0)] == qp({1: 1})


@pytest.mark.parametrize("family, r", [("bogus", 2), ("A2", 0), ("A2dagger", 3)])
def test_ctable_rejects_unknown_family_and_r(family, r):
    with pytest.raises(ValueError):
        ctable(family, r, 2)


def _dict_product_E_spec(family, n, spec):
    # E_spec as a sum of QPolynomial products of the closed-form tables, each
    # table entry a dict product too.
    def closed(r, k22, kmid, k11):
        return QPolynomial.q_power(_shift(family, r, k22, kmid)) * q_multinomial(k22, kmid, k11, 2)

    terms = {}

    def put(x, c):
        terms[x] = terms.get(x, qp({})) + c

    q = lambda e: qp({e: 1})  # noqa: E731
    if family == "A2" and n < 0:
        for k22, k12, k11 in _triples(-n):
            if spec == "t0":
                put(k22 - k11, closed(2, k22, k12, k11))
            else:
                put(k11 - k22, closed(1, k22, k12, k11))
    elif family == "A2" and spec == "t0":
        for k22, k12, k11 in _triples(n):
            c = q(2 * n - 1) * closed(2, k22 - 1, k12, k11) + closed(1, k22, k12 - 1, k11)
            put(k11 - k22 + 1, c)
    elif family == "A2":
        for k in _triples(n - 1):
            put(k[2] - k[0] + 1, closed(2, *k))
    elif n < 0:
        for k in _triples(-n):
            put(k[2] - k[0], closed(2 if spec == "t0" else 1, *k))
    elif spec == "t0":
        for k in _triples(n - 1):
            put(k[2] - k[0] + 1, closed(1, *k))
    else:
        for k in _triples(n - 1):
            put(k[2] - k[0] + 1, closed(2, *k) + closed(1, *k))
    return XPolynomial(terms)


def test_packed_E_spec_equals_dict_product_sum():
    # |n| = 21 has digits of 8 bytes (2 * 3^21 > 2^32); smaller |n| of 1, 2 and 4.
    for family in ("A2", "A2dagger"):
        for spec in ("t0", "tinf"):
            for n in list(range(-12, 0)) + list(range(1, 13)) + [-21, 21]:
                assert E_spec(family, n, spec) == _dict_product_E_spec(family, n, spec), (
                    family, n, spec)


@lru_cache(maxsize=None)
def _packed_binomial_q2(n, m, width):
    # [n choose m] in q^2, packed at spacing 2: digit 2 i is the q^(2 i)
    # coefficient, every odd digit 0.
    if m < 0 or m > n:
        return 0
    digits = [0] * (2 * m * (n - m) + 1)
    for e, c in q_binomial(n, m, 2).terms.items():
        digits[e] = c
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in digits]), "little")


def _packed_entry(family, r, k22, kmid, k11, width, q_shift, trinomials):
    # The table entry packed in q at spacing 2, as E_spec summed it before
    # the tables were packed in Q = q^2; `trinomials` keeps the products.
    if k22 < 0 or kmid < 0 or k11 < 0:
        return 0
    total = k22 + kmid + k11
    key = (total, k22, kmid, width)
    if key not in trinomials:
        trinomials[key] = (_packed_binomial_q2(total, k22, width)
                           * _packed_binomial_q2(total - k22, kmid, width))
    return trinomials[key] << 8 * width * (_shift(family, r, k22, kmid) + q_shift)


def _spacing_2_E_spec(family, n, spec, trinomials):
    width = packed_width(2 * 3 ** abs(n))
    sums = {}

    def put(x_exp, r, k22, kmid, k11, q_shift=0):
        entry = _packed_entry(family, r, k22, kmid, k11, width, q_shift, trinomials)
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
        else:
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
        else:
            for k22, k21, k11 in _triples(n - 1):
                put(k11 - k22 + 1, 2, k22, k21, k11)
                put(k11 - k22 + 1, 1, k22, k21, k11)
    return XPolynomial({x: QPolynomial.from_packed(v, width) for x, v in sums.items()})


@pytest.mark.parametrize("n", [-33, 33, -40, 40, -45, 45])
def test_Q_packed_E_spec_equals_spacing_2_sum_past_struct_widths(n):
    # 2 * 3^|n| needs 8 bytes at |n| = 33 ... 39, 9 at 40 and 10 at 45: past
    # the struct path, whose widest code is 8 bytes.
    trinomials = {}
    for family in ("A2", "A2dagger"):
        for spec in ("t0", "tinf"):
            expected = _spacing_2_E_spec(family, n, spec, trinomials)
            assert E_spec(family, n, spec) == expected, (family, spec)


def test_table_cache_stays_at_its_fixed_size():
    cform._trinomials.cache_clear()
    for n in (45, -45):
        for family in ("A2", "A2dagger"):
            for spec in ("t0", "tinf"):
                E_spec(family, n, spec)
    info = cform._trinomials.cache_info()
    assert info.maxsize == cform._TABLES
    assert 0 < info.currsize <= cform._TABLES
