import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from macweyl.cform import E_spec
from macweyl.ramyip import (
    _FOLD_SET,
    _FOLD_XI_POWER,
    _STAT_SETS,
    NotPolynomial,
    RouteMismatch,
    _count_width,
    _decode,
    _den_exponents,
    _digit_width,
    _divide,
    _exact_route,
    _moves,
    _numerators,
    _prefactor_v,
    _specialized,
    _statistic_route,
    _step_factors,
    _steps,
    _transfer,
    _window,
    ramyip_sum,
    specialize,
)
from macweyl.ring import (
    SIZE_LIMITS,
    BiPolynomial,
    BoundExceeded,
    QPolynomial,
    RationalFunction,
    XPolynomial,
    packed_width,
)
from macweyl.walks import (
    CUT_SIGN,
    FAMILIES,
    S0,
    SPECS,
    alcove_element,
    beta_degree,
    walk_word,
    wall_side,
)
from macweyl.weylchar import ch_W_sigma
from references import q_multinomial, surviving, traverse, walks_toward


def qp(d):
    return QPolynomial(d)


def _bipoly(terms):
    """The BiPolynomial of (dq, dv, coefficient) terms, as _step_factors gives them."""
    return BiPolynomial({(dq, dv): c for dq, dv, c in terms})


def _binomial(a, b):
    return BiPolynomial({(0, 0): 1, (a, b): -1})


def _v_min(p):
    return min(ve for _, ve in p.terms)


def _v_max(p):
    return max(ve for _, ve in p.terms)


@dataclass(frozen=True)
class RamYipTerm:
    """One walk's term: v^v_exponent times the product of `factors`."""

    folds: dict  # references.traverse's folding sets
    v_exponent: int
    factors: tuple  # one RationalFunction per folding, in step order
    x_exponent: int


def ramyip_terms(family, n):
    """One RamYipTerm per enumerated walk, with the raw (unnormalized) prefactor:
    the per-walk reference for the transfer-matrix sum."""
    if n == 0:
        return []
    out = []
    for word, mask in walks_toward(n):
        lo, folds, arrows = traverse(word, mask)
        factors = []
        for j, bit in enumerate(mask, start=1):
            if not bit:
                step = _step_factors(family, word[j - 1], beta_degree(j, len(word)))
                factors.append(RationalFunction(_bipoly(step[arrows[j - 1]]), _bipoly(step[None])))
        wt, d = alcove_element(lo)
        out.append(RamYipTerm(folds, _prefactor_v(n, d, False), tuple(factors), wt))
    return out


def test_term_structure_n_minus_1():
    terms = ramyip_terms("A2", -1)
    assert sorted(t.x_exponent for t in terms) == [-1, 0, 0, 1]
    # one rational factor per folded step
    for t in terms:
        assert len(t.factors) == sum(map(len, t.folds.values()))


def test_term_structure_n_plus_1():
    terms = ramyip_terms("A2", 1)
    assert sorted(t.x_exponent for t in terms) == [0, 1]


def _break_stat_sets(monkeypatch):
    import macweyl.ramyip as mod

    broken = dict(mod._STAT_SETS)
    broken[("A2", "t0")] = ("J0_pos", "J_neg")
    monkeypatch.setattr(mod, "_STAT_SETS", broken)


@pytest.mark.usefixtures("fresh_specialize")
def test_route_mismatch_raised_on_disagreement(monkeypatch):
    _break_stat_sets(monkeypatch)
    with pytest.raises(RouteMismatch) as exc:
        specialize("A2", -1, "t0")
    assert not exc.value.exact_route.is_zero()
    assert not exc.value.stat_route.is_zero()


@pytest.mark.usefixtures("fresh_specialize")
def test_specialize_keeps_results_but_not_errors(monkeypatch):
    first = specialize("A2", -3, "t0")
    assert specialize("A2", -3, "t0") is first
    _specialized.cache_clear()
    again = specialize("A2", -3, "t0")
    assert again is not first and again == first
    # A key whose call raised is computed again once the fault is gone.
    _break_stat_sets(monkeypatch)
    with pytest.raises(RouteMismatch):
        specialize("A2", -2, "t0")
    monkeypatch.undo()
    assert specialize("A2", -2, "t0") == E_spec("A2", -2, "t0")


@pytest.mark.usefixtures("fresh_specialize")
def test_routes_decode_independently(monkeypatch):
    # ring's decoder, which only the exact route reads, drops its top digit.
    from_packed = QPolynomial.from_packed.__func__

    def dropped(cls, *args, **kwargs):
        p = from_packed(cls, *args, **kwargs)
        return cls({e: c for e, c in p.terms.items() if e != max(p.terms)})

    monkeypatch.setattr(QPolynomial, "from_packed", classmethod(dropped))
    with pytest.raises(RouteMismatch):
        specialize("A2", -5, "t0")


def test_normalized_all_crossing_coefficient():
    full = ramyip_sum("A2", -1)
    assert full.terms[-1] == 1
    full = ramyip_sum("A2dagger", -1)
    assert full.terms[-1] == 1


def test_full_sum_at_n0_is_one():
    for family in ("A2", "A2dagger"):
        for normalize in (True, False):
            assert ramyip_sum(family, 0, normalize) == XPolynomial.constant(RationalFunction(1))


def test_unnormalized_sum_keeps_literal_prefactor():
    full = ramyip_sum("A2", -1, normalize=False)
    # the all-crossing walk carries v^-1 under the printed prefactor
    rf = full.terms[-1]
    assert _v_min(rf.num) - _v_min(rf.den) == -1


def test_specialize_examples():
    assert specialize("A2", -1, "t0") == XPolynomial(
        {-1: qp({0: 1}), 0: qp({1: 1}), 1: qp({0: 1})}
    )
    assert specialize("A2dagger", -1, "t0") == XPolynomial(
        {-1: qp({0: 1}), 0: qp({0: 1}), 1: qp({0: 1})}
    )
    assert specialize("A2", 1, "t0") == XPolynomial({0: qp({1: 1}), 1: qp({0: 1})})
    assert specialize("A2", 0, "t0") == XPolynomial({0: qp({0: 1})})


def test_both_routes_agree_everywhere():
    # specialize() raises RouteMismatch internally if the exact-arithmetic
    # and statistic routes ever diverge
    for family in ("A2", "A2dagger"):
        for n in [m for m in range(-10, 11) if m != 0]:
            for spec in ("t0", "tinf"):
                specialize(family, n, spec)


def _walk_statistics(n):
    """{(family, spec): specialization} summed walk by walk, each walk
    traversed once: the reference for both dynamic programs."""
    counts = {(family, spec): {} for family in FAMILIES for spec in SPECS}
    for word, mask in walks_toward(n):
        lo, folds, _ = traverse(word, mask)
        for (family, spec), terms in counts.items():
            if not surviving(folds, family, spec):
                continue
            qe = 0
            for name in _STAT_SETS[(family, spec)]:
                qe += sum(beta_degree(j, len(word)) for j in folds[name])
            by_q = terms.setdefault(alcove_element(lo)[0], {})
            by_q[qe] = by_q.get(qe, 0) + 1
    return {key: XPolynomial.from_q_terms(terms) for key, terms in counts.items()}


def _dict_statistic_route(family, n, spec):
    """The statistic route on {q-exponent: number of walks} tables, one
    Python operation per count: the reference for the packed counts."""
    cut = CUT_SIGN[(family, spec)]
    stat = _STAT_SETS[(family, spec)]
    word = walk_word(n)
    states = {0: {0: 1}}
    for j, letter in enumerate(word, start=1):
        deg = beta_degree(j, len(word))
        nxt = {}
        for lo, counts in states.items():
            side = wall_side(lo, letter)
            sign = -side
            moves = [(lo + side, 0)]
            if not (letter == S0 and sign == cut):
                moves.append((lo, deg if _FOLD_SET[letter, sign] in stat else 0))
            for target, dq in moves:
                acc = nxt.setdefault(target, {})
                for qe, c in counts.items():
                    acc[qe + dq] = acc.get(qe + dq, 0) + c
        states = nxt
    terms = {}
    for lo, counts in states.items():
        acc = terms.setdefault(alcove_element(lo)[0], {})
        for qe, c in counts.items():
            acc[qe] = acc.get(qe, 0) + c
    return XPolynomial.from_q_terms(terms)


def test_packed_statistic_route_equals_dict_reference():
    for family in FAMILIES:
        for n in [m for m in range(-16, 17) if m != 0]:
            for spec in SPECS:
                want = _dict_statistic_route(family, n, spec)
                assert _statistic_route(family, n, spec) == want, (family, n, spec)
    for n in (-32, 32):
        assert _statistic_route("A2", n, "t0") == _dict_statistic_route("A2", n, "t0"), n


def test_packed_statistic_route_mutants_fail(monkeypatch):
    import macweyl.ramyip as mod

    want = _dict_statistic_route("A2", -32, "t0")
    # The proven width, 9 bytes at l = 64, is 3 bytes wider than the largest
    # count needs, so the mutant narrows to one byte less than that need.
    need = (max(c for p in want.terms.values() for c in p.terms.values()).bit_length() + 7) // 8
    assert _count_width(64) >= need
    monkeypatch.setattr(mod, "_count_width", lambda length: need - 1)
    assert _statistic_route("A2", -32, "t0") != want
    monkeypatch.undo()
    # Every listed fold shifted one digit too far.
    monkeypatch.setattr(mod, "beta_degree", lambda j, length: beta_degree(j, length) + 1)
    assert _statistic_route("A2", -32, "t0") != want


def test_dynamic_programs_equal_walk_enumeration():
    for n in [m for m in range(-8, 9) if m != 0]:
        for (family, spec), want in _walk_statistics(n).items():
            assert _statistic_route(family, n, spec) == want, (family, n, spec)
            assert _exact_route(family, n, spec) == want, (family, n, spec)


def _v_slice(p, ve):
    return {qe: c for (qe, e), c in p.terms.items() if e == ve}


def _limits(rf):
    """(value at v = 0, limit at v = infinity with q -> q^-1) of num/den, read
    off the slices once the denominator is checked to allow it."""
    num, den = rf.num, rf.den
    # den = 1 + O(v): the value at v = 0 is num's v^0 slice
    assert _v_min(den) == 0 and _v_slice(den, 0) == {0: 1}
    # den's top v-term is one +-q^A v^B: the limit is num's v^B slice over it
    top = _v_max(den)
    lead = _v_slice(den, top)
    assert len(lead) == 1
    ((q_top, sign),) = lead.items()
    assert sign in (1, -1)
    assert 0 <= _v_min(num) and _v_max(num) <= top
    t0 = QPolynomial(_v_slice(num, 0))
    tinf = QPolynomial({q_top - qe: sign * c for qe, c in _v_slice(num, top).items()})
    return t0, tinf


def test_window_route_equals_limit_of_full_sum():
    for family in FAMILIES:
        for n in [m for m in range(-7, 8) if m != 0]:
            full = ramyip_sum(family, n)
            limits = {x: _limits(rf) for x, rf in full.terms.items()}
            t0 = {x: at_0 for x, (at_0, _) in limits.items()}
            tinf = {x: at_inf for x, (_, at_inf) in limits.items()}
            assert _exact_route(family, n, "t0") == XPolynomial(t0)
            assert _exact_route(family, n, "tinf") == XPolynomial(tinf)


def test_walk_route_reaches_closed_form_at_bound():
    assert specialize("A2", -16, "t0") == E_spec("A2", -16, "t0")


def _sign(n):
    return 1 if n > 0 else -1


def test_normalized_t0_survivors_sit_at_valuation_zero():
    # Walk by walk: a term's v-valuation is its prefactor's plus 2k - 1 per
    # fold.  Every t = 0 survivor sits at raw valuation sign(n), hence at 0
    # once normalized, and every cut walk above it.
    for family in FAMILIES:
        for n in [m for m in range(-7, 8) if m != 0]:
            for word, mask in walks_toward(n):
                lo, folds, arrows = traverse(word, mask)
                valuation = sum(
                    2 * _FOLD_XI_POWER[family, word[j - 1], arrows[j - 1]] - 1
                    for j, bit in enumerate(mask, start=1) if not bit
                )
                _, d = alcove_element(lo)
                raw = _prefactor_v(n, d, False) + valuation
                normalized = _prefactor_v(n, d, True) + valuation
                if surviving(folds, family, "t0"):
                    assert (raw, normalized) == (_sign(n), 0), (family, n, mask)
                else:
                    assert raw > _sign(n) and normalized > 0, (family, n, mask)


def _least_t0_valuation(family, n):
    """The least raw v-valuation of a t = 0 surviving walk's term, by a
    min-plus pass over alcoves."""
    cut = CUT_SIGN[(family, "t0")]
    states = {0: 0}
    for letter, _ in _steps(n):
        nxt = {}
        for lo, val in states.items():
            for target, sign in _moves(lo, letter):
                if sign is None:
                    step = 0
                elif letter == S0 and sign == cut:
                    continue
                else:
                    step = 2 * _FOLD_XI_POWER[family, letter, sign] - 1
                nxt[target] = min(val + step, nxt.get(target, val + step))
        states = nxt
    return min(
        val + _prefactor_v(n, alcove_element(lo)[1], False)
        for lo, val in states.items()
    )


def test_normalization_is_minus_least_t0_valuation():
    for family in FAMILIES:
        for n in [m for m in range(-32, 33) if m != 0]:
            least = _least_t0_valuation(family, n)
            assert least == _sign(n)
            for d in (0, 1):
                assert _prefactor_v(n, d, True) == _prefactor_v(n, d, False) - least


# Exact rational (q, v) points at which no step binomial 1 - q^a v^b vanishes.
POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(7, 5), Fraction(3, 2)))


def _at(rf, q, v):
    def ev(p):
        return sum(c * q**a * v**b for (a, b), c in p.terms.items())

    return Fraction(ev(rf.num)) / ev(rf.den)


def _valuation(term):
    return term.v_exponent + sum(_v_min(f.num) - _v_min(f.den) for f in term.factors)


def test_transfer_sum_equals_walk_enumeration():
    for family in ("A2", "A2dagger"):
        for n in [m for m in range(-5, 6) if m != 0]:
            terms = ramyip_terms(family, n)
            t0 = [surviving(t.folds, family, "t0") for t in terms]
            shift = -min(_valuation(t) for t, keep in zip(terms, t0) if keep)
            for q, v in POINTS:
                at = {}  # a walk's factors repeat across walks: evaluate each once
                want = {}
                for t in terms:
                    value = v**t.v_exponent
                    for f in t.factors:
                        key = (f.num, f.den)
                        if key not in at:
                            at[key] = _at(f, q, v)
                        value *= at[key]
                    want[t.x_exponent] = want.get(t.x_exponent, 0) + value
                for normalize, extra in ((False, 0), (True, shift)):
                    full = ramyip_sum(family, n, normalize=normalize)
                    got = {x: _at(rf, q, v) for x, rf in full.terms.items()}
                    assert got == {x: c * v**extra for x, c in want.items() if c != 0}
            # normalized: every t = 0 surviving term sits at v-valuation 0,
            # every cut term above it, and so does the sum itself
            for t, keep in zip(terms, t0):
                assert (_valuation(t) + shift == 0) if keep else (_valuation(t) + shift > 0)
            full = ramyip_sum(family, n)
            assert min(_v_min(rf.num) - _v_min(rf.den) for rf in full.terms.values()) == 0


def test_mass_and_symmetry_negative_n():
    for family in ("A2", "A2dagger"):
        for n in range(1, 5):
            p = specialize(family, -n, "t0")
            assert p.eval_at_ones() == 3**n
            assert p == p.mirror_x()


def test_survivor_count_matches_multinomial_count():
    for n in range(1, 5):
        survivors = [mask for word, mask in walks_toward(-n)
                     if surviving(traverse(word, mask)[1], "A2", "t0")]
        total = 0
        for k22 in range(n + 1):
            for k12 in range(n - k22 + 1):
                k11 = n - k22 - k12
                total += q_multinomial(k22, k12, k11, 2).eval_at_one()
        assert len(survivors) == total == 3**n


def test_agreement_with_cform_t0():
    for family in ("A2", "A2dagger"):
        for n in [m for m in range(-4, 5) if m != 0]:
            assert specialize(family, n, "t0") == E_spec(family, n, "t0")


def test_agreement_with_cform_tinf_up_to_mirror():
    for family in ("A2", "A2dagger"):
        for n in range(1, 5):
            assert specialize(family, -n, "tinf") == E_spec(family, -n, "tinf").mirror_x()
    for n in range(1, 5):
        assert specialize("A2", n, "tinf") == E_spec("A2", n, "tinf")


def test_character_agreement_positive_n():
    for n in range(1, 5):
        assert specialize("A2", n, "t0") == ch_W_sigma(n)
        assert specialize("A2", -n, "t0") == ch_W_sigma(-n)


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        specialize("A2", -(SIZE_LIMITS["specialize"] + 1), "t0")
    with pytest.raises(BoundExceeded):
        ramyip_sum("A2", SIZE_LIMITS["sum"] + 1)


def _dict_transfer(family, steps, window=None):
    """The transfer on {v-exponent: {q-exponent: coefficient}} slices, one
    Python operation per term: the reference for the packed rows."""
    states = {0: {0: {0: 1}}}
    for j, (letter, deg) in enumerate(steps):
        least, greatest = (None, None) if window is None else window[j]
        factor = _step_factors(family, letter, deg)
        nxt = {}
        for lo, num in states.items():
            for target, sign in _moves(lo, letter):
                acc = nxt.setdefault(target, {})
                for dq, dv, fc in factor[sign]:
                    for ve, row in num.items():
                        ve += dv
                        if (least is not None and ve < least) or (
                            greatest is not None and ve > greatest
                        ):
                            continue
                        out = acc.setdefault(ve, {})
                        for qe, c in row.items():
                            qe += dq
                            out[qe] = out.get(qe, 0) + fc * c
        states = nxt
    return {
        lo: BiPolynomial({(qe, ve): c for ve, row in num.items() for qe, c in row.items()})
        for lo, num in states.items()
    }


def _packed(p, width):
    """The rows of a BiPolynomial: per v-slice, (base, packed) with base its
    least q-exponent."""
    slices = {}
    for (qe, ve), c in p.terms.items():
        slices.setdefault(ve, {})[qe] = c
    rows = {}
    for ve, row in slices.items():
        base = min(row)
        rows[ve] = (base, sum(c << 8 * width * (qe - base) for qe, c in row.items()))
    return rows


def _unpacked(rows, width):
    return BiPolynomial(
        {(qe, ve): c for ve, row in rows.items() for qe, c in _decode(row, width).terms.items()}
    )


def _mass(p):
    return sum(abs(c) for c in p.terms.values())


def _assert_packed_transfer_equals_reference(family, n, spec=None):
    steps = _steps(n)
    factors = [_step_factors(family, letter, deg) for letter, deg in steps]
    deg_d = sum(_den_exponents(letter, deg)[1] for letter, deg in steps)
    window = None if spec is None else _window(n, factors, deg_d, spec == "t0")
    width = _digit_width(factors, ())
    packed = _transfer(steps, factors, width, window)
    want = _dict_transfer(family, steps, window)
    assert sorted(packed) == sorted(want), (family, n, spec)
    for lo, rows in packed.items():
        assert _unpacked(rows, width) == want[lo], (family, n, spec, lo)


def test_packed_transfer_equals_dict_reference():
    for family in FAMILIES:
        for n in [m for m in range(-12, 13) if m != 0]:
            _assert_packed_transfer_equals_reference(family, n)


def test_windowed_packed_transfer_equals_dict_reference():
    for family in FAMILIES:
        for n in [m for m in range(-16, 17) if m != 0]:
            for spec in SPECS:
                _assert_packed_transfer_equals_reference(family, n, spec)


def test_windowed_packed_transfer_equals_dict_reference_past_16():
    # Up to the specialize limit; the reference takes 5-15 s per case at 32.
    top = SIZE_LIMITS["specialize"]
    for family in FAMILIES:
        for n in (-20, 20, -top, top):
            for spec in SPECS:
                _assert_packed_transfer_equals_reference(family, n, spec)


def _reference_division(p, a, b):
    """(p / (1 - q^a v^b) or None on a remainder, the largest |coefficient|
    the slice recurrence forms), on dict slices."""
    by_v = {}
    for (qe, ve), c in p.terms.items():
        by_v.setdefault(ve, {})[qe] = c
    top = max(by_v)
    slices, formed = {}, 0
    for v in range(min(by_v), top + 1):
        cur = dict(by_v.get(v, {}))
        for qe, c in slices.get(v - b, {}).items():
            cur[qe + a] = cur.get(qe + a, 0) + c
        formed = max([formed] + [abs(c) for c in cur.values()])
        cur = {qe: c for qe, c in cur.items() if c}
        if v > top - b:
            if cur:
                return None, formed
            continue
        slices[v] = cur
    return BiPolynomial({(qe, v): c for v, row in slices.items() for qe, c in row.items()}), formed


@lru_cache(maxsize=None)
def _series_monomials(bs, span):
    """The number of k in N^len(bs) with sum_j k_j b_j <= span."""
    if not bs:
        return 1
    return sum(_series_monomials(bs[1:], span - k * bs[0]) for k in range(span // bs[0] + 1))


def test_coefficients_stay_below_proven_bound():
    # Module docstring: every N_x has mass <= 4^l, every dividend in the chain
    # mass <= 4^l T, every digit a division forms is at most its dividend's
    # mass, and the bound lies below 2^(8w - 1) for the width w, in bytes,
    # that the routes use.
    for family in FAMILIES:
        for n in [m for m in range(-12, 13) if m != 0]:
            steps = _steps(n)
            factors = [_step_factors(family, letter, deg) for letter, deg in steps]
            dens = [_den_exponents(letter, deg) for letter, deg in steps]
            span = 1
            for factor in factors:
                dvs = [dv for terms in factor.values() for _, dv, _ in terms]
                span += max(dvs) - min(dvs)
            transfer_bound = 4 ** len(steps)
            bound = transfer_bound * _series_monomials(tuple(b for _, b in dens), span)
            assert transfer_bound < 2 ** (8 * _digit_width(factors, ()) - 1)
            width = _digit_width(factors, dens)
            assert bound < 2 ** (8 * width - 1)
            # the packed transfer equals the dict reference (tests above)
            for x, rows in _numerators(n, steps, factors, True, width).items():
                num = _unpacked(rows, width)
                assert _mass(num) <= transfer_bound, (family, n, x)
                assert _v_max(num) - _v_min(num) <= span, (family, n, x)
                for a, b in dens:
                    quotient, formed = _reference_division(num, a, b)
                    assert formed <= _mass(num) <= bound, (family, n, x, a, b)
                    if quotient is not None:
                        num = quotient
                assert _mass(num) <= bound, (family, n, x)


def _rand_bipoly(rng):
    """A nonzero random BiPolynomial with small exponents of both signs."""
    n = rng.randint(1, 5)
    p = BiPolynomial(
        {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-9, 9) for _ in range(n)}
    )
    return p if p else BiPolynomial.one()


def _packed_division(p, a, b):
    """p / (1 - q^a v^b) on packed rows, at the width the dividend's mass
    sets: every digit the division forms is at most that mass."""
    width = packed_width(_mass(p))
    return _unpacked(_divide(_packed(p, width), a, b, width), width)


def test_division_remainder_detected():
    rng = random.Random(19)
    for _ in range(100):
        a, b = rng.randint(-3, 3), rng.randint(1, 4)
        p = _rand_bipoly(rng)
        prod = p * _binomial(a, b)
        assert _packed_division(prod, a, b) == p
        # a monomial is a unit, so 1 - q^a v^b divides no sum of prod and one
        unit = BiPolynomial({(rng.randint(-6, 6), rng.randint(-6, 9)): rng.choice((-2, -1, 1, 3))})
        with pytest.raises(NotPolynomial):
            _packed_division(prod + unit, a, b)


def test_binomial_division():
    p = _binomial(2, 2)  # 1 - q^2 v^2
    prod = p * BiPolynomial({(5, 3): 2, (0, 0): 1})
    assert _packed_division(prod, 2, 2) == BiPolynomial({(5, 3): 2, (0, 0): 1})
    with pytest.raises(NotPolynomial):
        _packed_division(BiPolynomial({(0, 1): 1}), 1, 2)


def test_decode_reads_extreme_signed_digits():
    # Widths in bytes: every struct code (1, 2, 4, 8) and widths on both
    # sides of them.  Each row has extreme digits, a negative top digit and
    # a zero digit between nonzero ones.
    rng = random.Random(23)
    for width in (1, 2, 3, 4, 8, 9, 13):
        top = 2 ** (8 * width - 1) - 1
        for _ in range(50):
            lo = rng.randint(-5, 5)
            hi = rng.randint(lo + 2, lo + 15)
            terms = {
                (e, 0): rng.choice((top, -top, 1, -1, 0, rng.randint(-top, top)))
                for e in range(lo, hi)
            }
            terms[lo, 0] = rng.choice((top, -top))
            terms[lo + 1, 0] = 0
            terms[hi, 0] = rng.choice((-top, -1))
            p = BiPolynomial(terms)
            assert _unpacked(_packed(p, width), width) == p
