from dataclasses import dataclass
from fractions import Fraction

import pytest

from macweyl.cform import E_spec
from macweyl.qcomb import q_multinomial
from macweyl.ramyip import (
    _FOLD_XI_POWER,
    _STAT_SETS,
    _binomial,
    _den_exponents,
    _exact_route,
    _fold_numerator,
    _moves,
    _prefactor_v,
    _statistic_route,
    _steps,
    ramyip_sum,
    specialize,
)
from macweyl.ring import SIZE_LIMITS, BoundExceeded, QPolynomial, RationalFunction, XPolynomial
from macweyl.walks import (
    CUT_SIGN,
    FAMILIES,
    S0,
    SPECS,
    alcove_element,
    beta_degree,
    enumerate_walks,
    qb_filter,
    surviving,
    traverse,
)
from macweyl.weylchar import ch_W_sigma


def qp(d):
    return QPolynomial(d)


@dataclass(frozen=True)
class RamYipTerm:
    """One walk's term: v^v_exponent times the product of `factors`."""

    walk: object
    v_exponent: int
    factors: tuple  # one RationalFunction per folding, in step order
    x_exponent: int


def ramyip_terms(family, n):
    """One RamYipTerm per enumerated walk, with the raw (unnormalized) prefactor:
    the per-walk reference for the transfer-matrix sum."""
    if n == 0:
        return []
    out = []
    for walk in enumerate_walks(n):
        stats = traverse(walk)
        factors = []
        for j in stats.folds:
            letter, deg = walk.word[j - 1], beta_degree(j, walk.length)
            factors.append(RationalFunction(
                _fold_numerator(family, letter, stats.arrows[j - 1], deg),
                _binomial(*_den_exponents(letter, deg)),
            ))
        wt, d = alcove_element(stats.lo)
        out.append(RamYipTerm(walk, _prefactor_v(n, d, False), tuple(factors), wt))
    return out


def test_term_structure_n_minus_1():
    terms = ramyip_terms("A2", -1)
    assert sorted(t.x_exponent for t in terms) == [-1, 0, 0, 1]
    # one rational factor per folded step
    for t in terms:
        assert len(t.factors) == sum(1 for b in t.walk.mask if b == 0)


def test_term_structure_n_plus_1():
    terms = ramyip_terms("A2", 1)
    assert sorted(t.x_exponent for t in terms) == [0, 1]


def test_route_mismatch_raised_on_disagreement(monkeypatch):
    import macweyl.ramyip as mod

    broken = dict(mod._STAT_SETS)
    broken[("A2", "t0")] = ("J0_pos", "J_neg")
    monkeypatch.setattr(mod, "_STAT_SETS", broken)
    with pytest.raises(mod.RouteMismatch) as exc:
        specialize("A2", -1, "t0")
    assert not exc.value.exact_route.is_zero()
    assert not exc.value.stat_route.is_zero()


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
    assert rf.num.v_min() - rf.den.v_min() == -1


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
    for walk in enumerate_walks(n):
        stats = traverse(walk)
        for (family, spec), terms in counts.items():
            if not surviving(stats, family, spec):
                continue
            qe = 0
            for name in _STAT_SETS[(family, spec)]:
                qe += sum(beta_degree(j, walk.length) for j in getattr(stats, name))
            by_q = terms.setdefault(alcove_element(stats.lo)[0], {})
            by_q[qe] = by_q.get(qe, 0) + 1
    return {key: XPolynomial.from_q_terms(terms) for key, terms in counts.items()}


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
    assert den.v_min() == 0 and _v_slice(den, 0) == {0: 1}
    # den's top v-term is one +-q^A v^B: the limit is num's v^B slice over it
    top = den.v_max()
    lead = _v_slice(den, top)
    assert len(lead) == 1
    ((q_top, sign),) = lead.items()
    assert sign in (1, -1)
    assert 0 <= num.v_min() and num.v_max() <= top
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
            for walk in enumerate_walks(n):
                stats = traverse(walk)
                folds = sum(
                    2 * _FOLD_XI_POWER[family, walk.word[j - 1], stats.arrows[j - 1]] - 1
                    for j in stats.folds
                )
                _, d = alcove_element(stats.lo)
                raw = _prefactor_v(n, d, False) + folds
                normalized = _prefactor_v(n, d, True) + folds
                if surviving(stats, family, "t0"):
                    assert (raw, normalized) == (_sign(n), 0), (family, n, walk.mask)
                else:
                    assert raw > _sign(n) and normalized > 0, (family, n, walk.mask)


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
    return term.v_exponent + sum(f.num.v_min() - f.den.v_min() for f in term.factors)


def test_transfer_sum_equals_walk_enumeration():
    for family in ("A2", "A2dagger"):
        for n in [m for m in range(-5, 6) if m != 0]:
            terms = ramyip_terms(family, n)
            t0 = [surviving(traverse(t.walk), family, "t0") for t in terms]
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
            assert min(rf.num.v_min() - rf.den.v_min() for rf in full.terms.values()) == 0


def test_mass_and_symmetry_negative_n():
    for family in ("A2", "A2dagger"):
        for n in range(1, 5):
            p = specialize(family, -n, "t0")
            assert p.eval_at_ones() == 3**n
            assert p == p.mirror_x()


def test_survivor_count_matches_multinomial_count():
    for n in range(1, 5):
        survivors = qb_filter(enumerate_walks(-n), "A2", "t0")
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
