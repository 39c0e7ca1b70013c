import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from macweyl import fusion
from macweyl.fusion import (
    NotCyclic,
    RelationViolation,
    SuperRep,
    _bracket,
    _generators,
    _WeightSpace,
    build_rep,
    check_relations,
    fusion_character,
)
from macweyl.ring import BoundExceeded, QPolynomial, XPolynomial
from macweyl.weylchar import ch_W, ch_W_sigma

POINT_SETS = ([1, 2, 3], [1, -2, 3], [Fraction(1, 2), 2, 5])
MIXED_POINTS = [Fraction(1, 2), -3, Fraction(5, 3), Fraction(-7, 2), Fraction(2, 5)]


def test_relations_hold():
    rep = build_rep()  # raises RelationViolation on failure
    m = rep.matrices
    # {g+, g-} equals h on every basis vector
    anti = _bracket(m["g+"], 1, m["g-"], 1)
    assert anti == m["h"]


def test_h_spectrum():
    rep = build_rep()
    h = rep.matrices["h"]
    diag = sorted(h[i][i] for i in range(3))
    assert diag == [-1, 0, 1]
    assert all(h[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_traces_vanish():
    rep = build_rep()
    for name in ("e", "f", "g+", "g-"):
        m = rep.matrices[name]
        assert sum(m[i][i] for i in range(3)) == 0


def test_relation_checker_catches_violations():
    rep = build_rep()
    bad = {k: [row[:] for row in v] for k, v in rep.matrices.items()}
    bad["g-"][0][1] = Fraction(1)  # break the sign of g- on the odd vector
    with pytest.raises(RelationViolation):
        check_relations(SuperRep(matrices=bad, parities=rep.parities))


def test_untwisted_characters_match_closed_form():
    for n in range(1, 4):
        for pts in POINT_SETS:
            assert fusion_character(n, pts[:n]) == ch_W(-n)


def test_twisted_characters_match_closed_form():
    for n in range(1, 4):
        for pts in POINT_SETS:
            assert fusion_character(n, pts[:n], twisted=True) == ch_W_sigma(-n)


def test_untwisted_n4():
    assert fusion_character(4, [1, 2, 3, 4]) == ch_W(-4)


def test_dimension_3_to_n():
    for n in range(1, 4):
        assert fusion_character(n, POINT_SETS[0][:n]).eval_at_ones() == 3**n
        assert fusion_character(n, POINT_SETS[0][:n], twisted=True).eval_at_ones() == 3**n


def test_repeated_points_not_cyclic():
    with pytest.raises(NotCyclic):
        fusion_character(2, [1, 1])


def test_twisted_equal_squares_not_cyclic():
    with pytest.raises(NotCyclic):
        fusion_character(2, [1, -1], twisted=True)
    # the same points are fine untwisted
    assert fusion_character(2, [1, -1]) == ch_W(-2)


def test_n5_matches_closed_form():
    assert fusion_character(5, MIXED_POINTS) == ch_W(-5)
    assert fusion_character(5, MIXED_POINTS, twisted=True) == ch_W_sigma(-5)


def test_scaled_points_same_character():
    # t -> ct is a graded automorphism, so scaling all points changes nothing
    pts = MIXED_POINTS[:3]
    scaled = [Fraction(7, 3) * p for p in pts]
    for twisted in (False, True):
        assert fusion_character(3, scaled, twisted=twisted) == fusion_character(
            3, pts, twisted=twisted
        )


def test_rational_equal_squares_not_cyclic():
    with pytest.raises(NotCyclic):
        fusion_character(2, [Fraction(1, 2), Fraction(-1, 2)], twisted=True)


def test_n6_matches_closed_form():
    points = (1, -2, 3, -4, 5, -6)  # distinct squares
    assert fusion_character(6, points) == ch_W(-6)
    assert fusion_character(6, points, twisted=True) == ch_W_sigma(-6)


def test_n7_bound_exceeded_fast():
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        fusion_character(7, [1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(BoundExceeded):
        fusion_character(7, [1, 2, 3, 4, 5, 6, 7], twisted=True)
    assert time.perf_counter() - start < 1.0


def test_relation_gate_runs_once_per_process(monkeypatch):
    calls = []
    real = fusion.check_relations

    def counting(rep):
        calls.append(rep)
        real(rep)

    monkeypatch.setattr(fusion, "check_relations", counting)
    fusion._relation_gate.cache_clear()
    try:
        fusion_character(2, [1, 2])
        fusion_character(2, [1, 2], twisted=True)
    finally:
        fusion._relation_gate.cache_clear()
    assert len(calls) == 1


def _all_weights_character(n, points, twisted=False):
    """The literal filtration over every weight, w > 0 included: the oracle's
    loop without the sl2 symmetry, acting with the dense matrices of
    build_rep.  Returns the character of the cyclic submodule it reaches."""
    matrices = build_rep().matrices
    scale = lcm(*(Fraction(p).denominator for p in points))
    points = [int(Fraction(p) * scale) for p in points]
    states = {}
    for state in product(range(3), repeat=n):
        states.setdefault(sum(state) - n, []).append(state)
    index = {s: i for group in states.values() for i, s in enumerate(group)}
    spaces = {w: _WeightSpace(len(group)) for w, group in states.items()}

    def apply(name, k, w, vec):
        m, raise_by = matrices[name], 2 if name == "e" else 1
        img = [0] * len(states[w + raise_by])
        for c, state in zip(vec, states[w]):
            sign = 1
            for i, s in enumerate(state):
                for row in range(3):
                    if m[row][s]:
                        target = index[state[:i] + (row,) + state[i + 1 :]]
                        img[target] += sign * m[row][s] * points[i] ** k * c
                if name == "g+" and s == 1:  # Koszul sign past an odd vector
                    sign = -sign
        return w + raise_by, img

    char, pending, degree = {}, {0: [(-n, [1])]}, 0
    while pending:
        queue = pending.pop(degree, [])
        for w, vec in queue:  # grows with the degree-0 images
            if not spaces[w].add(vec):
                continue
            char[degree, w] = char.get((degree, w), 0) + 1
            for name, k in _generators(n, twisted):
                if w + (2 if name == "e" else 1) in spaces:
                    (queue if k == 0 else pending.setdefault(degree + k, [])).append(
                        apply(name, k, w, vec)
                    )
        degree += 1
    return XPolynomial.from_pairs(
        (w, QPolynomial.monomial(mult, deg)) for (deg, w), mult in char.items()
    )


@pytest.mark.parametrize("twisted", (False, True))
def test_oracle_equals_all_weights_filtration(twisted):
    # The oracle builds only w <= 0 and mirrors; the literal filtration
    # over every weight must give the same graded character.
    for points in (POINT_SETS[1], MIXED_POINTS[:4]):
        for n in range(1, len(points) + 1):
            assert fusion_character(n, points[:n], twisted=twisted) == (
                _all_weights_character(n, points[:n], twisted)
            )


def test_not_cyclic_message_counts_every_weight():
    # The oracle fills only w <= 0, but reports the full dimensions.
    cases = (
        (3, [1, 1, 2], False, "15 < 27"),
        (3, [1, -1, 2], True, "15 < 27"),
        (4, [1, 1, 2, 3], False, "45 < 81"),
        (4, [1, 1, 1, 2], False, "21 < 81"),
    )
    for n, points, twisted, dims in cases:
        with pytest.raises(NotCyclic) as err:
            fusion_character(n, points, twisted=twisted)
        assert str(err.value) == "filtration stabilized at dimension " + dims
        found = _all_weights_character(n, points, twisted).eval_at_ones()
        assert found == int(dims.split()[0])
