import time
from fractions import Fraction

import pytest

from macweyl import fusion
from macweyl.fusion import (
    BoundExceeded,
    NotCyclic,
    RelationViolation,
    SuperRep,
    _bracket,
    build_rep,
    check_relations,
    fusion_character,
)
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
