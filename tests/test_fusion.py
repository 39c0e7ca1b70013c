import copy
import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from macweyl import fusion
from macweyl.fusion import (
    NotCyclic,
    RelationViolation,
    _bracket,
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
    m = build_rep()  # raises RelationViolation on failure
    # {g+, g-} equals h on every basis vector
    anti = _bracket(m["g+"], 1, m["g-"], 1)
    assert anti == m["h"]


def test_h_spectrum():
    h = build_rep()["h"]
    diag = sorted(h[i][i] for i in range(3))
    assert diag == [-1, 0, 1]
    assert all(h[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_traces_vanish():
    matrices = build_rep()
    for name in ("e", "f", "g+", "g-"):
        m = matrices[name]
        assert sum(m[i][i] for i in range(3)) == 0


def _broken_matrices():
    bad = dict(build_rep())
    bad["g-"] = ((0, 1, 0),) + bad["g-"][1:]  # break the sign of g- on the odd vector
    return bad


def test_relation_checker_catches_violations():
    with pytest.raises(RelationViolation):
        check_relations(_broken_matrices())


def test_relation_gate_guards_the_applied_matrices(monkeypatch):
    monkeypatch.setattr(fusion, "_MATRICES", _broken_matrices())
    fusion._relation_gate.cache_clear()
    try:
        with pytest.raises(RelationViolation):
            build_rep()
        with pytest.raises(RelationViolation):
            fusion_character(2, [1, 2])
    finally:
        fusion._relation_gate.cache_clear()


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


def test_n7_matches_closed_form():
    points = (Fraction(1, 2), -3, Fraction(5, 3), Fraction(-7, 2), Fraction(2, 5), 4,
              Fraction(-5, 4))  # the benchmark ladder's points
    assert fusion_character(7, points) == ch_W(-7)


def test_n8_bound_exceeded_fast():
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        fusion_character(8, [1, 2, 3, 4, 5, 6, 7, 8])
    with pytest.raises(BoundExceeded):
        fusion_character(8, [1, 2, 3, 4, 5, 6, 7, 8], twisted=True)
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


def _tensor_states(n, lowest_only=False):
    """The tensor states of each weight (w <= 0 only, when asked), and each
    state's index among the states of its weight."""
    states = {}
    for state in product(range(3), repeat=n):
        if not lowest_only or sum(state) <= n:
            states.setdefault(sum(state) - n, []).append(state)
    index = {s: i for group in states.values() for i, s in enumerate(group)}
    return states, index


def _apply(name, k, points, states, index, w, vec):
    """name(x)t^k on a vector of weight w, with the dense matrices of
    build_rep; returns the image's weight and the image."""
    m, raise_by = build_rep()[name], 2 if name == "e" else 1
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


def _all_weights_character(n, points, twisted=False):
    """The literal filtration over every weight, w > 0 included: every
    current of n+[t] (degree 0 included, up to the Cayley-Hamilton caps)
    applied to every vector found, acting with the dense matrices of
    build_rep.  Returns the character of the cyclic submodule it reaches."""
    scale = lcm(*(Fraction(p).denominator for p in points))
    points = [int(Fraction(p) * scale) for p in points]
    if twisted:
        currents = [("e", 2 * m) for m in range(n)] + [("g+", 2 * m + 1) for m in range(n)]
    else:
        currents = [(name, k) for name in ("e", "g+") for k in range(n)]
    states, index = _tensor_states(n)
    spaces = {w: _WeightSpace(len(group)) for w, group in states.items()}

    char, pending, degree = {}, {0: [(-n, [1])]}, 0
    while pending:
        queue = pending.pop(degree, [])
        for w, vec in queue:  # grows with the degree-0 images
            if not spaces[w].add(vec):
                continue
            char[degree, w] = char.get((degree, w), 0) + 1
            for name, k in currents:
                if w + (2 if name == "e" else 1) in spaces:
                    (queue if k == 0 else pending.setdefault(degree + k, [])).append(
                        _apply(name, k, points, states, index, w, vec)
                    )
        degree += 1
    return XPolynomial.from_pairs(
        (w, QPolynomial({deg: mult})) for (deg, w), mult in char.items()
    )


def test_quotient_map_kernel_is_the_degree_zero_image():
    # pi_w kills Z e_s for every state s of weight w - step and has rank
    # D_w - D_(w-step), so its kernel is exactly Z V_(w - step).
    for n in range(1, 6):
        states, index = _tensor_states(n, lowest_only=True)
        assert fusion._states(n) == ({w: tuple(g) for w, g in states.items()}, index)
        for twisted in (False, True):
            z, step = ("e", 2) if twisted else ("g+", 1)
            maps = fusion._quotient_maps(n, twisted)
            assert sorted(maps) == sorted(states)
            for w, group in states.items():
                below = states.get(w - step, [])
                for i in range(len(below)):
                    unit = [int(i == j) for j in range(len(below))]
                    _, img = _apply(z, 0, [1] * n, states, index, w - step, unit)
                    assert not any(maps[w](img))
                space = _WeightSpace(len(maps[w].free))
                for i in range(len(group)):
                    space.add(maps[w]([int(i == j) for j in range(len(group))]))
                assert len(space.pivots) == len(group) - len(below)


@pytest.mark.parametrize("twisted", (False, True))
def test_oracle_equals_all_weights_filtration(twisted):
    # The oracle works in the lowest-weight quotients of the weights w <= 0
    # and mirrors; the literal filtration over every weight, with every
    # current, must give the same graded character.
    point_sets = [POINT_SETS[1], MIXED_POINTS[:4]]
    if not twisted:  # a point 0 is fixed by the twist: not cyclic there
        point_sets.append((Fraction(3, 2), 0, -2, 1))
    for points in point_sets:
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
        (2, [Fraction(3, 2), 0], True, "6 < 9"),
    )
    for n, points, twisted, dims in cases:
        with pytest.raises(NotCyclic) as err:
            fusion_character(n, points, twisted=twisted)
        assert str(err.value) == "filtration stabilized at dimension " + dims
        found = _all_weights_character(n, points, twisted).eval_at_ones()
        assert found == int(dims.split()[0])


# Point sets of five with distinct squares and no point 0, so every prefix is
# cyclic for both kinds.
CACHE_POINT_SETS = (
    [1, -2, 3, Fraction(5, 2), Fraction(-1, 3)],
    MIXED_POINTS,
    [2, Fraction(1, 3), -4, Fraction(3, 2), 5],
)


def test_cached_skeleton_serves_interleaved_calls():
    # One process, cold caches, n and the kind changing from call to call:
    # each call reads the tables another call built, scaled by its own points.
    for cached in (fusion._states, fusion._unit_table, fusion._quotient_maps):
        cached.cache_clear()
    for points in CACHE_POINT_SETS:
        for n in (2, 5, 1, 4, 3):
            for twisted in ((False, True) if n % 2 else (True, False)):
                expected = ch_W_sigma(-n) if twisted else ch_W(-n)
                assert fusion_character(n, points[:n], twisted=twisted) == expected


@pytest.mark.parametrize("twisted, repeated", ((False, [1, 1, 2]), (True, [1, -1, 2])))
def test_no_points_leak_between_calls(twisted, repeated):
    expected = ch_W_sigma(-3) if twisted else ch_W(-3)
    assert fusion_character(3, [1, 2, 3], twisted=twisted) == expected
    with pytest.raises(NotCyclic):
        fusion_character(3, repeated, twisted=twisted)
    assert fusion_character(3, [1, 2, 3], twisted=twisted) == expected


def _cached_snapshot(n):
    """Deep copies of everything cached for n: the states and their index,
    both kinds' quotient maps, and every unit table."""
    states, index = fusion._states(n)
    maps = {tw: {w: (m.free, m.scale, m.rows) for w, m in fusion._quotient_maps(n, tw).items()}
            for tw in (False, True)}
    units = {(name, w): fusion._unit_table(n, name, w)
             for name, raise_by in fusion._RAISE.items() for w in states if w + raise_by <= 0}
    return copy.deepcopy((states, index, maps, units))


def test_calls_leave_the_cached_tables_unchanged():
    for n in (3, 4):
        before = _cached_snapshot(n)
        maps = fusion._quotient_maps(n, False)
        for twisted in (False, True):
            fusion_character(n, MIXED_POINTS[:n], twisted=twisted)
        with pytest.raises(NotCyclic):
            fusion_character(n, [1, 1] + MIXED_POINTS[: n - 2])
        assert fusion._quotient_maps(n, False) is maps  # served from the cache
        assert _cached_snapshot(n) == before
