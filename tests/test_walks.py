import pytest

from macweyl.walks import CUT_SIGN, S0, S1, alcove_element, beta_degree, legprime_counts, walk_word
from references import hword, leg, legprime, surviving, traverse, walks_toward, x_weight


def test_walk_words():
    assert walk_word(-1) == (S1, S0)
    assert walk_word(-2) == (S1, S0, S1, S0)
    assert walk_word(1) == (S0,)
    assert walk_word(2) == (S0, S1, S0)
    assert walk_word(3) == (S0, S1, S0, S1, S0)
    with pytest.raises(ValueError):
        walk_word(0)


def test_traverse_examples():
    lo, folds, _ = traverse(walk_word(-1), (1, 1))
    assert (lo, *alcove_element(lo)) == (-2, -1, 0)
    assert not any(folds.values())

    lo, folds, _ = traverse(walk_word(-1), (0, 1))
    assert (lo, *alcove_element(lo)) == (1, 1, 1)
    assert folds == {"J0_pos": [], "J0_neg": [], "J_pos": [1], "J_neg": []}

    lo, _, _ = traverse(walk_word(1), (1,))
    assert (lo, *alcove_element(lo)) == (1, 1, 1)


def test_alcove_element_reads_the_alcove():
    # 2wt X * s1^d sits in the alcove (2wt - d, 2wt - d + 1).
    for lo in range(-9, 10):
        wt, d = alcove_element(lo)
        assert d in (0, 1) and 2 * wt - d == lo


def test_hword_examples():
    assert hword((1, 1), -1) == (2, 2, 2)
    assert hword((0, 1), -1) == (2, 1, 1)
    assert hword((0, 0), -1) == (2, 1, 2)


def test_x_weight_examples():
    assert x_weight((2, 2, 2)) == -1
    assert x_weight((2, 1, 1)) == 1
    assert x_weight((2, 1, 2)) == 0


def test_leg_examples():
    assert leg((2, 1, 2)) == 1
    assert leg((2, 2, 2)) == 0
    assert legprime((2, 2, 1), 0) == 0
    assert legprime((2, 2, 1), 1) == 1


def test_beta_degree():
    assert beta_degree(2, 2) == 1
    assert beta_degree(1, 2) == 2
    assert beta_degree(3, 10) == 8
    with pytest.raises(ValueError):
        beta_degree(0, 2)


def test_enumeration_counts():
    assert len(walks_toward(-1)) == 4
    assert len(walks_toward(1)) == 2
    assert len(walks_toward(-2)) == 16
    for n in (-3, 3, -4):
        l = len(walk_word(n))
        assert len(walks_toward(n)) == 2**l


def test_enumeration_is_lexicographic():
    masks = [mask for _, mask in walks_toward(-1)]
    assert masks == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _cut_masks(n, family, spec):
    return [mask for word, mask in walks_toward(n)
            if not surviving(traverse(word, mask)[1], family, spec)]


def test_qb_filter_examples():
    assert _cut_masks(-1, "A2", "t0") == [(1, 0)]
    assert _cut_masks(-1, "A2", "tinf") == [(0, 0)]
    assert _cut_masks(1, "A2", "t0") == []
    assert len(_cut_masks(1, "A2dagger", "t0")) == 1


def test_hword_round_trip_reproduces_fold_classification():
    for n in [m for m in range(-4, 5) if m != 0]:
        for word, mask in walks_toward(n):
            _, folds, arrows = traverse(word, mask)
            h = hword(mask, n)
            # geometric arrows agree with the flip rule
            assert tuple(1 if a > 0 else 2 for a in arrows) == h[1:]
            want = {"J0_pos": [], "J0_neg": [], "J_pos": [], "J_neg": []}
            for i in range(1, len(h)):
                if h[i] != h[i - 1]:
                    name = ("J0" if word[i - 1] == S0 else "J") + ("_pos" if h[i] == 1 else "_neg")
                    want[name].append(i)
            assert folds == want


def test_s0_step_positions():
    for n in range(1, 5):
        word = walk_word(-n)
        assert all(word[i - 1] == S0 for i in range(2, 2 * n + 1, 2))
        word = walk_word(n)
        assert all(word[i - 1] == S0 for i in range(1, 2 * n, 2))


def test_direction_count_identity():
    # #1's - #2's over i>0 equals 2*wt minus one when the target is positive;
    # consequently the printed x-exponent formula reproduces wt exactly.
    for n in [m for m in range(-4, 5) if m != 0]:
        for word, mask in walks_toward(n):
            wt, _ = alcove_element(traverse(word, mask)[0])
            h = hword(mask, n)
            assert h[1:].count(1) - h[1:].count(2) == 2 * wt - (1 if n > 0 else 0)
            assert x_weight(h) == wt


def _enumerated_tables(n, cut):
    """{x_weight: {statistic: count}} for legprime at shifts 0 and 1 over
    the listed walks without an s0-folding of sign cut."""
    tables = ({}, {})
    for word, mask in walks_toward(n):
        if traverse(word, mask)[1]["J0_pos" if cut > 0 else "J0_neg"]:
            continue
        h = hword(mask, n)
        for shift, table in enumerate(tables):
            by_q = table.setdefault(x_weight(h), {})
            by_q[legprime(h, shift)] = by_q.get(legprime(h, shift), 0) + 1
    return tables


def test_legprime_dp_equals_enumeration_and_rejects_mutants():
    assert set(CUT_SIGN.values()) == {1, -1}
    for n in (*range(-7, 0), *range(1, 8)):
        for cut in (1, -1):
            for shift, table in enumerate(_enumerated_tables(n, cut)):
                assert legprime_counts(n, cut, shift) == table
                # The other cut sign fails, and so does an ascent weighed one
                # step off wherever a walk ascends (not at n = 1, l = 1).
                assert legprime_counts(n, -cut, shift) != table
                if n != 1:
                    assert legprime_counts(n, cut, shift - 1) != table
                    assert legprime_counts(n, cut, shift + 1) != table
