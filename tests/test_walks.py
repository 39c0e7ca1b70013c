import pytest

from macweyl.walks import (
    CUT_SIGN,
    S0,
    S1,
    AlcoveWalk,
    MalformedWalk,
    alcove_element,
    beta_degree,
    enumerate_walks,
    leg,
    legprime,
    legprime_counts,
    legprime_shifted,
    qb_filter,
    to_hword,
    traverse,
    walk_word,
    x_weight,
)


def test_walk_words():
    assert walk_word(-1) == (S1, S0)
    assert walk_word(-2) == (S1, S0, S1, S0)
    assert walk_word(1) == (S0,)
    assert walk_word(2) == (S0, S1, S0)
    assert walk_word(3) == (S0, S1, S0, S1, S0)
    with pytest.raises(ValueError):
        walk_word(0)


def test_traverse_examples():
    s = traverse(AlcoveWalk(walk_word(-1), (1, 1)))
    assert (s.lo, *alcove_element(s.lo)) == (-2, -1, 0)
    assert not s.J

    s = traverse(AlcoveWalk(walk_word(-1), (0, 1)))
    assert (s.lo, *alcove_element(s.lo)) == (1, 1, 1)
    assert s.J == {1} and s.J_pos == {1}

    s = traverse(AlcoveWalk(walk_word(1), (1,)))
    assert (s.lo, *alcove_element(s.lo)) == (1, 1, 1)


def test_alcove_element_reads_the_alcove():
    # 2wt X * s1^d sits in the alcove (2wt - d, 2wt - d + 1).
    for lo in range(-9, 10):
        wt, d = alcove_element(lo)
        assert d in (0, 1) and 2 * wt - d == lo


def test_hword_examples():
    word = walk_word(-1)
    assert to_hword(AlcoveWalk(word, (1, 1)), -1) == (2, 2, 2)
    assert to_hword(AlcoveWalk(word, (0, 1)), -1) == (2, 1, 1)
    assert to_hword(AlcoveWalk(word, (0, 0)), -1) == (2, 1, 2)


def test_x_weight_examples():
    assert x_weight((2, 2, 2)) == -1
    assert x_weight((2, 1, 1)) == 1
    assert x_weight((2, 1, 2)) == 0


def test_leg_examples():
    assert leg((2, 1, 2)) == 1
    assert leg((2, 2, 2)) == 0
    assert legprime((2, 2, 1)) == 0
    assert legprime_shifted((2, 2, 1)) == 1


def test_beta_degree():
    assert beta_degree(2, 2) == 1
    assert beta_degree(1, 2) == 2
    assert beta_degree(3, 10) == 8
    with pytest.raises(ValueError):
        beta_degree(0, 2)


def test_enumeration_counts():
    assert len(enumerate_walks(-1)) == 4
    assert len(enumerate_walks(1)) == 2
    assert len(enumerate_walks(-2)) == 16
    for n in (-3, 3, -4):
        l = len(walk_word(n))
        assert len(enumerate_walks(n)) == 2**l


def test_enumeration_is_lexicographic():
    masks = [w.mask for w in enumerate_walks(-1)]
    assert masks == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_qb_filter_examples():
    walks = enumerate_walks(-1)
    assert len(qb_filter(walks, "A2", "t0")) == 3
    cut = [w for w in walks if w not in qb_filter(walks, "A2", "t0")]
    assert cut[0].mask == (1, 0)
    assert len(qb_filter(walks, "A2", "tinf")) == 3
    cut = [w for w in walks if w not in qb_filter(walks, "A2", "tinf")]
    assert cut[0].mask == (0, 0)
    assert len(qb_filter(enumerate_walks(1), "A2", "t0")) == 2
    assert len(qb_filter(enumerate_walks(1), "A2dagger", "t0")) == 1


def test_hword_round_trip_reproduces_fold_classification():
    for n in [m for m in range(-4, 5) if m != 0]:
        word = walk_word(n)
        sign = 1 if n > 0 else -1
        for walk in enumerate_walks(n):
            stats = traverse(walk)
            h = to_hword(walk, sign)
            # geometric arrows agree with the flip rule
            assert tuple(1 if a > 0 else 2 for a in stats.arrows) == h[1:]
            j0p, j0n, jp, jn = set(), set(), set(), set()
            for i in range(1, len(h)):
                if h[i] == h[i - 1]:
                    continue
                positive = h[i] == 1
                if word[i - 1] == S0:
                    (j0p if positive else j0n).add(i)
                else:
                    (jp if positive else jn).add(i)
            assert j0p == stats.J0_pos and j0n == stats.J0_neg
            assert jp == stats.J_pos and jn == stats.J_neg


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
        sign = 1 if n > 0 else -1
        for walk in enumerate_walks(n):
            wt, _ = alcove_element(traverse(walk).lo)
            h = to_hword(walk, sign)
            ones = sum(1 for v in h[1:] if v == 1)
            twos = len(h) - 1 - ones
            assert ones - twos == 2 * wt - (1 if n > 0 else 0)
            assert x_weight(h) == wt


def test_malformed_walk():
    with pytest.raises(MalformedWalk):
        AlcoveWalk((S1, S0), (1,))
    with pytest.raises(MalformedWalk):
        AlcoveWalk((S1, S0), (1, 1))._replace(mask=(1,))
    with pytest.raises(MalformedWalk):
        traverse(AlcoveWalk((7,), (1,)))


def _enumerated_tables(n, cut):
    """{x_weight: {statistic: count}} for legprime and legprime_shifted over
    the listed walks without an s0-folding of sign cut."""
    tables = ({}, {})
    for walk in enumerate_walks(n):
        stats = traverse(walk)
        if stats.J0_pos if cut > 0 else stats.J0_neg:
            continue
        h = to_hword(walk, 1 if n > 0 else -1)
        for table, fn in zip(tables, (legprime, legprime_shifted)):
            by_q = table.setdefault(x_weight(h), {})
            by_q[fn(h)] = by_q.get(fn(h), 0) + 1
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
