"""Walk-by-walk, recurrence and basis references for the tests.

A walk is stepped by the geometry of the integer line alone, never by
walks.step or walks.wall_side; the coefficient tables are built by their
defining recurrences on QPolynomial dicts; the basis monomials are generated
by each kind's inequalities, written out as loops, never by weylchar._blocks.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from macweyl.qcomb import q_binomial
from macweyl.ring import QPolynomial
from macweyl.walks import CUT_SIGN, S0, S1, walk_word


def walks_toward(n):
    """Every walk toward weight n != 0 as (word, mask), in lexicographic mask
    order; mask bit 1 = crossing, 0 = folding."""
    word = walk_word(n)
    return [(word, mask) for mask in product((0, 1), repeat=len(word))]


def traverse(word, mask):
    """(lo, folds, arrows) of the walk from the alcove (0, 1): (lo, lo + 1)
    the final alcove, folds {"J0_pos", "J0_neg", "J_pos", "J_neg": step
    numbers}, arrows the final direction of each step, +1 right, -1 left.

    s1 labels the even end of an alcove, s0 the odd end.  A crossing moves
    through that wall, its arrow toward it; a folding stays, its arrow away
    from it, and is positive when that is right: J0 for s0, J for s1.
    """
    lo = 0
    folds = {"J0_pos": [], "J0_neg": [], "J_pos": [], "J_neg": []}
    arrows = []
    for i, (letter, bit) in enumerate(zip(word, mask), start=1):
        wall = lo if lo % 2 == (0 if letter == S1 else 1) else lo + 1
        toward = 1 if wall > lo else -1
        if bit:
            lo += toward
        else:
            folds[("J0" if letter == S0 else "J") + ("_pos" if toward < 0 else "_neg")].append(i)
        arrows.append(toward if bit else -toward)
    return lo, folds, arrows


def hword(mask, n):
    """(h_0, ..., h_l), 1 = rightward, 2 = leftward: h_0 = 1 iff n > 0, and a
    crossing keeps the direction, a folding flips it."""
    h = [1 if n > 0 else 2]
    for bit in mask:
        h.append(h[-1] if bit else 3 - h[-1])
    return tuple(h)


def x_weight(h):
    """floor((#{i>0: h_i=1} - #{i>0: h_i=2} + 1) / 2)."""
    return (2 * h[1:].count(1) - (len(h) - 1) + 1) // 2


def leg(h):
    """Descent statistic: sum of j over h[l-j] = 1, h[l-j+1] = 2."""
    l = len(h) - 1
    return sum(j for j in range(1, l + 1) if h[l - j] == 1 and h[l - j + 1] == 2)


def legprime(h, shift):
    """Ascent statistic: sum of j + shift over h[l-j] = 1, h[l-j-1] = 2, j < l.
    At shift 0 an ascent at the last step counts nothing; shift 1 weighs
    every ascent by its full wall depth."""
    l = len(h) - 1
    return sum(j + shift for j in range(l) if h[l - j] == 1 and h[l - j - 1] == 2)


def surviving(folds, family, spec):
    """True when the walk has no s0-folding of the sign the limit cuts."""
    return not folds["J0_pos" if CUT_SIGN[family, spec] > 0 else "J0_neg"]


def q_multinomial(k1, k2, k3, base_exponent=2):
    """Trinomial (k1+k2+k3; k1, k2, k3) in q^base_exponent; 0 on negatives."""
    if k1 < 0 or k2 < 0 or k3 < 0:
        return QPolynomial.zero()
    n = k1 + k2 + k3
    return q_binomial(n, k1, base_exponent) * q_binomial(n - k1, k2, base_exponent)


@lru_cache(maxsize=None)
def c_rec(r, k22, k12, k11):
    if k22 < 0 or k12 < 0 or k11 < 0:
        return QPolynomial.zero()
    if (k22, k12, k11) == (0, 0, 0):
        return QPolynomial.one()
    n = k22 + k12 + k11
    mid = QPolynomial.q_power(2 * n - 1) * c_rec(2, k22, k12 - 1, k11)
    last = c_rec(1, k22, k12, k11 - 1)
    if r == 1:
        return QPolynomial.q_power(2 * n) * c_rec(2, k22 - 1, k12, k11) + mid + last
    return c_rec(2, k22 - 1, k12, k11) + mid + last


@lru_cache(maxsize=None)
def cdag_rec(r, k22, k21, k11):
    if k22 < 0 or k21 < 0 or k11 < 0:
        return QPolynomial.zero()
    if (k22, k21, k11) == (0, 0, 0):
        return QPolynomial.one()
    n = k22 + k21 + k11
    last = cdag_rec(1, k22, k21, k11 - 1)
    if r == 1:
        q2n = QPolynomial.q_power(2 * n)
        return q2n * cdag_rec(2, k22 - 1, k21, k11) + q2n * cdag_rec(1, k22, k21 - 1, k11) + last
    return cdag_rec(2, k22 - 1, k21, k11) + cdag_rec(1, k22, k21 - 1, k11) + last


def basis_tuples(kind, n):
    """Yield (e_degrees, g_degrees, weight, t_degree, pbw_degree) for every
    basis monomial of one kind (not the union "twisted_pos"), n in its
    range (weylchar._parts)."""
    if kind == "untwisted_neg":
        for k in range(n + 1):
            for bs in combinations(range(n), k):
                for s in range(n - k + 1):
                    for a in combinations_with_replacement(range(n - k - s + 1), s):
                        yield (a, bs, -n + k + 2 * s, sum(a) + sum(bs), k + s)
    elif kind == "twisted_neg":
        for k in range(n + 1):
            for bs in combinations(range(1, 2 * n, 2), k):
                for s in range(n - k + 1):
                    vals = range(0, 2 * (n - k - s) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, bs, -n + k + 2 * s, sum(a) + sum(bs), s)
    elif kind == "untwisted_pos":
        for k in range(n):
            for bs in combinations(range(1, n), k):
                for s in range(n - k):
                    for a in combinations_with_replacement(range(1, n - k - s + 1), s):
                        yield (a, bs, n - k - 2 * s, sum(a) + sum(bs), k + s)
    elif kind == "twisted_pos_1":
        for k in range(n):
            for bs in combinations(range(1, 2 * n - 2, 2), k):
                for s in range(n - k):
                    vals = range(2, 2 * (n - s - k) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, bs, n - k - 2 * s, sum(a) + sum(bs), s)
    elif kind == "twisted_pos_2":
        for k in range(1, n + 1):
            for bs in combinations(range(1, 2 * n - 2, 2), k - 1):
                full = bs + (2 * n - 1,)
                for s in range(n - k + 1):
                    vals = range(0, 2 * (n - s - k) + 1, 2)
                    for a in combinations_with_replacement(vals, s):
                        yield (a, full, n - k - 2 * s, sum(a) + sum(full), s)
    elif kind == "classical":
        for k in range(n + 1):
            for a in combinations_with_replacement(range(n - k + 1), k):
                yield (a, (), -n + 2 * k, sum(a), k)
    else:  # limit: odd generators truncated below t-degree n, renormalized grading
        for k in range(n + 1):
            for cs in combinations(range(n), k):
                for s in range(k + 1):
                    for a in combinations_with_replacement(range(k - s + 1), s):
                        yield (a, cs, -k + 2 * s, sum(cs) - sum(a), 0)
