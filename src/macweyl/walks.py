"""Rank-one alcove walks on the integer line.

Alcoves are the unit intervals (i, i+1).  The wall at an even integer 2n
carries the label s1, the wall at an odd integer the label s0.  The group
element 2nX * s1^b occupies the alcove (2n-b, 2n-b+1); its translation part
is wt = n and d = b records which side the even wall lies on.  An alcove is
kept as the integer lo of its left end; alcove_element(lo) reads (wt, d).

A walk starts in (0, 1).  Each step names a letter (s1 or s0), which selects
the wall of the current alcove carrying that label.  A crossing step moves
through that wall; a folding step stays put and the arrow bounces off the
wall, ending up pointing away from it.  A folding is positive when the
post-fold arrow points rightward.

Walks towards weight -n use the letter word (s1, s0, ..., s1, s0) of length
2n; walks towards +n use (s0, s1, ..., s1, s0) of length 2n-1.  Because the
words alternate, a crossing keeps the current arrow direction and a folding
reverses it.  The h-word (h_0, ..., h_l) records the direction after each
step, 1 = rightward and 2 = leftward, from h_0 = 1 toward a positive weight
and 2 toward a negative one.

wall_side says which side of the alcove a wall is on, and step adds which
folding set a folding joins.  Neither consumer below lists the walks one by
one; the tests compare both with a walk-by-walk reference that steps by the
geometry alone.

* walk_rows, the `walks` dump, is one depth-first pass over the mask tree,
  folding (0) before crossing (1), so the rows come in lexicographic mask
  order.  Each prefix is stepped once, and its lo, four folding lists (each
  already rendered), h-word and leg are shared by every walk below it.  A
  survival filter prunes a subtree at its first cut s0-folding.
* legprime_counts, the `verify --suite walks` side, is a dynamic program
  over the states (lo, last h-letter, #1 - #2) holding {statistic: number
  of walks}; its docstring derives the step weights.
"""

from macweyl.ring import check_size

S0 = 0
S1 = 1


def walk_word(target):
    """Letter word for the walk toward weight `target` (nonzero integer)."""
    if target == 0:
        raise ValueError("no walk word for target 0")
    if target < 0:
        return (S1, S0) * (-target)
    return ((S0,) + (S1, S0) * (target - 1))[: 2 * target - 1]


def alcove_element(lo):
    """(wt, d) of the group element 2wt X * s1^d in the alcove (lo, lo+1)."""
    return (lo + 1) // 2, lo % 2


def wall_side(lo, letter):
    """Side of the alcove (lo, lo+1) holding the wall labelled `letter`.

    -1 for the left endpoint, +1 for the right one (the even endpoint carries
    s1, the odd one s0).  Crossing that wall moves lo by this amount; folding
    on it leaves the arrow pointing the other way, so the folding is positive
    exactly when the wall is on the left.
    """
    return -1 if (lo % 2 == 0) == (letter == S1) else +1


def step(lo, letter):
    """(side, folding set) of a step at the wall labelled `letter` of the
    alcove (lo, lo+1).  A crossing moves lo by side and its arrow points
    that way.  A folding keeps lo, its arrow bounces to -side, and it joins
    the folding set 0 = J0+, 1 = J0-, 2 = J+ or 3 = J-: J0 for s0, J for s1,
    positive when side is -1."""
    side = wall_side(lo, letter)
    return side, (0 if letter == S0 else 2) + (side > 0)


def beta_degree(j, l):
    """Affine degree of the root crossed at step j of a length-l word."""
    if not 1 <= j <= l:
        raise ValueError("step index out of range")
    return l - j + 1


FAMILIES = ("A2", "A2dagger")
SPECS = ("t0", "tinf")

# Sign of the s0-foldings that kill a walk in each specialization.
CUT_SIGN = {
    ("A2", "t0"): +1,
    ("A2", "tinf"): -1,
    ("A2dagger", "t0"): -1,
    ("A2dagger", "tinf"): +1,
}


def normalize_spec(spec):
    if spec in SPECS:
        return spec
    raise ValueError("unknown specialization %r" % (spec,))


def walk_rows(target, lists=("[", ", ", "]"), cut=None):
    """Every walk toward `target` as the row (mask, wt, d, J0+, J0-, J+, J-,
    h, leg), in lexicographic mask order: mask and h as digit strings, each
    folding list rendered as head + sep.join(steps) + tail for lists =
    (head, sep, tail), or "[]" when empty.  With cut = +-1, the walks with
    an s0-folding of that sign (CUT_SIGN) are left out.

    One depth-first pass over the mask tree steps each prefix once (see the
    module docstring).  leg, the descent statistic, sums l - i + 1 over the
    descents h[i-1] = 1, h[i] = 2, and a descent is a folding whose arrow
    was rightward, so leg grows there.
    """
    check_size("walks", target)
    word = walk_word(target)
    l = len(word)
    head, sep, tail = lists
    cut_set = None if cut is None else (0 if cut > 0 else 1)
    rows = []

    def visit(i, lo, mask, h, leg, js):
        # i steps taken; h ends in h_i, js holds the four rendered lists.
        if i == l:
            rows.append((mask, *alcove_element(lo), *js, h, leg))
            return
        side, k = step(lo, word[i])
        i += 1
        if k != cut_set:
            old = js[k]
            new = (head if old == "[]" else old[: -len(tail)] + sep) + str(i) + tail
            descent = h[-1] == "1"
            visit(i, lo, mask + "0", h + ("2" if descent else "1"),
                  leg + l - i + 1 if descent else leg, js[:k] + (new,) + js[k + 1:])
        visit(i, lo + side, mask + "1", h + h[-1], leg, js)

    visit(0, 0, "", "1" if target > 0 else "2", 0, ("[]",) * 4)
    return rows


def legprime_counts(target, cut, shift):
    """{x-weight: {statistic: number of walks}} over the walks toward
    `target` that have no s0-folding of sign `cut`.  For the h-word h of a
    walk, the x-weight is floor((#1 - #2 + 1) / 2), counting the letters
    h_i, i > 0, and the statistic legprime sums j + shift over the j with
    h[l-j] = 1, h[l-j-1] = 2: shift 0 is the literal statistic, shift 1
    weighs every ascent by its full wall depth.

    Put i = l - j: that is an ascent h[i-1] = 2, h[i] = 1 at step i, weighed
    l - i + shift.  h_i is h_(i-1) after a crossing and 3 - h_(i-1) after a
    folding, so an ascent is a folding taken when the last letter is 2.  The
    statistic is a sum of such step weights, and the x-weight reads only
    #1 - #2: a state (lo, last h-letter, #1 - #2) fixes how every
    continuation changes them.  lo is needed for the cut alone, since the
    sign of a folding is -wall_side(lo, letter).  So this dynamic program
    over those states, walk counts added where two prefixes meet, gives the
    table that listing the surviving walks would give.
    """
    word = walk_word(target)
    l = len(word)
    states = {(0, 1 if target > 0 else 2, 0): {0: 1}}
    for i, letter in enumerate(word, start=1):
        weight = l - i + shift
        nxt = {}
        for (lo, last, diff), counts in states.items():
            side = wall_side(lo, letter)
            moves = [((lo + side, last, diff + (1 if last == 1 else -1)), 0)]
            if not (letter == S0 and -side == cut):
                ascent = last == 2
                moves.append(((lo, 3 - last, diff + (1 if ascent else -1)),
                              weight if ascent else 0))
            for key, dq in moves:
                acc = nxt.setdefault(key, {})
                for stat, c in counts.items():
                    acc[stat + dq] = acc.get(stat + dq, 0) + c
        states = nxt
    table = {}
    for (lo, last, diff), counts in states.items():
        acc = table.setdefault((diff + 1) // 2, {})
        for stat, c in counts.items():
            acc[stat] = acc.get(stat, 0) + c
    return table
