"""Full alcove-walk sums for the rank-one E-polynomials and their exact
t = 0 / t = infinity specializations.

A walk's term is the prefactor v^((sign(n)-1)/2 + d), v = t^(1/2), times
one factor v^-1 (1 - v^2) xi^k / den_j per folding at step j, where
xi = q^(deg beta_j) v^2, den_j is 1 - xi for s1 and 1 - xi^2 for s0, and k
is looked up in _FOLD_XI_POWER.  Every factor depends only on the step, the
current alcove and whether the step folds, so the sum is computed as a
transfer matrix over alcoves on numerators over D = prod_j den_j (a crossing
multiplies by den_j), without listing the 2^l walks; each x-coefficient
then cancels the den_j that divide it exactly.

Packed rows.  A numerator is held as {v-exponent: row}, one row per v-slice.
The row (base, packed) stands for sum_i c_i q^(base + i), where packed =
sum_i c_i 2^(8 w i) is the slice evaluated at q = 2^(8 w), w the width in
bytes, and divided by q^base.  Evaluation is a ring map and Python ints are
exact, so sums of rows (the one with the larger base shifted left by 8 w
bits times the difference), multiples by +-1 and base shifts are exact
whatever the coefficients.  w matters only where a row is decoded (by ring,
_decode) or compared with 0: when every |c_i| < 2^(8 w - 1), the signed
base-2^(8 w) digits of packed are the c_i, and packed == 0 iff the slice is
0.  A transfer step's factor term c q^dq v^dv moves a slice to v + dv, adds
dq to its base and multiplies packed by c.  Division by 1 - q^a v^b is the
slice recurrence r[v] = p[v] + q^a r[v - b], one add per slice, and leaves a
remainder iff a slice above v = top - b is nonzero, top the largest
v-exponent of p.  w is ring.packed_width of the following bound on the mass
(the sum of |coefficients|):

* The transfer's mass is at most 4^l.  It starts at 1; each step sends an
  alcove's numerator along two moves, each times a factor of two terms
  +-q^.. v^.., so the mass at most quadruples; the window only drops terms.
  N_x sums the numerators of the at most two alcoves of x^x, shifted in v,
  so mass(N_x) <= 4^l too.
* The divisions multiply it by at most T, the number of k in N^l with
  sum_j k_j b_j <= S, where S = 1 + sum_j (the v-width of step j's three
  factors) bounds the v-span of N_x (the 1: the two alcoves' prefactors
  differ by v).  For C a product of step binomials dividing N_x, every
  1 - q^a v^b with b > 0 is a unit in Laurent series in v, so N_x / C =
  N_x prod_(j in C) sum_k q^(k a_j) v^(k b_j); the quotient's v-range lies
  in N_x's, so only series terms of v-degree sum k_j b_j <= S reach it, and
  each pair (term of N_x, k) lands on one coefficient: mass(N_x / C) <=
  4^l T.
* Every digit that one division forms, in the quotient or in a remainder
  slice, is sum_k (a coefficient of p[v - kb]), a sum of distinct
  coefficients of the dividend N_x / C, so it is at most 4^l T.
  The exact route divides nothing and reads only 4^l-bounded coefficients.

The raw prefactor leaves a spurious overall v-power; `normalize` multiplies
the sum by v^(-sign(n)), after which every t = 0 surviving walk's term has
v-valuation 0 and both limits exist.  Proof:

* Folds alternate.  The letters alternate, so the wall a step tries is
  always ahead of the arrow: a crossing keeps the arrow's direction, a
  folding reverses it.  The walk starts leftward when n < 0, so its folds
  are positive, negative, ...; when n > 0 they start negative.
* Each surviving fold adds -+1.  At t = 0 a fold's factor has valuation
  2k - 1.  S1 folds have k = 0 when positive and k = 1 when negative; the S0
  folds that CUT_SIGN keeps are A2's negative one (k = 1) and A2dagger's
  positive one (k = 0).  So the folds add -[#folds odd] when n < 0 and
  +[#folds odd] when n > 0.
* Parity fixes d.  d = lo = #crossings = l - #folds (mod 2), with l = 2|n|
  when n < 0 and 2n - 1 when n > 0: d = [#folds odd] when n < 0 and
  [#folds even] when n > 0.
* So the raw valuation (sign(n) - 1)/2 + d + (the folds' sum) is sign(n)
  for every survivor.  A cut S0 fold has k one larger than an S1 fold of
  its sign, so a cut walk's term has valuation at least 2 more.

specialize() computes each limit twice, by two dynamic programs over the
alcoves that share no code beyond the walk primitives, and refuses to return
a value if they disagree.  Both cost a polynomial in n.  Each call of
ramyip_sum or _exact_route builds its step tables (_step_factors) once;
only specialize() keeps results across calls, its last 48 (immutable
XPolynomials), and never a raised error.

* The statistic route counts the surviving walks.  Its state is the alcove
  lo with the number c_e of walks at each q-statistic e, packed as the int
  sum_e c_e 2^(8 w e).  A crossing moves lo by wall_side; a folding keeps lo
  and shifts the count by deg beta_j digits when its folding set is listed
  in _STAT_SETS; an s0-folding of sign CUT_SIGN kills the walk.  Survival
  and the q-statistic are decided step by step, so the counts are exactly
  those that listing the walks would give.  Adds and shifts are exact for
  any w; each c_e at x^x counts distinct walks of length l, so 0 <= c_e <=
  2^l < 2^(8 w) for w = l // 8 + 1, and the digits are the c_e.  The route
  decodes them itself: a fault in ring's decoder shows as a RouteMismatch.

* The exact route runs the numerator transfer of the full sum, but after
  each step j drops every v-slice that cannot reach the v-exponents the
  limit reads, and decodes only the one slice each limit reads.  Let N_x
  be the normalized numerator over D of x^x.  Each den_j is
  1 - q^a v^b with b > 0, so D = 1 + O(v): N_x / D diverges at v = 0 iff N_x
  has a negative v-power, and its value there is the v^0 coefficient of
  N_x.  D's top v-term is (-1)^l q^(sum a) v^(deg_v D): N_x / D diverges at
  v = infinity iff N_x has a term above deg_v D, and its limit is the
  coefficient of v^(deg_v D) over that monomial.  So t = 0 reads only the
  terms of N_x at v <= 0, and t = infinity those at v >= deg_v D.  A later
  step multiplies by one of its three factors (the crossing's 1 - q^a v^b,
  the two foldings' v^(2k-1) - v^(2k+1) times a q-power), which changes the
  v-exponent by at least min(0, 2k-1) and at most max(b, 2k+1); the
  normalized prefactor adds d - [n>0] with d in {0, 1}.
  A term at v^e after step j therefore reaches only v-exponents between
  e + (the least changes still ahead) and e + (the greatest ones).  The
  transfer is linear, so dropping a term whose whole range lies above 0
  (t = 0) or below deg_v D (t = infinity) changes no coefficient at v <= 0
  (at v >= deg_v D): neither the slice the limit reads nor a term that makes
  it diverge.  Cancelling common binomials does not change the function, so
  these are the limits of ramyip_sum as well.  The statistic route is always
  finite, so a divergent limit raises RouteDiverges, a RouteMismatch.
"""

from functools import lru_cache

from macweyl.ring import (
    SIZE_LIMITS,
    BiPolynomial,
    QPolynomial,
    RationalFunction,
    XPolynomial,
    check_size,
    packed_width,
)
from macweyl.walks import (
    CUT_SIGN,
    FAMILIES,
    S0,
    S1,
    alcove_element,
    beta_degree,
    normalize_spec,
    walk_word,
    wall_side,
)


class NotPolynomial(ArithmeticError):
    """An exact division leaves a remainder."""


class RouteMismatch(ArithmeticError):
    """The exact-arithmetic and combinatorial specializations disagree."""

    def __init__(self, family, n, spec, exact_route, stat_route):
        self.family = family
        self.n = n
        self.spec = spec
        self.exact_route = exact_route
        self.stat_route = stat_route
        super().__init__(
            "specialization routes disagree for (%s, n=%d, %s): %s vs %s"
            % (family, n, spec, exact_route.render(), stat_route.render())
        )


class RouteDiverges(RouteMismatch):
    """The exact route's limit diverges; the statistic route never does."""

    def __init__(self, family, n, spec, reason):
        ArithmeticError.__init__(
            self, "exact route diverges for (%s, n=%d, %s): %s" % (family, n, spec, reason)
        )


DEFAULT_BOUND = SIZE_LIMITS["specialize"]  # the name perfbench/reference.py reads

# Power k of xi in the numerator of a folding's factor, by (family, letter,
# fold sign); the sign is +1 for a positive folding.
_FOLD_XI_POWER = {
    ("A2", S1, +1): 0,
    ("A2", S1, -1): 1,
    ("A2", S0, +1): 1,
    ("A2", S0, -1): 1,
    ("A2dagger", S1, +1): 0,
    ("A2dagger", S1, -1): 1,
    ("A2dagger", S0, +1): 0,
    ("A2dagger", S0, -1): 2,
}


def _den_exponents(letter, deg):
    """(a, b) such that the step's denominator is 1 - q^a v^b."""
    return (deg, 2) if letter == S1 else (2 * deg, 4)


def _step_factors(family, letter, deg):
    """{None: the crossing's den_j, fold sign: the folding's numerator
    v^-1 (1 - v^2) xi^k}, each as its (dq, dv, coefficient) terms."""
    a, b = _den_exponents(letter, deg)
    out = {None: ((0, 0, 1), (a, b, -1))}
    for sign in (+1, -1):
        k = _FOLD_XI_POWER[family, letter, sign]
        out[sign] = ((k * deg, 2 * k - 1, 1), (k * deg, 2 * k + 1, -1))
    return out


def _v_range(factor):
    """(least, greatest) v-exponent of a term of a step's three factors."""
    dvs = [dv for terms in factor.values() for _, dv, _ in terms]
    return min(dvs), max(dvs)


def _prefactor_v(n, d, normalize):
    """v-exponent of the prefactor of a walk whose final alcove has this d:
    the raw (sign(n)-1)/2 + d = d - [n<0], or with v^(-sign(n)), d - [n>0]."""
    return d - ((n > 0) if normalize else (n < 0))


def _moves(lo, letter):
    """(next lo, fold sign) of the crossing (sign None) and the folding at lo."""
    side = wall_side(lo, letter)
    return ((lo + side, None), (lo, -side))


def _decode(row, width):
    """The QPolynomial of a row whose digits all lie strictly between
    -2^(8 width - 1) and 2^(8 width - 1).  Adding 2^(8 width - 1) to each
    digit leaves no borrow between them; xor with that bias then leaves each
    digit's `width` bytes in two's complement.  A row whose top digit is at
    position t has |packed| > 2^(8 width t - 1), so the bias covers it with
    bit length // (8 width) + 1 digits."""
    base, packed = row
    count = packed.bit_length() // (8 * width) + 1
    bias = int.from_bytes(b"\x80".rjust(width, b"\0") * count, "little")
    return QPolynomial.from_packed((packed + bias) ^ bias, width, offset=base)


def _digit_width(factors, dens):
    """Row width w in bytes, ring.packed_width of the module docstring's
    bound on every coefficient that is decoded or compared with 0: 4^l for
    the transfer, times the number of k in N^l with sum_j k_j b_j <= S for
    the binomials in `dens` that are divided out (1 when none is)."""
    span = 1 + sum(hi - lo for lo, hi in map(_v_range, factors))
    series = [1] + [0] * span  # monomials of prod_j 1/(1 - v^b_j) by v-degree
    for _, b in dens:
        for s in range(b, span + 1):
            series[s] += series[s - b]
    return packed_width(4 ** len(factors) * sum(series))


def _transfer(steps, factors, width, window=None):
    """{final lo: {v-exponent: row}}, the numerators over D of the walks
    ending at lo.

    `steps` lists (letter, deg beta_j) and `factors` the _step_factors of
    each step j of the walk word.  A `window` gives one (least, greatest)
    pair of v-exponents per step, either of them None for no limit; after
    step j every slice outside its pair is dropped, so the window is checked
    once per v-slice.  Rows add aligned on the smaller base, here and below.
    """
    bits = 8 * width
    states = {0: {0: (0, 1)}}
    for j, (letter, _) in enumerate(steps):
        least, greatest = (None, None) if window is None else window[j]
        factor = factors[j]
        nxt = {}
        for lo, num in states.items():
            for target, sign in _moves(lo, letter):
                acc = nxt.setdefault(target, {})
                for dq, dv, fc in factor[sign]:
                    for ve, (base, packed) in num.items():
                        ve += dv
                        if (least is not None and ve < least) or (
                            greatest is not None and ve > greatest
                        ):
                            continue
                        base += dq
                        if fc < 0:
                            packed = -packed
                        old = acc.get(ve)
                        if old is None:
                            acc[ve] = (base, packed)
                        elif old[0] <= base:
                            acc[ve] = (old[0], old[1] + (packed << bits * (base - old[0])))
                        else:
                            acc[ve] = (base, (old[1] << bits * (old[0] - base)) + packed)
        states = nxt
    return states


def _divide(rows, a, b, width):
    """rows / (1 - q^a v^b), b > 0, by the slice recurrence
    r[v] = p[v] + q^a r[v - b]; raises NotPolynomial on a remainder.  Every
    digit it forms is a sum of distinct coefficients of the dividend."""
    bits = 8 * width
    top = max(rows)
    out = dict(rows)
    for v in range(min(rows), top + 1):
        row = out.get(v)
        prev = out.get(v - b)
        if prev is not None:
            base, packed = prev[0] + a, prev[1]
            if row is None:
                row = (base, packed)
            elif row[0] <= base:
                row = (row[0], row[1] + (packed << bits * (base - row[0])))
            else:
                row = (base, (row[1] << bits * (row[0] - base)) + packed)
            out[v] = row
        if row is None:
            continue
        if not row[1]:
            del out[v]
        elif v > top - b:
            raise NotPolynomial("binomial division leaves a remainder")
    return out


def _cancel(rows, dens, width):
    """rows / prod(1 - q^a v^b), cancelling each binomial that divides rows."""
    kept = BiPolynomial.one()
    for a, b in dens:
        try:
            rows = _divide(rows, a, b, width)
        except NotPolynomial:
            kept = kept * BiPolynomial({(0, 0): 1, (a, b): -1})
    num = {(qe, ve): c for ve, row in rows.items() for qe, c in _decode(row, width).terms.items()}
    return RationalFunction(BiPolynomial._nonzero(num), kept)


def _steps(n):
    """(letter, deg beta_j) for each step j of the walk word toward n."""
    word = walk_word(n)
    return [(letter, beta_degree(j, len(word))) for j, letter in enumerate(word, start=1)]


def _numerators(n, steps, factors, normalize, width, window=None):
    """{x: {v-exponent: row}}, the numerator over D of the (normalized) sum
    at x^x, from _transfer; only nonzero rows are kept, and only x-powers
    that keep one."""
    bits = 8 * width
    out = {}
    for lo, num in _transfer(steps, factors, width, window).items():
        x, d = alcove_element(lo)
        shift = _prefactor_v(n, d, normalize)
        acc = out.setdefault(x, {})
        for ve, (base, packed) in num.items():
            ve += shift
            old = acc.get(ve)
            if old is None:
                acc[ve] = (base, packed)
            elif old[0] <= base:
                acc[ve] = (old[0], old[1] + (packed << bits * (base - old[0])))
            else:
                acc[ve] = (base, (old[1] << bits * (old[0] - base)) + packed)
    out = {x: {ve: row for ve, row in acc.items() if row[1]} for x, acc in out.items()}
    return {x: rows for x, rows in out.items() if rows}


def ramyip_sum(family, n, normalize=True):
    """The full E-polynomial as an XPolynomial over RationalFunction."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if n == 0:
        return XPolynomial.constant(RationalFunction(1))
    check_size("sum", n)

    steps = _steps(n)
    factors = [_step_factors(family, letter, deg) for letter, deg in steps]
    dens = [_den_exponents(letter, deg) for letter, deg in steps]
    width = _digit_width(factors, dens)
    return XPolynomial({
        x: _cancel(rows, dens, width)
        for x, rows in _numerators(n, steps, factors, normalize, width).items()
    })


# Per (family, spec): which folding sets feed the q-statistic of a
# surviving walk (the affine degree of each listed folding is summed).
_STAT_SETS = {
    ("A2", "t0"): ("J0_neg", "J_neg"),
    ("A2", "tinf"): ("J0_pos", "J_pos"),
    ("A2dagger", "t0"): ("J_neg",),
    ("A2dagger", "tinf"): ("J_pos",),
}

# The walks.WalkStats folding set of each (letter, fold sign).
_FOLD_SET = {(S0, +1): "J0_pos", (S0, -1): "J0_neg", (S1, +1): "J_pos", (S1, -1): "J_neg"}


def _count_width(length):
    """Bytes w per digit of the statistic route: 2^length < 2^(8 w)."""
    return length // 8 + 1


def _statistic_route(family, n, spec):
    """Surviving walks counted by final weight and q-statistic, over alcoves,
    on counts packed at q = 2^(8 w)."""
    cut = CUT_SIGN[(family, spec)]
    stat = _STAT_SETS[(family, spec)]
    word = walk_word(n)
    width = _count_width(len(word))
    states = {0: 1}
    for j, letter in enumerate(word, start=1):
        shift = 8 * width * beta_degree(j, len(word))
        nxt = {}
        for lo, packed in states.items():
            side = wall_side(lo, letter)
            nxt[lo + side] = nxt.get(lo + side, 0) + packed
            if not (letter == S0 and -side == cut):
                if _FOLD_SET[letter, -side] in stat:
                    packed <<= shift
                nxt[lo] = nxt.get(lo, 0) + packed
        states = nxt
    by_x = {}
    for lo, packed in states.items():
        x = alcove_element(lo)[0]
        by_x[x] = by_x.get(x, 0) + packed
    terms = {}
    for x, packed in by_x.items():
        raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
        digits = (int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))
        terms[x] = QPolynomial._nonzero({qe: c for qe, c in enumerate(digits) if c})
    return XPolynomial(terms)


def _window(n, factors, deg_d, t0):
    """Per step, the (least, greatest) v-exponents of the terms that can
    still reach the slice the t = 0 (t0) or t = infinity limit reads."""
    # reach: the least (t = 0) or greatest (t = infinity) v-exponent that the
    # steps still ahead and the normalized prefactor v^(d - [n>0]) can add.
    reach = _prefactor_v(n, 0 if t0 else 1, True)
    window = []
    for factor in reversed(factors):
        window.append((None, -reach) if t0 else (deg_d - reach, None))
        least, greatest = _v_range(factor)
        reach += least if t0 else greatest
    window.reverse()
    return window


def _exact_route(family, n, spec):
    """The limit of the normalized sum, from numerators cut to a v-window."""
    t0 = spec == "t0"
    steps = _steps(n)
    factors = [_step_factors(family, letter, deg) for letter, deg in steps]
    dens = [_den_exponents(letter, deg) for letter, deg in steps]
    deg_d = sum(b for _, b in dens)
    window = _window(n, factors, deg_d, t0)
    # N_x / D at v = 0 is the v^0 slice of N_x; at v = infinity it is the
    # v^deg_d slice over D's top term (-1)^l q^(sum a) v^deg_d, read at q^-1.
    sign, q_top = (-1) ** len(dens), sum(a for a, _ in dens)
    width = _digit_width(factors, ())
    out = {}
    for x, rows in _numerators(n, steps, factors, True, width, window).items():
        if t0:
            if min(rows) < 0:
                raise RouteDiverges(family, n, spec, "value diverges at v=0")
            out[x] = _decode(rows.get(0, (0, 0)), width)
        else:
            if max(rows) > deg_d:
                raise RouteDiverges(family, n, spec, "numerator v-degree exceeds denominator")
            top = _decode(rows.get(deg_d, (0, 0)), width)
            out[x] = QPolynomial({q_top - qe: sign * c for qe, c in top.terms.items()})
    return XPolynomial(out)


def specialize(family, n, spec):
    """Exact t=0 or t=infinity specialization of the walk sum.

    Raises RouteMismatch when the rational-arithmetic limit and the
    folding-statistic sum disagree (this doubles as the errata detector),
    and its subclass RouteDiverges when the limit does not exist.
    """
    spec = normalize_spec(spec)
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if n == 0:
        return XPolynomial.constant(QPolynomial.one())
    check_size("specialize", n)
    return _specialized(family, n, spec)


@lru_cache(maxsize=48)  # a walk-sums benchmark pass asks for 40 distinct keys
def _specialized(family, n, spec):
    """specialize() past its argument checks; raised errors are not kept."""
    stat = _statistic_route(family, n, spec)
    exact = _exact_route(family, n, spec)
    if stat != exact:
        raise RouteMismatch(family, n, spec, exact, stat)
    return stat
