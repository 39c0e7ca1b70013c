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
a value if they disagree.  Both cost a polynomial in n.

* The statistic route counts the surviving walks.  Its state is the alcove
  lo with a {q-exponent: number of walks} table.  A crossing moves lo by
  wall_side; a folding keeps lo and adds deg beta_j when its folding set is
  listed in _STAT_SETS; an s0-folding of sign CUT_SIGN kills the walk.
  Survival and the q-statistic are decided step by step, so the tables hold
  exactly the counts that listing the walks would give.

* The exact route runs the numerator transfer of the full sum, but after
  each step j drops every term that cannot reach the v-exponents the limit
  reads.  Let N_x be the normalized numerator over D of x^x.  Each den_j is
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

from macweyl.ring import (
    SIZE_LIMITS,
    BiPolynomial,
    NotPolynomial,
    QPolynomial,
    RationalFunction,
    XPolynomial,
    check_size,
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


def _binomial(a, b):
    return BiPolynomial({(0, 0): 1, (a, b): -1})


def _fold_numerator(family, letter, sign, deg):
    """v^-1 (1 - v^2) xi^k: the numerator of one folding's factor."""
    k = _FOLD_XI_POWER[family, letter, sign]
    return BiPolynomial({(k * deg, 2 * k - 1): 1, (k * deg, 2 * k + 1): -1})


def _step_factors(family, letter, deg):
    """{None: the crossing's den_j, fold sign: the folding's numerator}."""
    return {
        None: _binomial(*_den_exponents(letter, deg)),
        +1: _fold_numerator(family, letter, +1, deg),
        -1: _fold_numerator(family, letter, -1, deg),
    }


def _prefactor_v(n, d, normalize):
    """v-exponent of the prefactor of a walk whose final alcove has this d:
    the raw (sign(n)-1)/2 + d = d - [n<0], or with v^(-sign(n)), d - [n>0]."""
    return d - ((n > 0) if normalize else (n < 0))


def _moves(lo, letter):
    """(next lo, fold sign) of the crossing (sign None) and the folding at lo."""
    side = wall_side(lo, letter)
    return ((lo + side, None), (lo, -side))


def _transfer(family, steps, window=None):
    """{final lo: sum of the numerators over D of the walks ending there}.

    `steps` lists (letter, deg beta_j) for each step j of the walk word.  A
    `window` gives one (least, greatest) pair of v-exponents per step, either
    of them None for no limit; after step j every term outside its pair is
    dropped.  Numerators are held as {v-exponent: {q-exponent: coefficient}},
    so that the window is checked once per v-slice.
    """
    states = {0: {0: {0: 1}}}
    for j, (letter, deg) in enumerate(steps):
        least, greatest = (None, None) if window is None else window[j]
        factor = _step_factors(family, letter, deg)
        nxt = {}
        for lo, num in states.items():
            for target, sign in _moves(lo, letter):
                acc = nxt.setdefault(target, {})
                for (dq, dv), fc in factor[sign].terms.items():
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


def _cancel(num, dens):
    """num / prod(1 - q^a v^b), cancelling each binomial that divides num."""
    kept = BiPolynomial.one()
    for a, b in dens:
        try:
            num = num.divide_exact_binomial(a, b)
        except NotPolynomial:
            kept = kept * _binomial(a, b)
    return RationalFunction(num, kept)


def _steps(n):
    """(letter, deg beta_j) for each step j of the walk word toward n."""
    word = walk_word(n)
    return [(letter, beta_degree(j, len(word))) for j, letter in enumerate(word, start=1)]


def _numerators(family, n, steps, normalize, window=None):
    """{x: numerator over D of the (normalized) sum}, from _transfer."""
    finals = (
        (*alcove_element(lo), num) for lo, num in _transfer(family, steps, window).items()
    )
    return XPolynomial.from_pairs(
        (wt, num.shift(v_exp=_prefactor_v(n, d, normalize))) for wt, d, num in finals
    ).terms


def ramyip_sum(family, n, normalize=True):
    """The full E-polynomial as an XPolynomial over RationalFunction."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if n == 0:
        return XPolynomial.constant(RationalFunction(1))
    check_size("sum", n)

    steps = _steps(n)
    dens = [_den_exponents(letter, deg) for letter, deg in steps]
    return XPolynomial({
        x: _cancel(num, dens) for x, num in _numerators(family, n, steps, normalize).items()
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


def _statistic_route(family, n, spec):
    """Surviving walks counted by final weight and q-statistic, over alcoves."""
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


def _exact_route(family, n, spec):
    """The limit of the normalized sum, from numerators cut to a v-window."""
    t0 = spec == "t0"
    steps = _steps(n)
    dens = [_den_exponents(letter, deg) for letter, deg in steps]
    deg_d = sum(b for _, b in dens)
    # reach: the least (t = 0) or greatest (t = infinity) v-exponent that the
    # steps still ahead and the normalized prefactor v^(d - [n>0]) can add.
    reach = _prefactor_v(n, 0 if t0 else 1, True)
    window = []
    for letter, deg in reversed(steps):
        window.append((None, -reach) if t0 else (deg_d - reach, None))
        factors = _step_factors(family, letter, deg).values()
        reach += min(f.v_min() for f in factors) if t0 else max(f.v_max() for f in factors)
    window.reverse()
    # N_x / D at v = 0 is the v^0 slice of N_x; at v = infinity it is the
    # v^deg_d slice over D's top term (-1)^l q^(sum a) v^deg_d, read at q^-1.
    sign, q_top = (-1) ** len(dens), sum(a for a, _ in dens)
    out = {}
    for x, num in _numerators(family, n, steps, True, window).items():
        if t0:
            if num.v_min() < 0:
                raise RouteDiverges(family, n, spec, "value diverges at v=0")
            out[x] = QPolynomial({qe: c for (qe, ve), c in num.terms.items() if ve == 0})
        else:
            if num.v_max() > deg_d:
                raise RouteDiverges(family, n, spec, "numerator v-degree exceeds denominator")
            out[x] = QPolynomial(
                {q_top - qe: sign * c for (qe, ve), c in num.terms.items() if ve == deg_d}
            )
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
    stat = _statistic_route(family, n, spec)
    exact = _exact_route(family, n, spec)
    if stat != exact:
        raise RouteMismatch(family, n, spec, exact, stat)
    return stat
