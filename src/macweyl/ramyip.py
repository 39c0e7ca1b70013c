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

The raw prefactor leaves a spurious overall v-power; `normalize` shifts the
sum so that the least v-valuation of a t = 0 surviving walk's term is zero
(a min-plus pass over the same alcoves), after which both limits exist.

specialize() computes each limit twice -- by exact rational arithmetic on
the sum and by the folding statistics of the enumerated walks -- and
refuses to return a value if the two routes disagree.
"""

from dataclasses import dataclass
from functools import lru_cache

from macweyl.ring import (
    BiPolynomial,
    BoundExceeded,
    NotPolynomial,
    QPolynomial,
    RationalFunction,
    XPolynomial,
    rf_eval_v0,
    rf_limit_v_infinity,
)
from macweyl.walks import (
    CUT_SIGN,
    FAMILIES,
    S0,
    S1,
    AlcoveElement,
    beta_degree,
    enumerate_walks,
    normalize_spec,
    surviving,
    traverse,
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


DEFAULT_BOUND = 6

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


def _prefactor_v(n, final):
    """v-exponent (sign(n)-1)/2 + d of the prefactor of a walk ending at `final`."""
    return (-1 if n < 0 else 0) + final.d


def _moves(lo, letter):
    """(next lo, fold sign) of the crossing (sign None) and the folding at lo."""
    side = wall_side(lo, letter)
    return ((lo + side, None), (lo, -side))


def _transfer(family, steps):
    """{final lo: sum of the numerators over D of the walks ending there}.

    `steps` lists (letter, deg beta_j) for each step j of the walk word.
    """
    states = {0: BiPolynomial.one()}
    for letter, deg in steps:
        factor = {
            None: _binomial(*_den_exponents(letter, deg)),
            +1: _fold_numerator(family, letter, +1, deg),
            -1: _fold_numerator(family, letter, -1, deg),
        }
        nxt = {}
        for lo, num in states.items():
            for target, sign in _moves(lo, letter):
                term = num * factor[sign]
                nxt[target] = nxt[target] + term if target in nxt else term
        states = nxt
    return states


def _t0_shift(family, n, steps):
    """Minus the least v-valuation of a t = 0 surviving walk's term."""
    cut = CUT_SIGN[(family, "t0")]
    states = {0: 0}
    for letter, _ in steps:
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
    return -min(
        val + _prefactor_v(n, AlcoveElement.from_interval(lo)) for lo, val in states.items()
    )


def _cancel(num, dens):
    """num / prod(1 - q^a v^b), cancelling each binomial that divides num."""
    kept = BiPolynomial.one()
    for a, b in dens:
        try:
            num = num.divide_exact_binomial(a, b)
        except NotPolynomial:
            kept = kept * _binomial(a, b)
    return RationalFunction(num, kept)


@lru_cache(maxsize=None)
def _assembled_sum(family, n, normalize, bound):
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if n == 0:
        return XPolynomial.constant(RationalFunction.one())
    if abs(n) > bound:
        raise BoundExceeded("|n| exceeds the configured bound %d" % bound)

    word = walk_word(n)
    steps = [(letter, beta_degree(j, len(word))) for j, letter in enumerate(word, start=1)]
    shift = _t0_shift(family, n, steps) if normalize else 0
    by_x = {}
    for lo, num in _transfer(family, steps).items():
        final = AlcoveElement.from_interval(lo)
        num = num.shift(v_exp=_prefactor_v(n, final) + shift)
        by_x[final.wt] = by_x[final.wt] + num if final.wt in by_x else num
    dens = [_den_exponents(letter, deg) for letter, deg in steps]
    return XPolynomial({x: _cancel(num, dens) for x, num in by_x.items()})


def ramyip_sum(family, n, normalize=True, bound=DEFAULT_BOUND):
    """The full E-polynomial as an XPolynomial over RationalFunction."""
    return _assembled_sum(family, n, bool(normalize), bound)


# Per (family, spec): which folding sets feed the q-statistic of a
# surviving walk (the affine degree of each listed folding is summed).
_STAT_SETS = {
    ("A2", "t0"): ("J0_neg", "J_neg"),
    ("A2", "tinf"): ("J0_pos", "J_pos"),
    ("A2dagger", "t0"): ("J_neg",),
    ("A2dagger", "tinf"): ("J_pos",),
}


def _statistic_route(family, n, spec):
    terms = {}
    for walk in enumerate_walks(n):
        stats = traverse(walk)
        if not surviving(stats, family, spec):
            continue
        l = walk.length
        qe = 0
        for name in _STAT_SETS[(family, spec)]:
            qe += sum(beta_degree(j, l) for j in getattr(stats, name))
        x = stats.final.wt
        c = QPolynomial.q_power(qe)
        terms[x] = terms[x] + c if x in terms else c
    return XPolynomial(terms)


def _exact_route(family, n, spec, bound):
    full = ramyip_sum(family, n, normalize=True, bound=bound)
    out = {}
    for x, rf in full.terms.items():
        if spec == "t0":
            val = rf_eval_v0(rf)
        else:
            val = rf_limit_v_infinity(rf.substitute_q_inverse())
        if not val.is_zero():
            out[x] = val
    return XPolynomial(out)


def specialize(family, n, spec, bound=DEFAULT_BOUND):
    """Exact t=0 or t=infinity specialization of the walk sum.

    Raises RouteMismatch when the rational-arithmetic limit and the
    folding-statistic sum disagree (this doubles as the errata detector).
    """
    spec = normalize_spec(spec)
    if n == 0:
        return XPolynomial.constant(QPolynomial.one())
    if abs(n) > bound:
        raise BoundExceeded("|n| exceeds the configured bound %d" % bound)
    stat = _statistic_route(family, n, spec)
    exact = _exact_route(family, n, spec, bound)
    if stat != exact:
        raise RouteMismatch(family, n, spec, exact, stat)
    return stat


@dataclass(frozen=True)
class RamYipTerm:
    """One walk's term: v^v_exponent times the product of `factors`."""

    walk: object
    v_exponent: int
    factors: tuple  # one RationalFunction per folding, in step order
    x_exponent: int


def ramyip_terms(family, n):
    """One RamYipTerm per enumerated walk, with the raw (unnormalized) prefactor."""
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
        out.append(RamYipTerm(walk, _prefactor_v(n, stats.final), tuple(factors), stats.final.wt))
    return out
