"""Characters and bases of the Weyl modules for the osp(1|2) current
superalgebra, twisted and untwisted, for negative and positive weights;
PBW-graded characters; and truncated limit characters.  (The comparison
of these characters with the specialized E-polynomials is
verify.verify_section4.)

Basis monomials apply e-generators (weight +2 each) and odd g-generators
(weight +1 each) to a lowest- or highest-weight vector; the inequalities on
the generator t-degrees depend on the module family ("kind").
enumerate_basis lists the monomials (the `basis` command and the tests).
The PBW characters and the basis sizes count them instead, without listing
3^n monomials and without qcomb's q-binomials.  _blocks writes each kind's
inequalities a second time, as blocks: for fixed numbers k of g- and s of
e-generators, the monomials are the k-subsets of a range of g-degrees times
the s-multisets of a range of e-degrees, and weight and PBW degree are
fixed.  basis_count sums C(#g-degrees, k) C(#e-degrees + s - 1, s) over the
blocks.  pbw_counts convolves, per block, a subset-sum table of the
g-degrees with a multiset-sum table of the e-degrees (_sum_tables: the
number of j-element subsets or multisets with each sum, one knapsack pass
per value), each table built once per range, into the count of every
(weight, t-degree, PBW degree) triple.  The tests compare both with
enumeration.

The closed-form characters ch_W (b = 1) and ch_W_sigma (b = 2) are the
paper's double sums of Gaussian binomials in base Q = q^b.  They are not
summed term by term: every case is one three-term recurrence, computed by
_packed_recurrence from G_0 = 1, G_(-1) = 0 and

    G_j = (x + q^c / x + q^(b j + e)) G_(j-1) - q^c (1 - q^(b (j-1))) G_(j-2).

Each recurrence comes from the q-binomial theorem (Andrews, The Theory of
Partitions, ch. 3).  In each case G_N sums, over k + s + r = N, the
trinomial [N; k, s, r] = [N, k] [N-k, s] times a q-power and x^(r-s).
Summing over k, s and r apart by Euler's identities gives, with A = q^(b+e),

    Phi(t) = sum_N G_N t^N / (Q;Q)_N
           = (-A t; Q)_inf / ((t x; Q)_inf (q^c t / x; Q)_inf).

So (1 - t x)(1 - q^c t / x) Phi(t) = (1 + A t) Phi(Q t).  The coefficient
of t^N, times (Q;Q)_N and divided by 1 - Q^N, is the recurrence above.

* n <= 0, (c, e) = (0, -1): ch(-m) = G_m with q-power
  q^(b k(k-1)/2 + (b-1) k) and x^(s-r) = x^(-m+k+2s).  The sum is symmetric
  in s and r, so x^(s-r) may be read as x^(r-s).  Here A = q^(b-1), q^c = 1.
* ch_W(n), n >= 1, (c, e) = (1, 0): ch_W(n) = x G_(n-1) with q-power
  q^(k(k+1)/2) q^s and x^(N-k-2s) = x^(r-s).  Here A = q and q^c = q:
  Phi(t) = (-q t; q)_inf / ((t x; q)_inf (q t / x; q)_inf).
* ch_W_sigma(n), n >= 1, (c, e) = (2, -1): the paper's sum is, binomials in
  q^2, sum_{k,s} q^(k^2) [n-1, k] [n-k-1, s]
  (q^(2s) x^(n-k-2s) + q^(2n-1) x^(n-k-2s-1)).  Its first half is x G_(n-1)
  with A = q and q^c = Q = q^2.  Its second half is q^(2n-1)
  ch_W_sigma(-(n-1)): the n <= 0 sum at m = n-1, mirrored in x, and that
  character is x-symmetric.

Only the x^k coefficients with k >= 0 are computed.  The factor x + q^c / x
+ q^(b j + e) and the x-free second term of the recurrence are invariant
under x -> q^c / x, and so are G_0 and G_(-1); by induction so is every
G_j.  Comparing the coefficients of x^(-k) in G_j(x) = G_j(q^c / x) gives

    G_j[-k] = q^(c k) G_j[k].

So _packed_recurrence updates x^0, ..., x^j alone, and reads the one
coefficient of the other half that the x^0 update needs, G_(j-1)[-1], as
G_(j-1)[1] times q^c.  _character fills in the other half: a shift by c k
digits for c > 0, and for c = 0 (n <= 0) the same decoded coefficient at
x^k and x^-k.

Each x-coefficient is kept as one packed integer whose base-2^(8 w) digit i
is its q^i coefficient, so a q-shift is an integer shift and the recurrence
is integer shifts and adds; no polynomial product is formed.  Integer
arithmetic is exact, so only the final digits must read back: every G_j has
nonnegative coefficients, and a character of weight n totals 3^|n| (n <= 0)
or b * 3^(n-1) (n > 0) at q = x = 1.  w is chosen with 3^|n| (n <= 0) or
b * 3^n (n > 0) below 2^(8 w - 1), so every coefficient of the result is one
digit, and QPolynomial.from_packed reads it back exactly.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from macweyl.qcomb import euler_product_truncated, q_binomial
from macweyl.ring import QPolynomial, XPolynomial, check_size, packed_width

KINDS = (
    "untwisted_neg",
    "twisted_neg",
    "untwisted_pos",
    "twisted_pos",
    "twisted_pos_1",
    "twisted_pos_2",
    "classical",
    "limit",
)


@dataclass(frozen=True)
class BasisMonomial:
    kind: str
    e_degrees: tuple
    g_degrees: tuple
    weight: int
    t_degree: int
    pbw_degree: int


def enumerate_basis(kind, n):
    """All basis monomials of the given kind for parameter n."""
    if kind == "twisted_pos":
        return enumerate_basis("twisted_pos_1", n) + enumerate_basis("twisted_pos_2", n)
    return [BasisMonomial(kind, *m) for m in _basis_tuples(kind, n)]


def _check_basis(kind, n):
    if kind not in KINDS or kind == "twisted_pos":
        raise ValueError("unknown basis kind %r" % (kind,))
    positive_kind = kind in ("untwisted_pos", "twisted_pos_1", "twisted_pos_2")
    if n < 0 or (positive_kind and n < 1):
        raise ValueError("n out of range for kind %s" % kind)
    check_size("basis", n)


def _basis_tuples(kind, n):
    """Yield (e_degrees, g_degrees, weight, t_degree, pbw_degree) for every
    basis monomial of one kind (not the union "twisted_pos")."""
    _check_basis(kind, n)

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


def _blocks(kind, n):
    """The (k, s) blocks of one kind's basis (not the union "twisted_pos"),
    as tuples (weight, pbw_degree, t_offset, g_values, k, e_values, s): the
    block's monomials are the k-subsets of g_values times the s-multisets
    of e_values, and a monomial's t-degree is t_offset plus the two sums.
    These are the inequalities of _basis_tuples, written out a second time;
    e_values is never empty."""
    _check_basis(kind, n)
    if kind == "untwisted_neg":
        return [(-n + k + 2 * s, k + s, 0, range(n), k, range(n - k - s + 1), s)
                for k in range(n + 1) for s in range(n - k + 1)]
    if kind == "twisted_neg":
        return [(-n + k + 2 * s, s, 0, range(1, 2 * n, 2), k,
                 range(0, 2 * (n - k - s) + 1, 2), s)
                for k in range(n + 1) for s in range(n - k + 1)]
    if kind == "untwisted_pos":
        return [(n - k - 2 * s, k + s, 0, range(1, n), k, range(1, n - k - s + 1), s)
                for k in range(n) for s in range(n - k)]
    if kind == "twisted_pos_1":
        return [(n - k - 2 * s, s, 0, range(1, 2 * n - 2, 2), k,
                 range(2, 2 * (n - k - s) + 1, 2), s)
                for k in range(n) for s in range(n - k)]
    if kind == "twisted_pos_2":
        # The g-degree 2n - 1 is always present: k - 1 of the others.
        return [(n - k - 2 * s, s, 2 * n - 1, range(1, 2 * n - 2, 2), k - 1,
                 range(0, 2 * (n - k - s) + 1, 2), s)
                for k in range(1, n + 1) for s in range(n - k + 1)]
    if kind == "classical":
        return [(-n + 2 * k, k, 0, range(0), 0, range(n - k + 1), k) for k in range(n + 1)]
    # limit: the e-degrees count against the t-degree.
    return [(-k + 2 * s, 0, 0, range(n), k, range(0, -(k - s) - 1, -1), s)
            for k in range(n + 1) for s in range(k + 1)]


def basis_count(kind, n):
    """len(enumerate_basis(kind, n)), counted block by block: C(|g_values|, k)
    subsets times C(|e_values| + s - 1, s) multisets."""
    if kind == "twisted_pos":
        return basis_count("twisted_pos_1", n) + basis_count("twisted_pos_2", n)
    return sum(comb(len(g), k) * comb(len(e) + s - 1, s)
               for _, _, _, g, k, e, s in _blocks(kind, n))


def _sum_tables(values, top, repeat):
    """tables[j] = {t: number of j-element subsets (repeat False) or
    multisets (repeat True) of values that sum to t}, for j <= top."""
    tables = [{0: 1}] + [{} for _ in range(top)]
    # Table j reads table j - 1 after it has taken v when j ascends (so v
    # may repeat) and before when j descends (so v is taken at most once).
    sizes = range(1, top + 1) if repeat else range(top, 0, -1)
    for v in values:
        for j in sizes:
            dst = tables[j]
            for t, c in tables[j - 1].items():
                dst[t + v] = dst.get(t + v, 0) + c
    return tables


def pbw_counts(n, twisted=False):
    """Triple-graded data for the associated graded of the weight -n module:
    {(x_weight, t_degree, pbw_degree): number of basis monomials}.

    The filtration counts applications of the raising half (e and g+ in the
    untwisted case, e alone in the twisted case).  In each block of _blocks
    the weight and PBW degree are fixed, and the t-degrees are the sums of a
    subset-sum table of the g-degrees and a multiset-sum table of the
    e-degrees, each table built once per range of values.
    """
    blocks = _blocks("twisted_neg" if twisted else "untwisted_neg", n)
    subsets, multisets = {}, {}
    for _, _, _, g, k, e, s in blocks:
        subsets[g] = max(subsets.get(g, 0), k)
        multisets[e] = max(multisets.get(e, 0), s)
    subsets = {g: _sum_tables(g, top, False) for g, top in subsets.items()}
    multisets = {e: _sum_tables(e, top, True) for e, top in multisets.items()}
    counts = {}
    for w, p, t0, g, k, e, s in blocks:
        for tg, cg in subsets[g][k].items():
            for te, ce in multisets[e][s].items():
                key = (w, t0 + tg + te, p)
                counts[key] = counts.get(key, 0) + cg * ce
    return counts


def ch_D(n):
    """Character of the classical module of lowest weight -n (dimension 2^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_size("characters", n)
    return XPolynomial({-n + 2 * k: q_binomial(n, k) for k in range(n + 1)})


def _packed_recurrence(m, b, c, e, width):
    """The x^k coefficients, k >= 0, of G_m as packed integers: a list whose
    entry k has base-2^(8 width) digit i equal to the q^i coefficient of
    x^k, where G_0 = 1, G_(-1) = 0 and

        G_j = (x + q^c / x + q^(b j + e)) G_(j-1) - q^c (1 - q^(b (j-1))) G_(j-2).

    Multiplying by q^k is a shift by 8 width k bits, so each step is integer
    shifts and adds.  The other half is G_j[-k] = q^(c k) G_j[k] (the module
    docstring), which is all the x^0 update reads of it.
    """
    bits = 8 * width
    cross = bits * c
    # Two zeros past the top entry, so that k + 1 and G_(j-2)'s k never
    # fall off the end.
    prev, cur = [0] * (m + 2), [1] + [0] * (m + 1)
    for j in range(1, m + 1):
        up, down = bits * (b * j + e), bits * b * (j - 1)
        nxt = [0] * (m + 2)
        for k in range(j + 1):
            p = prev[k] << cross
            below = cur[k - 1] if k else cur[1] << cross
            nxt[k] = below + (cur[k + 1] << cross) + (cur[k] << up) + (p << down) - p
        prev, cur = cur, nxt
    return cur[:m + 1]


def _character(n, b):
    """ch_W(n) (b = 1) or ch_W_sigma(n) (b = 2) at any integer weight n."""
    if n <= 0:
        # c = 0: the character is x-symmetric, so x^k and x^-k share one
        # coefficient.
        width = packed_width(3**-n)
        coeffs = {}
        for k, v in enumerate(_packed_recurrence(-n, b, 0, -1, width)):
            coeffs[k] = coeffs[-k] = QPolynomial.from_packed(v, width)
        return XPolynomial(coeffs)
    width = packed_width(b * 3**n)
    bits = 8 * width
    # (c, e) = (1, 0) untwisted, (2, -1) twisted, so c = b; the module
    # docstring.  In x G_(n-1), the coefficient of x^(1-k) is q^(c k) times
    # that of x^(1+k).
    sums = {}
    for k, v in enumerate(_packed_recurrence(n - 1, b, b, 1 - b, width)):
        sums[1 + k] = v
        if k:
            sums[1 - k] = v << bits * b * k
    if b == 2:
        shift = bits * (2 * n - 1)
        for k, v in enumerate(_packed_recurrence(n - 1, 2, 0, -1, width)):
            v <<= shift
            for x in {k, -k}:
                sums[x] = sums.get(x, 0) + v
    return XPolynomial({x: QPolynomial.from_packed(v, width) for x, v in sums.items()})


def ch_W(n):
    """Closed-form character of the untwisted module, any integer weight."""
    check_size("characters", n)
    return _character(n, 1)


def ch_W_sigma(n):
    """Closed-form character of the twisted module, any integer weight."""
    check_size("characters", n)
    return _character(n, 2)


def pbw_character_specialized(n, twisted=False):
    """PBW character specialized for comparison with the t=infinity limits.

    Untwisted: substitute q -> q^2 in both gradings; twisted: leave both at
    q.  Either way the filtration variable is identified with q.
    """
    scale = 1 if twisted else 2
    terms = {}
    for (w, t, p), count in pbw_counts(n, twisted).items():
        by_q = terms.setdefault(w, {})
        e = scale * (t + p)
        by_q[e] = by_q.get(e, 0) + count
    return XPolynomial.from_q_terms(terms)


LIMIT_KINDS = ("untwisted", "twisted", "classical_even", "classical_odd")


def limit_char(kind, q_bound, x_bound):
    """Truncated product/theta form of the stable limit character."""
    if kind not in LIMIT_KINDS:
        raise ValueError("unknown limit kind %r" % (kind,))
    if q_bound < 0 or x_bound < 0:
        raise ValueError("truncation bounds must be nonnegative")
    check_size("limitchar", q_bound)
    return euler_product_truncated(kind, q_bound, x_bound)


def approximant(kind, n, q_bound, x_bound):
    """Renormalized finite character approximating the limit.

    The finite character is evaluated at q -> q^-1 and shifted by the
    q-power that pins its top-degree stratum at zero; coefficients of
    q-degree at most floor((n-1)/2) are trusted.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q_bound < 0 or x_bound < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if kind == "untwisted":
        poly, shift = ch_W(-n), n * (n - 1) // 2
    elif kind == "twisted":
        poly, shift = ch_W_sigma(-n), n * n
    elif kind in ("classical_even", "classical_odd"):
        if kind == "classical_even" and n % 2 or kind == "classical_odd" and n % 2 == 0:
            raise ValueError("parity of n does not match the classical kind")
        poly, shift = ch_D(n), (n // 2) * ((n + 1) // 2)
    else:
        raise ValueError("unknown limit kind %r" % (kind,))
    q_shift = QPolynomial.q_power(shift)
    return XPolynomial({
        x: (q_shift * c.scale_exponents(-1)).truncate_above(q_bound).truncate_below(0)
        for x, c in poly.terms.items()
        if abs(x) <= x_bound
    })


def scale_q(poly, k):
    """Substitute q -> q^k in every coefficient of an XPolynomial."""
    return poly.map_coeffs(lambda c: c.scale_exponents(k))
