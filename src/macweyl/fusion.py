"""Fusion-product oracle: builds the weight -n Weyl module literally, as the
filtered tensor product of n three-dimensional evaluation modules, and reads
off its graded character.

The three-dimensional module has basis vectors of weights -1, 0, +1 with
parities even, odd, even.  Generator matrices are solved from the bracket
relations; the relation checker is the only correctness gate for them.

V is the tensor product at the points p_1, ..., p_n, v = (0,...,0) its
cyclic vector, of the lowest weight -n, and F_d = U_{<=d} v the span of the
products of currents x(x)t^k of total t-degree <= d applied to v.  Write
Z = g+(x)1 and step = 1 untwisted, Z = e(x)1 and step = 2 twisted.  The
oracle never does linear algebra in a weight space V_w; it works in integers
in the quotients Q_w = V_w / Z V_(w-step), w <= 0, which is exact:

* Complete reducibility.  The degree-0 currents, osp(1|2) untwisted and sl2
  twisted, keep each F_d, and their finite-dimensional modules are
  completely reducible (Djokovic-Hochschild 1976, Kac 1977; Weyl for sl2).
  In an irreducible summand Z raises every weight but the top one, which is
  >= 0, so Z is injective from V_(w-step) into V_w for w <= 0, and F_d has
  dim (F_d)_w - dim (F_d)_(w-step) summands of lowest weight w.
* F_d meets Z V in Z F_d.  An equivariant projection P of V onto F_d
  commutes with Z, so Z y in F_d gives Z y = P Z y = Z P y.  Hence the image
  of (F_d)_w in Q_w has dimension dim (F_d)_w - dim (F_d)_(w-step), the
  number of summands of lowest weight w.
* Lifts.  For each w the oracle keeps vectors of F_d, the lifts, whose
  images span that of (F_d)_w; then (F_d)_w = span(lifts) + Z (F_d)_(w-step).
  A lift need not be a lowest-weight vector: it differs from one by an
  element of Z F_d, and the next point shows that the currents map such an
  element to nothing new in Q.
* Which currents.  f, g- and h (x) t^k act on v by 0 or a scalar, so
  F_d = U(n+[t])_{<=d} v, and U(n+[t]) = C[Z] U(n+ (x) tC[t]) with Z to the
  left (PBW).  So the image of F_d in Q is spanned by those of v and of X y,
  for currents X of degree k >= 1 and y in F_(d-k); with y = lift + Z y':
  - twisted, Z is central in n+[t], so X Z y' = Z X y' lies in Z V;
  - untwisted, X Z y' = -Z X y' + [X, Z] y', where [e(x)t^k, Z] = 0 and
    [g+(x)t^k, Z] = 2 e(x)t^k, which commutes with Z: the commutator
    identity.  So the image of g+(x)t^k Z y' is that of 2 e(x)t^k on the
    lifts of y'.
  Hence applying the currents to the lifts alone suffices.  The e currents
  reduce further: 2 e(x)t^k = {g+(x)t, g+(x)t^(k-1)}.  Twisted, every
  e(x)t^(2m), m >= 1, is such a sum of products of g+ currents of the same
  total degree, so only the g+ currents are applied.  Untwisted, the same
  identity and the commutator identity reduce e(x)t^k, k >= 2, on a lift to
  g+ currents and e(x)t^(k-1) on lifts of no higher total degree, so only
  e(x)t is applied besides the g+ currents.
* Newton currents and the Cayley-Hamilton caps.  x(x)t^k acts as
  sum_i p_i^k x_i.  The oracle applies x(x)P_k(t) in place of x(x)t^k, with
  P_k(t) = (t - p_1)...(t - p_k): it is x(x)t^k plus currents of lower
  degree, so it spans the same filtration (its degree-0 part, Z or
  Z^2 = e(x)1, maps into Z V), and it acts only on the factors i > k.
  P_n is the characteristic polynomial of diag(p), so by Cayley-Hamilton
  x(x)P_k acts as 0 for every k >= n.  Twisted, the odd currents
  g+(x)t Q_m(t^2), with Q_m(s) = (s - p_1^2)...(s - p_m^2), do the same
  with diag(p^2).  So the applied currents are g+(x)P_k, 1 <= k <= n-1, and
  e(x)P_1 untwisted; g+(x)t Q_m(t^2), 0 <= m <= n-1, twisted.
* t -> Lt is a graded automorphism of both current algebras, so scaling every
  point by L, the lcm of their denominators, leaves the filtration unchanged
  (repeated points and repeated squares stay repeated).  The points are then
  integers.
* Only the weights w <= 0 are built.  Every applied current raises the
  weight, and each F_d / F_(d-1) is a module over the degree-0 currents, so
  its character is symmetric under w -> -w.

Reading the character: the lifts found at degree d and weight u count the
summands of F_d / F_(d-1) of lowest weight u, each with multiplicity one at
u, u + step, ..., -u; so the multiplicity at (d, w <= 0) is the sum over
j >= 0 of the lifts at (d, w - j step), mirrored to -w.  The cyclic
submodule is a module over the degree-0 currents too, so it is all of V
once every Q_w is full.

Each quotient map is built once per weight, by sparse fraction-free
Gauss-Jordan on the images Z e_s (at most n entries, each +-1), and stored
by pivot row, so projecting a vector skips its zero entries.  An image is
computed only when its target quotient is not yet full, and each quotient
keeps its vectors in fraction-free reduced echelon form (see _WeightSpace).
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from macweyl.ring import QPolynomial, XPolynomial, check_size


class RelationViolation(ArithmeticError):
    pass


class NotCyclic(ArithmeticError):
    pass


EVEN, ODD = 0, 1

# The generators as 3x3 integer matrices, rows and columns on the basis
# v0, v1, v2 (weights -1, 0, +1; parities even, odd, even).
_MATRICES = {
    "e": ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    "f": ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    "h": ((-1, 0, 0), (0, 0, 0), (0, 0, 1)),
    "g+": ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    "g-": ((0, -1, 0), (0, 0, 1), (0, 0, 0)),
}

_PARITY = {"e": EVEN, "f": EVEN, "h": EVEN, "g+": ODD, "g-": ODD}
_STATE_PARITY = (EVEN, ODD, EVEN)


def _bracket(a, pa, b, pb):
    # super-commutator: ab - (-1)^(pa pb) ba
    sign = -1 if (pa and pb) else 1
    return tuple(
        tuple(sum(a[i][k] * b[k][j] - sign * b[i][k] * a[k][j] for k in range(3))
              for j in range(3))
        for i in range(3)
    )


# (left, right, expected, scale): super-bracket [left, right] == scale * expected.
# The mixed relation [f, g+] carries a minus sign: together with {g+,g-}=h,
# {g+,g+}=2e and [e,g-]=-g+ this is the unique consistent choice (any matrix
# realization satisfies the graded Jacobi identity, which forces it).
_RELATIONS = (
    ("e", "f", "h", 1),
    ("h", "e", "e", 2),
    ("h", "f", "f", -2),
    ("h", "g+", "g+", 1),
    ("h", "g-", "g-", -1),
    ("g+", "g-", "h", 1),
    ("g+", "g+", "e", 2),
    ("g-", "g-", "f", -2),
    ("f", "g+", "g-", -1),
    ("e", "g-", "g+", -1),
)


def build_rep():
    """The generator matrices, validated against every bracket."""
    check_relations(_MATRICES)
    return _MATRICES


def check_relations(matrices):
    for left, right, expected, scale in _RELATIONS:
        got = _bracket(matrices[left], _PARITY[left], matrices[right], _PARITY[right])
        want = tuple(tuple(scale * x for x in row) for row in matrices[expected])
        if got != want:
            raise RelationViolation(
                "bracket [%s, %s] != %d*%s" % (left, right, scale, expected)
            )


_RAISE = {"e": 2, "g+": 1}  # weight raised by each applied current


@cache
def _relation_gate():
    """Check the matrices once per process (they are constants, so one
    passing check covers every later call) and return the applied currents
    as column maps {col: [(row, value), ...]} of the checked table."""
    matrices = build_rep()
    return {
        name: {col: [(i, row[col]) for i, row in enumerate(matrices[name]) if row[col]]
               for col in range(3)}
        for name in _RAISE
    }


class _WeightSpace:
    """Fraction-free reduced echelon form of integer vectors over the states
    of one weight: every row holds the common value d at its own pivot and 0
    at every other pivot, so only the free (non-pivot) columns are stored."""

    def __init__(self, size):
        self.d = 1
        self.pivots = []
        self.free = {f: [] for f in range(size)}  # free column -> entry per row

    def add(self, vec):
        """Insert vec unless it lies in the span; returns True when it was new.

        vec = sum_r (vec[p_r] / d) row_r holds exactly when every free column
        f has d vec[f] == sum_r vec[p_r] row_r[f]; the residual d vec - sum_r
        vec[p_r] row_r is zero on the pivots and is the new row."""
        d, at_pivots = self.d, [vec[p] for p in self.pivots]
        res = {f: d * vec[f] - sum(map(mul, at_pivots, col)) for f, col in self.free.items()}
        p = next((f for f in res if res[f]), None)
        if p is None:
            return False
        # Clear column p from the old rows and scale the new row, so that
        # every pivot holds d * res[p]; then divide out the common content.
        a, col_p = res.pop(p), self.free.pop(p)
        self.pivots.append(p)
        self.d = g = d * a
        for f, col in self.free.items():
            u = res[f]
            col[:] = [a * x - c * u for x, c in zip(col, col_p)] + [d * u]
            if g != 1:
                g = gcd(g, *col)
        if g > 1:
            self.d //= g
            for col in self.free.values():
                col[:] = [x // g for x in col]
        return True


def _currents(points, twisted):
    """(name, t-degree, per-factor scalars) of the currents applied to the
    lifts, each name(x)P(t) with P of the given degree (see the module
    docstring)."""
    if twisted:
        for m in range(len(points)):
            yield "g+", 2 * m + 1, [p * prod(p * p - q * q for q in points[:m])
                                    for p in points]
    else:
        for k in range(1, len(points)):
            yield "g+", k, [prod(p - q for q in points[:k]) for p in points]
        if len(points) > 1:
            yield "e", 1, [p - points[0] for p in points]


def _states(n):
    """The tensor states of each weight w <= 0, and each state's index among
    the states of its weight."""
    states = {}
    for state in product(range(3), repeat=n):
        w = sum(state) - n
        if w <= 0:
            states.setdefault(w, []).append(state)
    index = {s: i for group in states.values() for i, s in enumerate(group)}
    return states, index


def _action(name, scalars, states, index, w):
    """Per state of weight w, the (target index, coefficient) pairs of the
    current that acts on factor i as scalars[i] times the matrix `name`; each
    coefficient carries the Koszul sign, the matrix entry and scalars[i]."""
    colmap, odd = _relation_gate()[name], _PARITY[name] == ODD
    table = []
    for state in states[w]:
        pairs, sign = [], 1
        for i, s in enumerate(state):
            for row, val in colmap[s]:
                coeff = sign * val * scalars[i]
                if coeff:
                    pairs.append((index[state[:i] + (row,) + state[i + 1 :]], coeff))
            if odd and _STATE_PARITY[s] == ODD:
                sign = -sign
        table.append(pairs)
    return table


def _combine(a, x, u, y):
    """a x - u y for sparse integer rows, divided by its content when a != 1."""
    out = {c: a * v for c, v in x.items()} if a != 1 else dict(x)
    for c, v in y.items():
        s = out.get(c, 0) - u * v
        if s:
            out[c] = s
        else:
            del out[c]
    if a != 1:
        g = gcd(*out.values())
        if g > 1:
            out = {c: v // g for c, v in out.items()}
    return out


class _QuotientMap:
    """An integer map on the states of one weight whose kernel is exactly the
    span of the given linearly independent sparse images {state: value}.

    Sparse fraction-free Gauss-Jordan puts the images in reduced echelon
    form: row r_p holds a_p at its pivot p and 0 at every other pivot.  x
    lies in their span exactly when x[f] = sum_p (x[p] / a_p) r_p[f] at every
    free column f, so with L = lcm(a_p) the map sends x to the residuals
    L x[f] - sum_p x[p] (L / a_p) r_p[f], one per free column."""

    def __init__(self, images, size):
        rows = {}  # pivot -> reduced row
        for row in images:
            for p in [c for c in row if c in rows]:
                r = rows[p]
                row = _combine(r[p], row, row[p], r)
            # A unit pivot when there is one; among those the last column,
            # which keeps the rows of the Z images sparse.
            p = min(row, key=lambda c: (abs(row[c]), -c))
            if row[p] < 0:
                row = {c: -v for c, v in row.items()}
            a = row[p]
            for q, r in rows.items():
                u = r.get(p)
                if u:
                    rows[q] = _combine(a, r, u, row)
            rows[p] = row
        self.free = [f for f in range(size) if f not in rows]
        column = {f: i for i, f in enumerate(self.free)}
        self.scale = lcm(*(r[p] for p, r in rows.items()))
        # pivot -> [(free column position, -(L / a_p) r_p[f])]
        self.rows = [
            (p, [(column[f], -self.scale // r[p] * v) for f, v in r.items() if f != p])
            for p, r in rows.items()
        ]

    def __call__(self, vec):
        out = [self.scale * vec[f] for f in self.free]
        for p, pairs in self.rows:
            c = vec[p]
            if c:
                for i, a in pairs:
                    out[i] += a * c
        return out


def _quotient_maps(states, index, twisted):
    """weight w <= 0 -> the _QuotientMap of V_w whose kernel is Z V_(w-step)."""
    z = "e" if twisted else "g+"
    ones = [1] * -min(states)  # Z = z(x)1 on each of the n factors; -n is the lowest weight
    maps = {}
    for w, group in states.items():
        below = w - _RAISE[z]
        images = _action(z, ones, states, index, below) if below in states else []
        maps[w] = _QuotientMap([dict(pairs) for pairs in images], len(group))
    return maps


def fusion_character(n, points, twisted=False):
    """Graded character of the filtered tensor product at the given points.

    Filtration degree is the total t-degree of the applied current
    operators.  Raises NotCyclic when the construction stabilizes below
    dimension 3^n (repeated points, or repeated squares in the twisted
    case).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_size("fusion_oracle", n)
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    points = tuple(Fraction(p) for p in points)
    scale = lcm(*(p.denominator for p in points))
    points = [int(p * scale) for p in points]
    step = _RAISE["e" if twisted else "g+"]
    states, index = _states(n)
    pi = _quotient_maps(states, index, twisted)
    spaces = {w: _WeightSpace(len(pi[w].free)) for w in states}
    remaining = sum(len(pi[w].free) for w in states)  # columns still to fill

    currents = list(_currents(points, twisted))
    # (current, source weight) -> _action table, where the target weight is <= 0
    tables = {(i, w): _action(name, scalars, states, index, w)
              for i, (name, _, scalars) in enumerate(currents)
              for w in states if w + _RAISE[name] <= 0}
    lifts = {}  # (degree, weight) -> number of lifts
    pending = {}  # degree -> [(target weight, current table, source lift)]

    def keep(degree, w, vec):
        lifts[degree, w] = lifts.get((degree, w), 0) + 1
        for i, (name, k, _) in enumerate(currents):
            if (i, w) in tables:
                pending.setdefault(degree + k, []).append((w + _RAISE[name], tables[i, w], vec))

    spaces[-n].add([1])
    keep(0, -n, [1])
    remaining -= 1
    degree = 0
    while pending and remaining:
        degree += 1
        for target, table, vec in pending.pop(degree, ()):
            space = spaces[target]
            if not space.free:  # a full quotient gains nothing: skip the image
                continue
            img = [0] * len(states[target])
            for c, pairs in zip(vec, table):
                if c:
                    for t, a in pairs:
                        img[t] += a * c
            # Scaling keeps every span, so divide out contents to keep the
            # integers small.
            proj = pi[target](img)
            g = gcd(*proj)
            if space.add([x // g for x in proj] if g > 1 else proj):
                g = gcd(*img)
                keep(degree, target, [x // g for x in img] if g > 1 else img)
                remaining -= 1

    char = {}
    for (d, u), m in lifts.items():
        for w in range(u, 1, step):
            char[d, w] = char.get((d, w), 0) + m
    if remaining:
        dim = sum(m * (2 if w else 1) for (_, w), m in char.items())
        raise NotCyclic(
            "filtration stabilized at dimension %d < %d" % (dim, 3 ** n)
        )

    return XPolynomial.from_pairs(
        (sign * w, QPolynomial.monomial(mult, deg))
        for (deg, w), mult in char.items()
        for sign in ((1, -1) if w else (1,))
    )
