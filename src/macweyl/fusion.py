"""Fusion-product oracle: builds the weight -n Weyl module literally, as the
filtered tensor product of n three-dimensional evaluation modules, and reads
off its graded character.

The three-dimensional module has basis vectors of weights -1, 0, +1 with
parities even, odd, even.  Generator matrices are solved from the bracket
relations; the relation checker is the only correctness gate for them.

The filtration is computed in integers, over the g+ currents only (and
e(x)t^0 when twisted):

* The cyclic vector (0,...,0) has the lowest weight, so f(x)t^k and
  g-(x)t^k kill it and h(x)t^k acts on it by a scalar.  Commuting currents
  keeps the t-degree, so by PBW F_d = U(n+[t])_{<=d} v: only e(x)t^k and
  g+(x)t^k need applying.
* {g+, g+} = 2e (a checked relation) gives 2 e(x)t^k = {g+(x)t^a,
  g+(x)t^(k-a)}, both products of degree k, with a = 0 untwisted and a = 1
  twisted (k even, k >= 2).  So e(x)t^k adds nothing to U(n+[t])_{<=d} v
  once the g+ currents are applied, except e(x)t^0 in the twisted case,
  where every g+ degree is odd.
* x(x)t^k acts as sum_i p_i^k x_i.  By Cayley-Hamilton for diag(p), or for
  diag(p^2) in the twisted case, x(x)t^k with k >= n (twisted: k >= 2n) acts
  as a combination of x(x)t^j with j < k of the same parity, so it adds
  nothing to the filtration.
* t -> Lt is a graded automorphism of both current algebras, so scaling every
  point by L, the lcm of their denominators, leaves the filtration unchanged
  (repeated points and repeated squares stay repeated).  The points are then
  integers.
* Only the weights w <= 0 are built.  e, f, h (x) t^0 lie in both current
  algebras and keep the degree, so each F_d, and each F_d / F_(d-1), is a
  finite-dimensional sl2-module, whose character is symmetric under
  w -> -w: the multiplicity at (d, w) equals the one at (d, -w).  Every
  applied current raises the weight, so a vector of weight w <= 0 is reached
  only through weights below w, and F_d restricted to w <= 0 is computed
  exactly without the rest.  The cyclic submodule is sl2-stable too, so it
  is all of V once it fills every V_w with w <= 0.

Vectors are dense integer lists over the tensor states of one weight w <= 0,
and a current is applied through a per-call table of (target, coefficient)
pairs.  Each weight space keeps its rows in fraction-free reduced echelon
form (see _WeightSpace), so testing a candidate against r rows of length D
costs r (D - r) multiplications, and nothing once the space is full.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm
from operator import mul

from macweyl.ring import QPolynomial, XPolynomial, check_size


class RelationViolation(ArithmeticError):
    pass


class NotCyclic(ArithmeticError):
    pass


EVEN, ODD = 0, 1

# 3x3 matrices as column maps {col: [(row, value), ...]} on basis v0,v1,v2
# (weights -1, 0, +1; parities even, odd, even).
_E = {0: [(2, 1)]}
_F = {2: [(0, 1)]}
_H = {0: [(0, -1)], 2: [(2, 1)]}
_GP = {0: [(1, 1)], 1: [(2, 1)]}
_GM = {2: [(1, 1)], 1: [(0, -1)]}

_PARITY = {"e": EVEN, "f": EVEN, "h": EVEN, "g+": ODD, "g-": ODD}
_STATE_PARITY = (EVEN, ODD, EVEN)


@dataclass(frozen=True)
class SuperRep:
    matrices: dict  # name -> dense 3x3 list of int rows
    parities: tuple


def _dense(colmap):
    m = [[0] * 3 for _ in range(3)]
    for col, entries in colmap.items():
        for row, val in entries:
            m[row][col] = val
    return m


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def _matadd(a, b, sb=1):
    return [[a[i][j] + sb * b[i][j] for j in range(3)] for i in range(3)]


def _matscale(a, s):
    return [[s * a[i][j] for j in range(3)] for i in range(3)]


def _bracket(a, pa, b, pb):
    # super-commutator: ab - (-1)^(pa pb) ba
    sign = -1 if (pa and pb) else 1
    return _matadd(_matmul(a, b), _matscale(_matmul(b, a), sign), -1)


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
    """The 3-dimensional representation, validated against every bracket."""
    rep = SuperRep(
        matrices={
            "e": _dense(_E),
            "f": _dense(_F),
            "h": _dense(_H),
            "g+": _dense(_GP),
            "g-": _dense(_GM),
        },
        parities=_STATE_PARITY,
    )
    check_relations(rep)
    return rep


def check_relations(rep):
    for left, right, expected, scale in _RELATIONS:
        got = _bracket(
            rep.matrices[left], _PARITY[left], rep.matrices[right], _PARITY[right]
        )
        want = _matscale(rep.matrices[expected], scale)
        if got != want:
            raise RelationViolation(
                "bracket [%s, %s] != %d*%s" % (left, right, scale, expected)
            )


@cache
def _relation_gate():
    """Build and check the representation once per process: the matrices
    are constants, so one passing check covers every later call."""
    build_rep()


_COLMAPS = {"e": _E, "g+": _GP}
_RAISE = {"e": 2, "g+": 1}  # weight raised by the current


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


def _generators(n, twisted):
    """The currents that are applied (see the module docstring)."""
    if twisted:
        yield "e", 0
        for m in range(n):
            yield "g+", 2 * m + 1
    else:
        for k in range(n):
            yield "g+", k


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
    _relation_gate()
    scale = lcm(*(p.denominator for p in points))
    top = 2 * n if twisted else n
    powers = [[int(p * scale) ** k for k in range(top)] for p in points]

    # The tensor states of each weight w <= 0, and each state's index among them.
    states = {}
    for state in product(range(3), repeat=n):
        w = sum(state) - n
        if w <= 0:
            states.setdefault(w, []).append(state)
    index = {s: i for group in states.values() for i, s in enumerate(group)}
    # (current, k, weight) -> per source index, the (target index, coefficient)
    # pairs of x(x)t^k; each coefficient carries the Koszul sign, the matrix
    # entry and powers[i][k].  A current whose target weight is > 0 has none.
    gens = list(_generators(n, twisted))
    tables = {}
    for name, k in gens:
        colmap, odd = _COLMAPS[name], _PARITY[name] == ODD
        for w, group in states.items():
            if w + _RAISE[name] > 0:
                continue
            table = []
            for state in group:
                pairs, sign = [], 1
                for i, s in enumerate(state):
                    for row, val in colmap.get(s, ()):
                        coeff = sign * val * powers[i][k]
                        if coeff:
                            pairs.append((index[state[:i] + (row,) + state[i + 1 :]], coeff))
                    if odd and _STATE_PARITY[s] == ODD:
                        sign = -sign
                table.append(pairs)
            tables[name, k, w] = table

    low_dim = sum(map(len, states.values()))  # dimension of the weights w <= 0
    spaces = {w: _WeightSpace(len(group)) for w, group in states.items()}
    char = {}  # (degree, weight <= 0) -> multiplicity
    pending = {0: [(-n, [1])]}  # degree -> [(weight, dense vector)]
    found = 0
    degree = 0
    max_degree = 2 * n * n + 2 * n + 4

    while pending and degree <= max_degree and found < low_dim:
        queue = pending.pop(degree, [])
        for w, vec in queue:  # grows with the images of the degree-0 currents
            if not spaces[w].add(vec):
                continue
            char[(degree, w)] = char.get((degree, w), 0) + 1
            found += 1
            for name, k in gens:
                target = w + _RAISE[name]
                if target > 0 or not spaces[target].free:
                    continue
                img = [0] * len(states[target])
                for c, pairs in zip(vec, tables[name, k, w]):
                    if c:
                        for t, a in pairs:
                            img[t] += a * c
                if any(img):
                    (queue if k == 0 else pending.setdefault(degree + k, [])).append((target, img))
        degree += 1

    if found < low_dim:
        dim = sum(len(space.pivots) * (2 if w else 1) for w, space in spaces.items())
        raise NotCyclic(
            "filtration stabilized at dimension %d < %d" % (dim, 3 ** n)
        )

    return XPolynomial.from_pairs(
        (sign * w, QPolynomial.monomial(mult, deg))
        for (deg, w), mult in char.items()
        for sign in ((1, -1) if w else (1,))
    )
