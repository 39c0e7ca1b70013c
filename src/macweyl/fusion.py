"""Fusion-product oracle: builds the weight -n Weyl module literally, as the
filtered tensor product of n three-dimensional evaluation modules, and reads
off its graded character.

The three-dimensional module has basis vectors of weights -1, 0, +1 with
parities even, odd, even.  Generator matrices are solved from the bracket
relations; the relation checker is the only correctness gate for them.

The filtration is computed in integers, over the raising currents only:

* The cyclic vector (0,...,0) has the lowest weight, so f(x)t^k and
  g-(x)t^k kill it and h(x)t^k acts on it by a scalar.  Commuting currents
  keeps the t-degree, so by PBW F_d = U(n+[t])_{<=d} v: only e(x)t^k and
  g+(x)t^k need applying.
* x(x)t^k acts as sum_i p_i^k x_i.  By Cayley-Hamilton for diag(p), or for
  diag(p^2) in the twisted case, x(x)t^k with k >= n (twisted: k >= 2n) acts
  as a combination of x(x)t^j with j < k of the same parity, so it adds
  nothing to the filtration.
* t -> Lt is a graded automorphism of both current algebras, so scaling every
  point by L, the lcm of their denominators, leaves the filtration unchanged
  (repeated points and repeated squares stay repeated).  The points are then
  integers, and rows are reduced by fraction-free elimination.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from macweyl.ring import BoundExceeded, QPolynomial, XPolynomial


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
_STATE_WEIGHT = (-1, 0, 1)


@dataclass(frozen=True)
class SuperRep:
    matrices: dict  # name -> dense 3x3 list of Fraction rows
    parities: tuple


def _dense(colmap):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for col, entries in colmap.items():
        for row, val in entries:
            m[row][col] = Fraction(val)
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
        want = _matscale(rep.matrices[expected], Fraction(scale))
        if got != want:
            raise RelationViolation(
                "bracket [%s, %s] != %d*%s" % (left, right, scale, expected)
            )


@cache
def _relation_gate():
    """Build and check the representation once per process: the matrices
    are constants, so one passing check covers every later call."""
    build_rep()


_COLMAPS = {"e": _E, "f": _F, "h": _H, "g+": _GP, "g-": _GM}


def _apply_current(vec, name, k, powers):
    """Apply x tensor t^k to a sparse tensor vector {state-tuple: int};
    powers[i][k] is the k-th power of the i-th (integer) point."""
    colmap = _COLMAPS[name]
    odd = _PARITY[name] == ODD
    out = {}
    for state, coeff in vec.items():
        signed = coeff
        for i, s in enumerate(state):
            entries = colmap.get(s)
            if entries:
                z = signed * powers[i][k]
                for row, val in entries:
                    new = state[:i] + (row,) + state[i + 1 :]
                    out[new] = out.get(new, 0) + val * z
            if odd and _STATE_PARITY[s] == ODD:
                signed = -signed
    return {s: c for s, c in out.items() if c}


class _WeightSpace:
    """Fraction-free row echelon form of integer vectors of one fixed weight."""

    def __init__(self):
        self.rows = []  # list of (pivot-state, {state: int}) with content 1

    def reduce(self, vec):
        """vec minus its projection on the rows, scaled to content 1."""
        vec = dict(vec)
        for pivot, row in self.rows:
            c = vec.get(pivot)
            if c:
                a = row[pivot]
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    for s in vec:
                        vec[s] *= a
                for s, v in row.items():
                    x = vec.get(s, 0) - c * v
                    if x:
                        vec[s] = x
                    else:
                        del vec[s]
        content = gcd(*vec.values())
        if content > 1:
            vec = {s: v // content for s, v in vec.items()}
        return vec

    def add(self, vec):
        """Reduce and insert; returns True when the vector was new."""
        vec = self.reduce(vec)
        if not vec:
            return False
        self.rows.append((min(vec), vec))
        return True


def _generators(n, twisted):
    """The raising currents of degree below n (see the module docstring)."""
    if twisted:
        for m in range(n):
            yield "e", 2 * m
            yield "g+", 2 * m + 1
    else:
        for k in range(n):
            yield "e", k
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
    if n > 5:
        raise BoundExceeded("fusion oracle is limited to n <= 5")
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    points = tuple(Fraction(p) for p in points)
    _relation_gate()
    scale = lcm(*(p.denominator for p in points))
    top = 2 * n if twisted else n
    powers = [[int(p * scale) ** k for k in range(top)] for p in points]

    total_dim = 3 ** n
    gens = list(_generators(n, twisted))
    spaces = {}  # weight -> _WeightSpace
    char = {}  # (degree, weight) -> multiplicity
    pending = {0: [{(0,) * n: 1}]}
    found = 0
    degree = 0
    max_degree = 2 * n * n + 2 * n + 4

    def weight_of(state):
        return sum(_STATE_WEIGHT[s] for s in state)

    while pending and degree <= max_degree and found < total_dim:
        frontier = []
        for vec in pending.pop(degree, []):
            w = weight_of(next(iter(vec)))
            space = spaces.setdefault(w, _WeightSpace())
            if space.add(vec):
                char[(degree, w)] = char.get((degree, w), 0) + 1
                found += 1
                frontier.append(vec)
        # closure at this degree, then push to higher degrees
        idx = 0
        while idx < len(frontier):
            vec = frontier[idx]
            idx += 1
            for name, k in gens:
                img = _apply_current(vec, name, k, powers)
                if not img:
                    continue
                if k == 0:
                    w = weight_of(next(iter(img)))
                    space = spaces.setdefault(w, _WeightSpace())
                    if space.add(img):
                        char[(degree, w)] = char.get((degree, w), 0) + 1
                        found += 1
                        frontier.append(img)
                else:
                    pending.setdefault(degree + k, []).append(img)
        degree += 1
        if found >= total_dim:
            break

    if found < total_dim:
        raise NotCyclic(
            "filtration stabilized at dimension %d < %d" % (found, total_dim)
        )

    return XPolynomial.from_pairs(
        (w, QPolynomial.monomial(mult, deg)) for (deg, w), mult in char.items()
    )
