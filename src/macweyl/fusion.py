"""Fusion-product oracle: builds the weight -n Weyl module literally, as the
filtered tensor product of n three-dimensional evaluation modules, and reads
off its graded character.

The three-dimensional module has basis vectors of weights -1, 0, +1 with
parities even, odd, even.  Generator matrices are solved from the bracket
relations; the relation checker is the only correctness gate for them.  All
linear algebra is exact over Fraction.
"""

from dataclasses import dataclass
from fractions import Fraction

from macweyl.ring import BoundExceeded, QPolynomial, XPolynomial


class RelationViolation(ArithmeticError):
    pass


class NotCyclic(ArithmeticError):
    pass


EVEN, ODD = 0, 1

# 3x3 matrices as column maps {col: [(row, value), ...]} on basis v0,v1,v2
# (weights -1, 0, +1; parities even, odd, even).
_E = {0: [(2, Fraction(1))]}
_F = {2: [(0, Fraction(1))]}
_H = {0: [(0, Fraction(-1))], 2: [(2, Fraction(1))]}
_GP = {0: [(1, Fraction(1))], 1: [(2, Fraction(1))]}
_GM = {2: [(1, Fraction(1))], 1: [(0, Fraction(-1))]}

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
        want = _matscale(rep.matrices[expected], Fraction(scale))
        if got != want:
            raise RelationViolation(
                "bracket [%s, %s] != %d*%s" % (left, right, scale, expected)
            )


_COLMAPS = {"e": _E, "f": _F, "h": _H, "g+": _GP, "g-": _GM}


def _apply_current(vec, name, k, points):
    """Apply x tensor t^k to a sparse tensor vector {state-tuple: Fraction}."""
    colmap = _COLMAPS[name]
    odd = _PARITY[name] == ODD
    out = {}
    for state, coeff in vec.items():
        sign = 1
        for i, s in enumerate(state):
            entries = colmap.get(s)
            if entries:
                z = points[i] ** k
                for row, val in entries:
                    new = state[:i] + (row,) + state[i + 1 :]
                    c = coeff * val * z * sign
                    out[new] = out.get(new, 0) + c
            if odd and _STATE_PARITY[s] == ODD:
                sign = -sign
    return {s: c for s, c in out.items() if c != 0}


class _WeightSpace:
    """Row-reduced sparse vectors of one fixed weight."""

    def __init__(self):
        self.rows = []  # list of (pivot-state, {state: Fraction})

    def reduce(self, vec):
        vec = dict(vec)
        for pivot, row in self.rows:
            c = vec.get(pivot)
            if c:
                for s, v in row.items():
                    vec[s] = vec.get(s, 0) - c * v
                    if vec[s] == 0:
                        del vec[s]
        return vec

    def add(self, vec):
        """Reduce and insert; returns True when the vector was new."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = 1 / vec[pivot]
        row = {s: c * inv for s, c in vec.items()}
        self.rows.append((pivot, row))
        return True


def _generators(n, twisted):
    if twisted:
        even_ks = range(0, 2 * n + 1, 2)
        odd_ks = range(1, 2 * n + 2, 2)
        for name in ("e", "f", "h"):
            for k in even_ks:
                yield name, k
        for name in ("g+", "g-"):
            for k in odd_ks:
                yield name, k
    else:
        for name in ("e", "f", "h", "g+", "g-"):
            for k in range(0, 2 * n + 1):
                yield name, k


def fusion_character(n, points, twisted=False):
    """Graded character of the filtered tensor product at the given points.

    Filtration degree is the total t-degree of the applied current
    operators.  Raises NotCyclic when the construction stabilizes below
    dimension 3^n (repeated points, or repeated squares in the twisted
    case).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 4:
        raise BoundExceeded("fusion oracle is limited to n <= 4")
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    points = tuple(Fraction(p) for p in points)
    build_rep()  # relation gate

    total_dim = 3 ** n
    gens = list(_generators(n, twisted))
    spaces = {}  # weight -> _WeightSpace
    char = {}  # (degree, weight) -> multiplicity
    pending = {0: [dict({(0,) * n: Fraction(1)})]}
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
                img = _apply_current(vec, name, k, points)
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

    terms = {}
    for (deg, w), mult in char.items():
        c = QPolynomial.monomial(mult, deg)
        terms[w] = terms[w] + c if w in terms else c
    return XPolynomial(terms)
