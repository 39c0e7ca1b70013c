"""macweyl: exact Weyl-module characters for osp(1|2) currents and the
t=0 / t=infinity specializations of rank-one nonsymmetric Macdonald
polynomials of types A2(2) and A2(2)-dagger, computed by independent routes
(alcove walks, coefficient tables, character formulas, fusion products) and
cross-verified.  The walk-by-walk, recurrence and binomial references that
the tests compare these routes with are test code, in tests/references.py;
its Gaussian binomials are the reference for qcomb.pascal_rows, which the
cform tables and weylchar.ch_D read."""

from macweyl.ring import QPolynomial, BiPolynomial, RationalFunction, XPolynomial
from macweyl.qcomb import euler_product_truncated, wedge_lhs_truncated
from macweyl.ramyip import ramyip_sum, specialize
from macweyl.cform import c_closed, cdag_closed, E_spec
from macweyl.weylchar import (
    enumerate_basis,
    ch_D,
    ch_W,
    ch_W_sigma,
    pbw_character_specialized,
    limit_char,
    approximant,
)
from macweyl.fusion import build_rep, fusion_character

__version__ = "0.1.0"
