"""macweyl: exact Weyl-module characters for osp(1|2) currents and the
t=0 / t=infinity specializations of rank-one nonsymmetric Macdonald
polynomials of types A2(2) and A2(2)-dagger, computed by independent routes
(alcove walks, coefficient tables, character formulas, fusion products) and
cross-verified."""

from macweyl.ring import QPolynomial, BiPolynomial, RationalFunction, XPolynomial
from macweyl.qcomb import q_binomial, q_multinomial, euler_product_truncated, wedge_lhs_truncated
from macweyl.walks import AlcoveWalk, enumerate_walks, traverse, to_hword, qb_filter
from macweyl.ramyip import ramyip_sum, specialize
from macweyl.cform import c_rec, c_closed, cdag_rec, cdag_closed, E_spec
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
from macweyl.verify import verify_section4

__version__ = "0.1.0"
