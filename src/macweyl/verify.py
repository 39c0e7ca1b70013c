"""Cross-verification harness.

Every suite compares two independently computed polynomials and classifies
the outcome:

* EQUAL          -- identical, no transform.
* EQUAL_UP_TO    -- identical after an x -> x^-1 mirror and/or a global
                    q-power shift; the transform is recorded.
* KNOWN_ERRATUM  -- the difference matches an entry of the frozen errata
                    table exactly.
* MISMATCH       -- anything else.

The errata table and the conventions table (which transform each identity
route is expected to need) ship as JSON files next to this module; both were
generated by derive_conventions()/derive_errata() at build time and then
frozen.
"""

import json
from importlib import resources

from macweyl import cform, fusion, qcomb, ramyip, walks, weylchar
from macweyl.ring import QPolynomial, XPolynomial

SUITES = (
    "dimensions",
    "recurrences",
    "section4",
    "routes",
    "duality",
    "fusion",
    "limits",
    "walks",
)


def _data_text(name):
    return resources.files("macweyl").joinpath(name).read_text()


def load_errata():
    """Frozen errata table: {(identity, n): diff as {(x, q): coeff}}."""
    table = {}
    for entry in json.loads(_data_text("errata.json")):
        diff = {(t["x"], t["q"]): int(t["coeff"]) for t in entry["diff"]}
        table[(entry["identity"], entry["n"])] = diff
    return table


def load_conventions():
    return json.loads(_data_text("conventions.json"))


def _diff_terms(poly):
    out = []
    for x, c in poly.sorted_terms():
        for q, v in c.sorted_terms():
            out.append({"x": x, "q": q, "coeff": str(v)})
    return out


def _diff_key(poly):
    out = {}
    for x, c in poly.terms.items():
        for q, v in c.terms.items():
            out[(x, q)] = v
    return out


def _global_q_shift(lhs, rhs):
    # candidate k with lhs == q^k * rhs, from minimal exponents
    lmin = min((c.min_exp() for c in lhs.terms.values()), default=None)
    rmin = min((c.min_exp() for c in rhs.terms.values()), default=None)
    if lmin is None or rmin is None:
        return None
    return lmin - rmin


def _shift_q(poly, k):
    q_shift = QPolynomial.q_power(k)
    return poly.map_coeffs(lambda c: q_shift * c)


def compare(lhs, rhs):
    """(status, transform) for the transform lattice tried in order."""
    if lhs == rhs:
        return "EQUAL", {}
    mirrored = rhs.mirror_x()
    if lhs == mirrored:
        return "EQUAL_UP_TO", {"x_mirror": True}
    k = _global_q_shift(lhs, rhs)
    if k is not None and k != 0 and lhs == _shift_q(rhs, k):
        return "EQUAL_UP_TO", {"q_shift": k}
    k = _global_q_shift(lhs, mirrored)
    if k is not None and k != 0 and lhs == _shift_q(mirrored, k):
        return "EQUAL_UP_TO", {"x_mirror": True, "q_shift": k}
    return "MISMATCH", {}


def classify(identity, n, lhs, rhs, errata):
    status, transform = compare(lhs, rhs)
    entry = {"identity": identity, "n": n, "status": status, "transform": transform, "diff": []}
    if status == "MISMATCH":
        diff = lhs - rhs
        entry["diff"] = _diff_terms(diff)
        known = errata.get((identity, n))
        if known is not None and known == _diff_key(diff):
            entry["status"] = "KNOWN_ERRATUM"
    return entry


def _equal_entry(identity, n, ok, detail=None):
    return {
        "identity": identity,
        "n": n,
        "status": "EQUAL" if ok else "MISMATCH",
        "transform": detail or {},
        "diff": [],
    }


def suite_dimensions(max_n, errata):
    entries = []
    for n in range(0, min(max_n, 7) + 1):
        ok = len(weylchar.enumerate_basis("untwisted_neg", n)) == 3**n
        ok = ok and len(weylchar.enumerate_basis("twisted_neg", n)) == 3**n
        entries.append(_equal_entry("basis_count_negative_3^n", n, ok))
        if n >= 1:
            ok = len(weylchar.enumerate_basis("untwisted_pos", n)) == 3 ** (n - 1)
            ok = ok and len(weylchar.enumerate_basis("twisted_pos", n)) == 2 * 3 ** (n - 1)
            entries.append(_equal_entry("basis_count_positive", n, ok))
    for n in range(0, min(max_n, 10) + 1):
        ok = weylchar.ch_D(n).eval_at_ones() == 2**n
        ok = ok and len(weylchar.enumerate_basis("classical", n)) == 2**n
        entries.append(_equal_entry("classical_dimension_2^n", n, ok))
    return entries


def suite_recurrences(max_n, errata):
    bound = max(max_n, 8)
    ok_c = ok_d = True
    for total in range(bound + 1):
        for k22, k12, k11 in cform._triples(total):
            for r in (1, 2):
                if cform.c_rec(r, k22, k12, k11) != cform.c_closed(r, k22, k12, k11):
                    ok_c = False
                if cform.cdag_rec(r, k22, k12, k11) != cform.cdag_closed(r, k22, k12, k11):
                    ok_d = False
    return [
        _equal_entry("c_recurrence_equals_closed_form", bound, ok_c),
        _equal_entry("cdag_recurrence_equals_closed_form", bound, ok_d),
    ]


def verify_section4(n_values, errata=None):
    """Compare character formulas with the specialized E-polynomials.

    For each n: (a) untwisted character at q^2 against the dagger t=0
    polynomial; (b) twisted character against the plain t=0 polynomial;
    (c) the PBW specializations against the t=infinity polynomials of the
    opposite family.  Mismatches become report entries, never exceptions.
    """
    if errata is None:
        errata = load_errata()
    entries = []
    for n in n_values:
        if n == 0:
            continue
        entries.append(
            classify(
                "ch_W_vs_E_A2dagger_t0",
                n,
                weylchar.scale_q(weylchar.ch_W(n), 2),
                cform.E_spec("A2dagger", n, "t0"),
                errata,
            )
        )
        entries.append(
            classify(
                "ch_Wsigma_vs_E_A2_t0",
                n,
                weylchar.ch_W_sigma(n),
                cform.E_spec("A2", n, "t0"),
                errata,
            )
        )
        if n > 0:
            entries.append(
                classify(
                    "pbw_untwisted_vs_E_A2dagger_tinf",
                    n,
                    weylchar.pbw_character_specialized(n, twisted=False),
                    cform.E_spec("A2dagger", -n, "tinf"),
                    errata,
                )
            )
            entries.append(
                classify(
                    "pbw_twisted_vs_E_A2_tinf",
                    n,
                    weylchar.pbw_character_specialized(n, twisted=True),
                    cform.E_spec("A2", -n, "tinf"),
                    errata,
                )
            )
    return entries


def suite_section4(max_n, errata):
    ns = [n for n in range(-max_n, max_n + 1) if n != 0]
    return verify_section4(ns, errata)


def suite_routes(max_n, errata):
    entries = []
    for family in walks.FAMILIES:
        for n in [m for m in range(-max_n, max_n + 1) if m != 0]:
            for spec in ("t0", "tinf"):
                lhs = ramyip.specialize(family, n, spec)
                rhs = cform.E_spec(family, n, spec)
                entries.append(
                    classify("walkroute_vs_cform_%s_%s" % (family, spec), n, lhs, rhs, errata)
                )
    return entries


def suite_duality(max_n, errata):
    entries = []
    for n in range(0, max(max_n, 6) + 1):
        lhs = cform.E_spec("A2dagger", n + 1, "t0")
        rhs = cform.E_spec("A2dagger", -n, "tinf").x_shift(1)
        entries.append(classify("duality_A2dagger", n, lhs, rhs, errata))
        lhs = cform.E_spec("A2", n + 1, "tinf")
        rhs = cform.E_spec("A2", -n, "t0").x_shift(1)
        entries.append(classify("duality_A2", n, lhs, rhs, errata))
    return entries


_POINT_SETS = ([1, 2, 3, 4], [1, -2, 3, -4], [2, 3, 5, 7])
_POINT_SET_5 = (1, -2, 3, -4, 5)  # distinct squares, so the twisted oracle is cyclic


def suite_fusion(max_n, errata):
    entries = []
    top = min(max_n, 3)
    for n in range(1, top + 1):
        for pts in _POINT_SETS:
            lhs = fusion.fusion_character(n, pts[:n], twisted=False)
            entries.append(
                classify("fusion_vs_ch_W", n, lhs, weylchar.ch_W(-n), errata)
            )
            lhs = fusion.fusion_character(n, pts[:n], twisted=True)
            entries.append(
                classify("fusion_vs_ch_W_sigma", n, lhs, weylchar.ch_W_sigma(-n), errata)
            )
    if max_n >= 4:
        lhs = fusion.fusion_character(4, _POINT_SETS[0], twisted=False)
        entries.append(classify("fusion_vs_ch_W", 4, lhs, weylchar.ch_W(-4), errata))
    if max_n >= 5:
        lhs = fusion.fusion_character(5, _POINT_SET_5, twisted=False)
        entries.append(classify("fusion_vs_ch_W", 5, lhs, weylchar.ch_W(-5), errata))
        lhs = fusion.fusion_character(5, _POINT_SET_5, twisted=True)
        entries.append(
            classify("fusion_vs_ch_W_sigma", 5, lhs, weylchar.ch_W_sigma(-5), errata)
        )
    try:
        fusion.fusion_character(2, [1, -1], twisted=True)
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, False))
    except fusion.NotCyclic:
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, True))
    return entries


def suite_limits(max_n, errata):
    entries = []
    for kind, n, d in (
        ("untwisted", 6, 2),
        ("untwisted", 8, 3),
        ("twisted", 6, 2),
        ("twisted", 8, 3),
        ("classical_even", 6, 2),
        ("classical_even", 8, 3),
    ):
        xb = d + 2
        lhs = weylchar.approximant(kind, n, d, xb)
        rhs = weylchar.limit_char(kind, d, xb)
        entries.append(classify("limit_approximant_%s" % kind, n, lhs, rhs, errata))
    lhs = qcomb.wedge_lhs_truncated(12, 12)
    rhs = qcomb.euler_product_truncated("single_plus", 12, 12)
    entries.append(classify("wedge_identity", 12, lhs, rhs, errata))
    return entries


def suite_walks(max_n, errata):
    """Reports which ascent-statistic variant matches the exact route."""
    entries = []
    for n in range(1, max_n + 1):
        exact = ramyip.specialize("A2", -n, "tinf")
        for name, fn in (("literal", walks.legprime), ("shifted", walks.legprime_shifted)):
            hwords = (
                walks.to_hword(w, -1)
                for w in walks.qb_filter(walks.enumerate_walks(-n), "A2", "tinf")
            )
            stat = XPolynomial.from_pairs(
                (walks.x_weight(h), QPolynomial.q_power(fn(h))) for h in hwords
            )
            matches = stat == exact
            entries.append(
                {
                    "identity": "legprime_%s_matches_tinf_route" % name,
                    "n": n,
                    "status": "EQUAL" if matches == (name == "shifted") else "MISMATCH",
                    "transform": {"variant_matches": matches},
                    "diff": [],
                }
            )
    return entries


_SUITE_FN = {
    "dimensions": suite_dimensions,
    "recurrences": suite_recurrences,
    "section4": suite_section4,
    "routes": suite_routes,
    "duality": suite_duality,
    "fusion": suite_fusion,
    "limits": suite_limits,
    "walks": suite_walks,
}


def run_suites(suite, max_n, errata=None):
    """Run one suite or all of them; returns (entries, exit_code)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    if errata is None:
        errata = load_errata()
    names = SUITES if suite == "all" else (suite,)
    entries = []
    for name in names:
        if name not in _SUITE_FN:
            raise ValueError("unknown suite %r" % (name,))
        entries.extend(_SUITE_FN[name](max_n, errata))
    exit_code = 2 if any(e["status"] == "MISMATCH" for e in entries) else 0
    return entries, exit_code


# ---------------------------------------------------------------------------
# Build-time generators for the frozen data files.


def _outcome(lhs, rhs):
    """Conventions-table name of the transform compare(lhs, rhs) finds."""
    status, transform = compare(lhs, rhs)
    if status == "EQUAL":
        return "identity"
    if status == "EQUAL_UP_TO":
        return "x_mirror" if transform == {"x_mirror": True} else "q_shift"
    return "erratum"


def derive_conventions(max_n=3):
    """Which transform each comparison route needs, measured empirically."""
    table = {}
    for family in walks.FAMILIES:
        for spec in ("t0", "tinf"):
            for sign, ns in (("neg", range(-max_n, 0)), ("pos", range(1, max_n + 1))):
                outcomes = {
                    _outcome(ramyip.specialize(family, n, spec), cform.E_spec(family, n, spec))
                    for n in ns
                }
                table["routes:%s:%s:%s" % (family, sign, spec)] = sorted(outcomes)
    for twisted, label in ((False, "untwisted"), (True, "twisted")):
        family = "A2" if twisted else "A2dagger"
        outcomes = {
            _outcome(
                weylchar.pbw_character_specialized(n, twisted),
                cform.E_spec(family, -n, "tinf"),
            )
            for n in range(1, max_n + 1)
        }
        table["pbw:%s" % label] = sorted(outcomes)
    return table


def derive_errata(max_n=4):
    """Exact difference polynomials for the identities that genuinely fail."""
    entries = []
    for n in range(1, max_n + 1):
        lhs = weylchar.pbw_character_specialized(n, twisted=True)
        rhs = cform.E_spec("A2", -n, "tinf")
        if lhs != rhs:
            entries.append(
                {
                    "identity": "pbw_twisted_vs_E_A2_tinf",
                    "n": n,
                    "diff": _diff_terms(lhs - rhs),
                }
            )
        lhs = ramyip.specialize("A2dagger", n, "tinf")
        rhs = cform.E_spec("A2dagger", n, "tinf")
        if lhs != rhs:
            entries.append(
                {
                    "identity": "walkroute_vs_cform_A2dagger_tinf",
                    "n": n,
                    "diff": _diff_terms(lhs - rhs),
                }
            )
    return entries


def format_text_report(entries):
    lines = []
    errata_seen = []
    for e in entries:
        extra = ""
        if e["transform"]:
            extra = " " + json.dumps(e["transform"], sort_keys=True)
        if e["diff"]:
            extra += " diff=" + json.dumps(e["diff"])
        lines.append("%-45s n=%-3d %s%s" % (e["identity"], e["n"], e["status"], extra))
        if e["status"] == "KNOWN_ERRATUM":
            errata_seen.append(e)
    if errata_seen:
        lines.append("")
        lines.append("WARNING: %d known discrepancy(ies) reproduced:" % len(errata_seen))
        for e in errata_seen:
            lines.append(
                "  %s at n=%d differs by %s"
                % (e["identity"], e["n"], json.dumps(e["diff"]))
            )
    return "\n".join(lines)
