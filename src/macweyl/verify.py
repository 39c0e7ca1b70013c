"""Cross-verification harness.

Every suite compares two independently computed polynomials and classifies
the outcome:

* EQUAL          -- identical, no transform.
* EQUAL_UP_TO    -- identical after the x -> x^-1 mirror, where the
                    conventions table names it; the transform is recorded.
* KNOWN_ERRATUM  -- an errata rule explains the difference exactly.
* MISMATCH       -- anything else.

The errata table (which rule explains each printed identity that fails) and
the conventions table (which transform each identity route needs) ship as
JSON files next to this module; both were generated by
derive_conventions()/derive_errata() at build time and then frozen.  The
conventions table is the only source of a transform: the routes suite reads
routes:<family>:<neg|pos>:<spec>, the section-4 PBW comparisons read
pbw:untwisted / pbw:twisted, and every other identity compares exactly.
"""

import json
from importlib import resources

from macweyl import cform, fusion, qcomb, ramyip, walks, weylchar
from macweyl.ring import SIZE_LIMITS, QPolynomial, XPolynomial, check_size


def _data_text(name):
    return resources.files("macweyl").joinpath(name).read_text()


def load_errata():
    """Frozen errata table: {identity: name of its rule in ERRATA_RULES}."""
    return {e["identity"]: e["rule"] for e in json.loads(_data_text("errata.json"))}


def load_conventions():
    return json.loads(_data_text("conventions.json"))


def _diff_terms(poly):
    out = []
    for x, c in poly.sorted_terms():
        for q, v in c.sorted_terms():
            out.append({"x": x, "q": q, "coeff": str(v)})
    return out


def compare(lhs, rhs, mirror):
    """(status, transform): lhs == rhs, or lhs == rhs.mirror_x() when the
    conventions table allows the mirror for this identity."""
    if lhs == rhs:
        return "EQUAL", {}
    if mirror and lhs == rhs.mirror_x():
        return "EQUAL_UP_TO", {"x_mirror": True}
    return "MISMATCH", {}


def pbw_degree_doubled(n, lhs, rhs):
    """lhs grades the twisted PBW basis of weight -n by q^(t+p) x^w, as
    printed, and rhs grades the same basis by q^(t+2p) x^-w."""
    printed, doubled = {}, {}
    for w, t, p in weylchar.pbw_character(n, True):
        for terms, x, e in ((printed, w, t + p), (doubled, -w, t + 2 * p)):
            by_q = terms.setdefault(x, {})
            by_q[e] = by_q.get(e, 0) + 1
    return (lhs, rhs) == (XPolynomial.from_q_terms(printed), XPolynomial.from_q_terms(doubled))


def c1_dagger_reflected(n, lhs, rhs):
    """rhs - lhs = C1 - sigma C1, sigma: x^e -> x^(1-e), C1 the c1-dagger
    terms that the printed formula puts at x^(k11-k22+1)."""
    c1 = XPolynomial.from_pairs(
        (k11 - k22 + 1, cform.cdag_closed(1, k22, k21, k11))
        for k22, k21, k11 in cform._triples(n - 1))
    return n > 0 and rhs - lhs == c1 - c1.mirror_x().x_shift(1)


ERRATA_RULES = {"pbw_degree_doubled": pbw_degree_doubled,
                "c1_dagger_reflected": c1_dagger_reflected}


def classify(identity, n, lhs, rhs, errata, mirror=False):
    status, transform = compare(lhs, rhs, mirror)
    entry = {"identity": identity, "n": n, "status": status, "transform": transform, "diff": []}
    if status == "MISMATCH":
        entry["diff"] = _diff_terms(lhs - rhs)
        rule = ERRATA_RULES.get(errata.get(identity))
        if rule is not None and rule(n, lhs, rhs):
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


def suite_dimensions(max_n, errata, conventions):
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


def suite_recurrences(max_n, errata, conventions):
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


def verify_section4(n_values, errata=None, conventions=None):
    """Compare character formulas with the specialized E-polynomials.

    For each n: (a) untwisted character at q^2 against the dagger t=0
    polynomial; (b) twisted character against the plain t=0 polynomial;
    (c) the PBW specializations against the t=infinity polynomials of the
    opposite family, mirrored in x where the conventions table says so.
    Mismatches become report entries, never exceptions.
    """
    if errata is None:
        errata = load_errata()
    if conventions is None:
        conventions = load_conventions()
    entries = []
    for n in n_values:
        if n == 0:
            continue
        pairs = [
            ("ch_W_vs_E_A2dagger_t0",
             weylchar.scale_q(weylchar.ch_W(n), 2), cform.E_spec("A2dagger", n, "t0"), False),
            ("ch_Wsigma_vs_E_A2_t0", weylchar.ch_W_sigma(n), cform.E_spec("A2", n, "t0"), False),
        ]
        if n > 0:
            pairs += [
                ("pbw_untwisted_vs_E_A2dagger_tinf",
                 weylchar.pbw_character_specialized(n, twisted=False),
                 cform.E_spec("A2dagger", -n, "tinf"),
                 "x_mirror" in conventions["pbw:untwisted"]),
                ("pbw_twisted_vs_E_A2_tinf",
                 weylchar.pbw_character_specialized(n, twisted=True),
                 cform.E_spec("A2", -n, "tinf"),
                 "x_mirror" in conventions["pbw:twisted"]),
            ]
        entries += [classify(identity, n, lhs, rhs, errata, mirror)
                    for identity, lhs, rhs, mirror in pairs]
    return entries


def suite_section4(max_n, errata, conventions):
    return verify_section4(range(-max_n, max_n + 1), errata, conventions)


def suite_routes(max_n, errata, conventions):
    entries = []
    for family in walks.FAMILIES:
        for n in [m for m in range(-max_n, max_n + 1) if m != 0]:
            for spec in ("t0", "tinf"):
                lhs = ramyip.specialize(family, n, spec)
                rhs = cform.E_spec(family, n, spec)
                key = "routes:%s:%s:%s" % (family, "neg" if n < 0 else "pos", spec)
                entries.append(classify("walkroute_vs_cform_%s_%s" % (family, spec), n, lhs, rhs,
                                        errata, "x_mirror" in conventions[key]))
    return entries


def suite_duality(max_n, errata, conventions):
    entries = []
    for n in range(0, max(max_n, 6) + 1):
        lhs = cform.E_spec("A2dagger", n + 1, "t0")
        rhs = cform.E_spec("A2dagger", -n, "tinf").x_shift(1)
        entries.append(classify("duality_A2dagger", n, lhs, rhs, errata))
        lhs = cform.E_spec("A2", n + 1, "tinf")
        rhs = cform.E_spec("A2", -n, "t0").x_shift(1)
        entries.append(classify("duality_A2", n, lhs, rhs, errata))
    return entries


# (n, points, twisted values), in report order.  Twisted points have
# distinct squares, so the twisted oracle is cyclic.
_FUSION_CASES = [
    (n, points[:n], (False, True))
    for n in (1, 2, 3)
    for points in ((1, 2, 3, 4), (1, -2, 3, -4), (2, 3, 5, 7))
] + [
    (4, (1, 2, 3, 4), (False,)),
    (5, (1, -2, 3, -4, 5), (False, True)),
    (6, (1, -2, 3, -4, 5, -6), (False, True)),
]


def suite_fusion(max_n, errata, conventions):
    entries = []
    for n, points, twisted_values in _FUSION_CASES:
        if n > max_n:
            break
        for twisted in twisted_values:
            lhs = fusion.fusion_character(n, points, twisted)
            if twisted:
                identity, rhs = "fusion_vs_ch_W_sigma", weylchar.ch_W_sigma(-n)
            else:
                identity, rhs = "fusion_vs_ch_W", weylchar.ch_W(-n)
            entries.append(classify(identity, n, lhs, rhs, errata))
    try:
        fusion.fusion_character(2, [1, -1], twisted=True)
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, False))
    except fusion.NotCyclic:
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, True))
    return entries


def suite_limits(max_n, errata, conventions):
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


def suite_walks(max_n, errata, conventions):
    """Reports which ascent-statistic variant matches the exact route."""
    entries = []
    for n in range(1, max_n + 1):
        exact = ramyip.specialize("A2", -n, "tinf")
        hwords = [walks.to_hword(w, -1)
                  for w in walks.qb_filter(walks.enumerate_walks(-n), "A2", "tinf")]
        for name, fn in (("literal", walks.legprime), ("shifted", walks.legprime_shifted)):
            stat = XPolynomial.from_pairs(
                (walks.x_weight(h), QPolynomial.q_power(fn(h))) for h in hwords
            )
            matches = stat == exact
            entries.append(_equal_entry("legprime_%s_matches_tinf_route" % name, n,
                                        matches == (name == "shifted"),
                                        {"variant_matches": matches}))
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
SUITES = tuple(_SUITE_FN)


def run_suites(suite, max_n, errata=None):
    """Run one suite or all of them; returns (entries, exit_code)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name not in _SUITE_FN:
            raise ValueError("unknown suite %r" % (name,))
        # A suite named in SIZE_LIMITS is bounded there, checked before any
        # suite runs.
        if name in SIZE_LIMITS:
            check_size(name, max_n)
    # So is section4, by the basis enumeration of its PBW side.
    if "section4" in names:
        check_size("basis", max_n)
    if errata is None:
        errata = load_errata()
    conventions = load_conventions()
    entries = []
    for name in names:
        entries.extend(_SUITE_FN[name](max_n, errata, conventions))
    exit_code = 2 if any(e["status"] == "MISMATCH" for e in entries) else 0
    return entries, exit_code


# ---------------------------------------------------------------------------
# Build-time generators for the frozen data files.


def _outcome(lhs, rhs):
    """Conventions-table name of the transform that makes lhs equal rhs."""
    status, _ = compare(lhs, rhs, True)
    return {"EQUAL": "identity", "EQUAL_UP_TO": "x_mirror", "MISMATCH": "erratum"}[status]


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
    """For each printed identity that fails at some 0 < n <= max_n, the
    rule of ERRATA_RULES that explains it at every such n."""
    printed = {
        "pbw_twisted_vs_E_A2_tinf": lambda n: (
            weylchar.pbw_character_specialized(n, twisted=True), cform.E_spec("A2", -n, "tinf")),
        "walkroute_vs_cform_A2dagger_tinf": lambda n: (
            ramyip.specialize("A2dagger", n, "tinf"), cform.E_spec("A2dagger", n, "tinf")),
    }
    entries = []
    for identity, sides in printed.items():
        fails = [(n, *sides(n)) for n in range(1, max_n + 1)]
        fails = [f for f in fails if f[1] != f[2]]
        rules = [name for name, rule in ERRATA_RULES.items() if all(rule(*f) for f in fails)]
        if fails and rules:
            entries.append({"identity": identity, "rule": rules[0]})
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
