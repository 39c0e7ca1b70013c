"""Cross-verification harness.

Every suite compares two independently computed polynomials and classifies
the outcome:

* EQUAL          -- identical, no transform.
* EQUAL_UP_TO    -- identical after the x -> x^-1 mirror, where the
                    conventions table names it; the transform is recorded.
* KNOWN_ERRATUM  -- an errata rule explains the difference exactly.
* MISMATCH       -- anything else.

The recurrences suite compares each coefficient-table entry by its
recurrence with its closed form, as one packed integer a side
(suite_recurrences).
The comparison suites (section4, routes, duality, fusion, limits) are
generators of records (identity, n, conventions key or None, lhs, rhs).  The
errata table (which rule explains each printed identity that fails) and the
conventions table (which transform each key needs) ship as JSON files next
to this module; derive_conventions()/derive_errata() read them off the same
records and they were then frozen.  The conventions table is the only
source of a transform: the routes records carry
routes:<family>:<neg|pos>:<spec>, the section-4 PBW records pbw:untwisted /
pbw:twisted, and every other record compares exactly.
"""

import json
from importlib import resources

from macweyl import cform, fusion, qcomb, ramyip, walks, weylchar
from macweyl.ring import SIZE_LIMITS, XPolynomial, check_size, packed_width


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
    for (w, t, p), count in weylchar.pbw_counts(n, True).items():
        for terms, x, e in ((printed, w, t + p), (doubled, -w, t + 2 * p)):
            by_q = terms.setdefault(x, {})
            by_q[e] = by_q.get(e, 0) + count
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


# ---------------------------------------------------------------------------
# Comparison records.  Each generator below yields
# (identity, n, conventions key or None, lhs, rhs), and every identity's two
# sides are written only there: the suites classify these records, and the
# frozen tables are derived from them.


def _section4_pairs(n_values):
    """(a) untwisted character at q^2 against the dagger t=0 polynomial;
    (b) twisted character against the plain t=0 polynomial; (c) for n > 0,
    the PBW specializations against the t=infinity polynomials of the
    opposite family."""
    for n in n_values:
        if n == 0:
            continue
        yield ("ch_W_vs_E_A2dagger_t0", n, None,
               weylchar.scale_q(weylchar.ch_W(n), 2), cform.E_spec("A2dagger", n, "t0"))
        yield ("ch_Wsigma_vs_E_A2_t0", n, None,
               weylchar.ch_W_sigma(n), cform.E_spec("A2", n, "t0"))
        if n > 0:
            yield ("pbw_untwisted_vs_E_A2dagger_tinf", n, "pbw:untwisted",
                   weylchar.pbw_character_specialized(n, twisted=False),
                   cform.E_spec("A2dagger", -n, "tinf"))
            yield ("pbw_twisted_vs_E_A2_tinf", n, "pbw:twisted",
                   weylchar.pbw_character_specialized(n, twisted=True),
                   cform.E_spec("A2", -n, "tinf"))


def _routes_pairs(max_n):
    for family in walks.FAMILIES:
        for n in [m for m in range(-max_n, max_n + 1) if m != 0]:
            for spec in ("t0", "tinf"):
                yield ("walkroute_vs_cform_%s_%s" % (family, spec), n,
                       "routes:%s:%s:%s" % (family, "neg" if n < 0 else "pos", spec),
                       ramyip.specialize(family, n, spec), cform.E_spec(family, n, spec))


def _duality_pairs(max_n):
    for n in range(0, max(max_n, 6) + 1):
        yield ("duality_A2dagger", n, None, cform.E_spec("A2dagger", n + 1, "t0"),
               cform.E_spec("A2dagger", -n, "tinf").x_shift(1))
        yield ("duality_A2", n, None, cform.E_spec("A2", n + 1, "tinf"),
               cform.E_spec("A2", -n, "t0").x_shift(1))


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
    (7, (1, -2, 3, -4, 5, -6, 7), (False, True)),
]


def _fusion_pairs(max_n):
    for n, points, twisted_values in _FUSION_CASES:
        if n > max_n:
            break
        for twisted in twisted_values:
            lhs = fusion.fusion_character(n, points, twisted)
            if twisted:
                yield "fusion_vs_ch_W_sigma", n, None, lhs, weylchar.ch_W_sigma(-n)
            else:
                yield "fusion_vs_ch_W", n, None, lhs, weylchar.ch_W(-n)


def _limits_pairs(max_n):
    for kind in ("untwisted", "twisted", "classical_even"):
        for n, d in ((6, 2), (8, 3)):
            yield ("limit_approximant_%s" % kind, n, None,
                   weylchar.approximant(kind, n, d, d + 2), weylchar.limit_char(kind, d, d + 2))
    yield ("wedge_identity", 12, None, qcomb.wedge_lhs_truncated(12, 12),
           qcomb.euler_product_truncated("single_plus", 12, 12))


def _comparison_pairs(max_n):
    """Every record of the comparison suites at max_n."""
    yield from _section4_pairs(range(-max_n, max_n + 1))
    for pairs in (_routes_pairs, _duality_pairs, _fusion_pairs, _limits_pairs):
        yield from pairs(max_n)


def _classify_pairs(pairs, errata, conventions):
    """Classify each record, with the x-mirror allowed only where its
    conventions entry names it."""
    return [classify(identity, n, lhs, rhs, errata,
                     key is not None and "x_mirror" in conventions[key])
            for identity, n, key, lhs, rhs in pairs]


def _classified(pairs):
    """The suite that classifies the records pairs(max_n)."""
    return lambda max_n, errata, conventions: _classify_pairs(pairs(max_n), errata, conventions)


# ---------------------------------------------------------------------------
# Suites: each takes (max_n, errata, conventions) and returns its entries.


def suite_dimensions(max_n, errata, conventions):
    entries = []
    for n in range(0, max_n + 1):
        ok = weylchar.basis_count("untwisted_neg", n) == 3**n
        ok = ok and weylchar.basis_count("twisted_neg", n) == 3**n
        entries.append(_equal_entry("basis_count_negative_3^n", n, ok))
        if n >= 1:
            ok = weylchar.basis_count("untwisted_pos", n) == 3 ** (n - 1)
            ok = ok and weylchar.basis_count("twisted_pos", n) == 2 * 3 ** (n - 1)
            entries.append(_equal_entry("basis_count_positive", n, ok))
    for n in range(0, max_n + 1):
        ok = weylchar.ch_D(n).eval_at_ones() == 2**n
        ok = ok and weylchar.basis_count("classical", n) == 2**n
        entries.append(_equal_entry("classical_dimension_2^n", n, ok))
    return entries


def suite_recurrences(max_n, errata, conventions):
    """Both tables of each family to index sum max(max_n, 8), recurrence
    against closed form, each entry compared as one integer at q = 2^(8 w):
    cform.rec_layers against the trinomial of the closed form, packed in
    Q = q^2 at 2 w bytes a digit (the q-packing at w bytes with zero odd
    digits), shifted by its q-power.

    This is exact, with 3^bound < 2^(8 w - 1).  No digit of rec_layers
    carries (the cform docstring), and a digit of the closed-form side is
    one coefficient of a trinomial of total t <= bound, at most 3^t.  So
    both integers have the coefficients as their digits, and they are equal
    exactly when the polynomials are."""
    bound = max(max_n, 8)
    width = packed_width(3**bound)
    bits = 8 * width
    ok = dict.fromkeys(walks.FAMILIES, True)
    layers = zip(*(cform.rec_layers(family, bound, width) for family in walks.FAMILIES))
    for total, family_layers in enumerate(layers):
        table = cform._trinomials(total, 2 * width)
        for family, layer in zip(walks.FAMILIES, family_layers):
            ok[family] = ok[family] and all(
                rows[k22][kmid] == entry << bits * cform._shift(family, r, k22, kmid)
                for r, rows in layer.items()
                for k22, row in enumerate(table) for kmid, entry in enumerate(row))
    return [
        _equal_entry("c_recurrence_equals_closed_form", bound, ok["A2"]),
        _equal_entry("cdag_recurrence_equals_closed_form", bound, ok["A2dagger"]),
    ]


def suite_fusion(max_n, errata, conventions):
    entries = _classify_pairs(_fusion_pairs(max_n), errata, conventions)
    try:
        fusion.fusion_character(2, [1, -1], twisted=True)
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, False))
    except fusion.NotCyclic:
        entries.append(_equal_entry("fusion_equal_squares_rejected", 2, True))
    return entries


def suite_walks(max_n, errata, conventions):
    """Reports which ascent-statistic variant matches the exact route: the
    h-word dynamic program walks.legprime_counts against the A2 t=infinity
    walk specialization."""
    cut = walks.CUT_SIGN[("A2", "tinf")]
    entries = []
    for n in range(1, max_n + 1):
        exact = ramyip.specialize("A2", -n, "tinf")
        for shift, name in enumerate(("literal", "shifted")):
            matches = XPolynomial.from_q_terms(walks.legprime_counts(-n, cut, shift)) == exact
            entries.append(_equal_entry("legprime_%s_matches_tinf_route" % name, n,
                                        matches == (name == "shifted"),
                                        {"variant_matches": matches}))
    return entries


# Suite name -> (function, the SIZE_LIMITS key that bounds its max_n, or None
# for a suite that reads no limit).
_SUITES = {
    "dimensions": (suite_dimensions, "counts"),
    "recurrences": (suite_recurrences, "recurrences"),
    "section4": (_classified(lambda max_n: _section4_pairs(range(-max_n, max_n + 1))), "counts"),
    "routes": (_classified(_routes_pairs), "specialize"),
    "duality": (_classified(_duality_pairs), "duality"),
    "fusion": (suite_fusion, None),
    "limits": (_classified(_limits_pairs), None),
    "walks": (suite_walks, "specialize"),
}
SUITES = tuple(_SUITES)


def run_suites(suite, max_n):
    """Run one suite or all of them; returns (entries, exit_code).  The
    smallest limit of the suites to run, which bounds them all, is checked
    before any suite runs."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name not in _SUITES:
            raise ValueError("unknown suite %r" % (name,))
    limits = [_SUITES[name][1] for name in names if _SUITES[name][1] is not None]
    if limits:
        check_size(min(limits, key=SIZE_LIMITS.get), max_n)
    errata = load_errata()
    conventions = load_conventions()
    entries = []
    for name in names:
        entries.extend(_SUITES[name][0](max_n, errata, conventions))
    exit_code = 2 if any(e["status"] == "MISMATCH" for e in entries) else 0
    return entries, exit_code


# ---------------------------------------------------------------------------
# Build-time generators for the frozen data files, read off the same
# comparison records the suites classify.


def _outcome(lhs, rhs):
    """Conventions-table name of the transform that makes lhs equal rhs."""
    status, _ = compare(lhs, rhs, True)
    return {"EQUAL": "identity", "EQUAL_UP_TO": "x_mirror", "MISMATCH": "erratum"}[status]


def derive_conventions(max_n=3):
    """Which transform each conventions key needs, measured empirically."""
    table = {}
    for _, _, key, lhs, rhs in _comparison_pairs(max_n):
        if key is not None:
            table.setdefault(key, set()).add(_outcome(lhs, rhs))
    return {key: sorted(outcomes) for key, outcomes in sorted(table.items())}


def derive_errata(max_n=4):
    """Each identity that fails at some n of the records at max_n, sorted,
    with the first rule of ERRATA_RULES that explains all its failures."""
    fails = {}
    for identity, n, _, lhs, rhs in _comparison_pairs(max_n):
        if _outcome(lhs, rhs) == "erratum":
            fails.setdefault(identity, []).append((n, lhs, rhs))
    entries = []
    for identity, cases in sorted(fails.items()):
        rules = [name for name, rule in ERRATA_RULES.items() if all(rule(*c) for c in cases)]
        if rules:
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
