import json

import pytest

from macweyl import cform, cli, ramyip, verify, weylchar
from macweyl.ring import SIZE_LIMITS, QPolynomial, XPolynomial

DAGGER, PBW = "walkroute_vs_cform_A2dagger_tinf", "pbw_twisted_vs_E_A2_tinf"


def qp(d):
    return QPolynomial(d)


def test_compare_transform_lattice():
    a = XPolynomial({-1: qp({0: 1}), 1: qp({2: 1})})
    for mirror in (False, True):
        assert verify.compare(a, a, mirror) == ("EQUAL", {})
    # The mirror counts only where the conventions table allows it.
    assert verify.compare(a, a.mirror_x(), True) == ("EQUAL_UP_TO", {"x_mirror": True})
    assert verify.compare(a, a.mirror_x(), False) == ("MISMATCH", {})
    # No q-shift is ever searched for.
    shifted = XPolynomial({-1: qp({3: 1}), 1: qp({5: 1})})
    for mirror in (False, True):
        assert verify.compare(shifted, a, mirror) == ("MISMATCH", {})
        assert verify.compare(shifted, a.mirror_x(), mirror) == ("MISMATCH", {})
    other = XPolynomial({0: qp({0: 5})})
    assert verify.compare(a, other, True)[0] == "MISMATCH"


def test_classify_uses_errata(monkeypatch):
    lhs = XPolynomial({0: qp({0: 2})})
    rhs = XPolynomial({0: qp({0: 1})})
    monkeypatch.setitem(verify.ERRATA_RULES, "demo_rule", lambda n, lhs, rhs: n == 1)
    errata = {"demo": "demo_rule"}
    entry = verify.classify("demo", 1, lhs, rhs, errata)
    assert entry["status"] == "KNOWN_ERRATUM"
    assert entry["diff"] == [{"x": 0, "q": 0, "coeff": "1"}]
    assert verify.classify("demo", 2, lhs, rhs, errata)["status"] == "MISMATCH"
    assert verify.classify("other", 1, lhs, rhs, errata)["status"] == "MISMATCH"


def _bump(poly, x, q=0, coeff=1):
    return poly + XPolynomial({x: qp({q: coeff})})


def _top_plus_one(poly):
    return _bump(poly, max(poly.terms))


def _sigma_antisymmetric(poly):
    # x^e - x^(1-e): keeps every pair sum under x^e -> x^(1-e)
    top = max(poly.terms)
    return _bump(_bump(poly, top), 1 - top, coeff=-1)


def _plus_q(poly):
    return _bump(poly, 0, 1)


def test_errata_rules_hold_at_every_n_and_reject_mutants():
    errata = verify.load_errata()

    def status(identity, n, lhs, rhs):
        return verify.classify(identity, n, lhs, rhs, errata)["status"]

    for n in range(1, SIZE_LIMITS["specialize"] + 1):
        walk = ramyip.specialize("A2dagger", n, "tinf")
        printed = cform.E_spec("A2dagger", n, "tinf")
        assert status(DAGGER, n, walk, printed) == "KNOWN_ERRATUM"
        assert status(DAGGER, n, walk, _top_plus_one(printed)) == "MISMATCH"
        assert status(DAGGER, n, walk, _sigma_antisymmetric(printed)) == "MISMATCH"
    for n in range(1, 9):
        pbw = weylchar.pbw_character_specialized(n, twisted=True)
        printed = cform.E_spec("A2", -n, "tinf")
        assert status(PBW, n, pbw, printed) == "KNOWN_ERRATUM"
        assert status(PBW, n, _plus_q(pbw), printed) == "MISMATCH"
        assert status(PBW, n, pbw, _plus_q(printed)) == "MISMATCH"
    assert verify.run_suites("section4", 6)[1] == 0
    assert verify.run_suites("routes", 6)[1] == 0


def _dagger_tinf_pos(family, n, spec):
    return (family, spec) == ("A2dagger", "tinf") and n > 0


def _a2_tinf_neg(family, n, spec):
    return (family, spec) == ("A2", "tinf") and n < 0


@pytest.mark.parametrize(
    "suite, module, name, hit, change",
    [
        ("routes", cform, "E_spec", _dagger_tinf_pos, _top_plus_one),
        ("routes", cform, "E_spec", _dagger_tinf_pos, _sigma_antisymmetric),
        ("section4", weylchar, "pbw_character_specialized", lambda n, twisted: twisted, _plus_q),
        ("section4", cform, "E_spec", _a2_tinf_neg, _plus_q),
    ],
)
def test_mutated_printed_identity_exits_two(monkeypatch, suite, module, name, hit, change):
    original = getattr(module, name)

    def mutated(*args, **kwargs):
        poly = original(*args, **kwargs)
        return change(poly) if hit(*args, **kwargs) else poly

    monkeypatch.setattr(module, name, mutated)
    entries, code = verify.run_suites(suite, 3)
    assert code == 2
    identity = DAGGER if suite == "routes" else PBW
    mutated_entries = [e for e in entries if e["identity"] == identity and e["n"] > 0]
    assert {e["status"] for e in mutated_entries} == {"MISMATCH"}


def _assert_recurrences_mismatch_only(family):
    # The suite exits 2, with MISMATCH on the mutated family's identity alone.
    entries, code = verify.run_suites("recurrences", 8)
    assert code == 2
    mismatched = {"A2": "c_recurrence_equals_closed_form",
                  "A2dagger": "cdag_recurrence_equals_closed_form"}[family]
    assert {e["identity"]: e["status"] for e in entries} == {
        "c_recurrence_equals_closed_form": "EQUAL",
        "cdag_recurrence_equals_closed_form": "EQUAL", mismatched: "MISMATCH"}


def _off_by_one(rule, term):
    # One (source r, a, d) term of a recurrence rule with its q-power q^(a t + d)
    # one higher.
    source, a, d = rule[term]
    return rule[:term] + ((source, a, d + 1),) + rule[term + 1:]


@pytest.mark.parametrize("family, r, term", [("A2", 1, 0), ("A2", 2, 1), ("A2dagger", 1, 1),
                                             ("A2dagger", 2, 2)])
def test_recurrence_q_power_off_by_one_mismatches_its_own_table(monkeypatch, family, r, term):
    rules = cform._RECURRENCES[family]
    monkeypatch.setitem(rules, r, _off_by_one(rules[r], term))
    _assert_recurrences_mismatch_only(family)


@pytest.mark.parametrize("family", ["A2", "A2dagger"])
def test_closed_form_shift_off_by_one_mismatches_its_own_table(monkeypatch, family):
    shift = cform._shift
    monkeypatch.setattr(cform, "_shift", lambda fam, r, k22, kmid: (
        shift(fam, r, k22, kmid) + (fam == family and (r, k22, kmid) == (2, 1, 1))))
    _assert_recurrences_mismatch_only(family)


def test_recurrences_suite_exits_zero_at_its_limit():
    entries, code = verify.run_suites("recurrences", SIZE_LIMITS["recurrences"])
    assert code == 0
    assert {e["status"] for e in entries} == {"EQUAL"}


def _times_q(poly):
    return poly.map_coeffs(lambda c: QPolynomial.q_power(1) * c)


@pytest.mark.parametrize("change", [_times_q, XPolynomial.mirror_x])
def test_changed_t0_closed_form_exits_two(monkeypatch, capsys, change):
    # Neither a q-shift nor an x-mirror of a side whose convention is the
    # identity may pass.
    original = cform.E_spec

    def mutated(family, n, spec):
        poly = original(family, n, spec)
        return change(poly) if n > 0 and spec == "t0" else poly

    monkeypatch.setattr(cform, "E_spec", mutated)
    assert cli.run(["verify", "--suite", "all", "--max-n", "4"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_routes_read_the_conventions_table(monkeypatch):
    conventions = dict(verify.load_conventions(), **{"routes:A2:neg:tinf": ["identity"]})
    monkeypatch.setattr(verify, "load_conventions", lambda: conventions)
    entries, code = verify.run_suites("routes", 2)
    assert code == 2
    mismatched = {(e["identity"], e["n"]) for e in entries if e["status"] == "MISMATCH"}
    assert mismatched == {("walkroute_vs_cform_A2_tinf", -1), ("walkroute_vs_cform_A2_tinf", -2)}


def test_frozen_conventions_are_fresh():
    assert verify.derive_conventions(3) == verify.load_conventions()


def test_frozen_errata_are_fresh():
    assert verify.derive_errata(4) == json.loads(verify._data_text("errata.json"))
    assert verify.load_errata() == {PBW: "pbw_degree_doubled", DAGGER: "c1_dagger_reflected"}


def test_derived_errata_name_identities_they_were_not_told_about(monkeypatch):
    # E_spec("A2", n, "t0") gains one term for n > 0.  Two identities read
    # it: section 4's twisted character and the A2 t = 0 walk route.
    extra = XPolynomial({40: qp({0: 1})})
    original = cform.E_spec

    def mutated(family, n, spec):
        poly = original(family, n, spec)
        return poly + extra if (family, spec) == ("A2", "t0") and n > 0 else poly

    monkeypatch.setattr(cform, "E_spec", mutated)
    monkeypatch.setitem(verify.ERRATA_RULES, "demo_rule", lambda n, lhs, rhs: rhs - lhs == extra)
    assert verify.derive_errata(4) == [
        {"identity": "ch_Wsigma_vs_E_A2_t0", "rule": "demo_rule"},
        {"identity": PBW, "rule": "pbw_degree_doubled"},
        {"identity": "walkroute_vs_cform_A2_t0", "rule": "demo_rule"},
        {"identity": DAGGER, "rule": "c1_dagger_reflected"},
    ]


def test_conventions_content():
    conv = verify.load_conventions()
    assert conv["routes:A2:neg:t0"] == ["identity"]
    assert conv["routes:A2:neg:tinf"] == ["x_mirror"]
    assert conv["routes:A2dagger:pos:tinf"] == ["erratum"]
    assert conv["pbw:untwisted"] == ["x_mirror"]
    assert conv["pbw:twisted"] == ["erratum"]


def test_run_all_suites_exit_zero():
    entries, code = verify.run_suites("all", 3)
    assert code == 0
    statuses = {e["status"] for e in entries}
    assert statuses <= {"EQUAL", "EQUAL_UP_TO", "KNOWN_ERRATUM"}


def test_suite_bounds_are_named_not_matched(monkeypatch):
    # A limit keyed like a suite does not bound that suite: only
    # verify._SUITES says which limit bounds which suite.
    monkeypatch.setitem(SIZE_LIMITS, "limits", 1)
    assert verify.run_suites("all", 4)[1] == 0


def test_dimensions_suite_checks_every_n_asked():
    top = SIZE_LIMITS["basis"]
    entries, code = verify.run_suites("dimensions", top)
    assert code == 0 and {e["status"] for e in entries} == {"EQUAL"}
    assert {e["identity"] for e in entries if e["n"] == top} == {
        "basis_count_negative_3^n", "basis_count_positive", "classical_dimension_2^n"}
    assert verify.run_suites("dimensions", 7)[0] == [e for e in entries if e["n"] <= 7]


def test_walks_suite_reports_shifted_variant():
    entries, code = verify.run_suites("walks", 12)
    assert code == 0 and {e["status"] for e in entries} == {"EQUAL"}
    assert [(e["identity"], e["n"], e["transform"]) for e in entries] == [
        ("legprime_%s_matches_tinf_route" % name, n, {"variant_matches": name == "shifted"})
        for n in range(1, 13) for name in ("literal", "shifted")]


def test_text_report_mentions_errata():
    entries, _ = verify.run_suites("section4", 1)
    text = verify.format_text_report(entries)
    assert "KNOWN_ERRATUM" in text
    assert "WARNING" in text


def test_entries_follow_schema():
    entries, _ = verify.run_suites("section4", 2)
    for e in entries:
        assert set(e) == {"identity", "n", "status", "transform", "diff"}
        json.dumps(e)


def test_fusion_suite_reaches_n5():
    entries, code = verify.run_suites("fusion", 5)
    assert code == 0
    top = [(e["identity"], e["status"]) for e in entries if e["n"] == 5]
    assert top == [("fusion_vs_ch_W", "EQUAL"), ("fusion_vs_ch_W_sigma", "EQUAL")]
    four, _ = verify.run_suites("fusion", 4)
    assert [e for e in entries if e["n"] != 5] == four


def test_fusion_suite_adds_n7_at_max_n_7(monkeypatch):
    # n >= 6 is answered by the closed form (the oracle's own n = 6 and n = 7
    # tests are in test_fusion.py, and CI runs both families at n = 7), smaller
    # n by the oracle.
    calls, real = [], verify.fusion.fusion_character

    def recording(n, points, twisted=False):
        calls.append((n, tuple(points), twisted))
        if n < 6:
            return real(n, points, twisted)
        return weylchar.ch_W_sigma(-n) if twisted else weylchar.ch_W(-n)

    monkeypatch.setattr(verify.fusion, "fusion_character", recording)
    entries, code = verify.run_suites("fusion", 7)
    assert code == 0
    for n in (6, 7):
        top = [(e["identity"], e["status"]) for e in entries if e["n"] == n]
        assert top == [("fusion_vs_ch_W", "EQUAL"), ("fusion_vs_ch_W_sigma", "EQUAL")]
        ((_, points, _),) = [case for case in verify._FUSION_CASES if case[0] == n]
        assert [c for c in calls if c[0] == n] == [(n, points, False), (n, points, True)]
        assert len({p * p for p in points}) == n
    for max_n in (5, 6):
        calls.clear()
        verify.run_suites("fusion", max_n)
        assert max(c[0] for c in calls) == max_n
