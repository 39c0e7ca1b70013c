import json

from macweyl import verify
from macweyl.ring import QPolynomial, XPolynomial


def qp(d):
    return QPolynomial(d)


def test_compare_transform_lattice():
    a = XPolynomial({-1: qp({0: 1}), 1: qp({2: 1})})
    assert verify.compare(a, a) == ("EQUAL", {})
    assert verify.compare(a, a.mirror_x()) == ("EQUAL_UP_TO", {"x_mirror": True})
    shifted = XPolynomial({-1: qp({3: 1}), 1: qp({5: 1})})
    assert verify.compare(shifted, a) == ("EQUAL_UP_TO", {"q_shift": 3})
    assert verify.compare(shifted, a.mirror_x()) == (
        "EQUAL_UP_TO",
        {"x_mirror": True, "q_shift": 3},
    )
    other = XPolynomial({0: qp({0: 5})})
    assert verify.compare(a, other)[0] == "MISMATCH"


def test_classify_uses_errata():
    lhs = XPolynomial({0: qp({0: 2})})
    rhs = XPolynomial({0: qp({0: 1})})
    errata = {("demo", 1): {(0, 0): 1}}
    entry = verify.classify("demo", 1, lhs, rhs, errata)
    assert entry["status"] == "KNOWN_ERRATUM"
    entry = verify.classify("demo", 2, lhs, rhs, errata)
    assert entry["status"] == "MISMATCH"


def test_frozen_conventions_are_fresh():
    assert verify.derive_conventions(3) == verify.load_conventions()


def test_frozen_errata_are_fresh():
    derived = {(e["identity"], e["n"]): e["diff"] for e in verify.derive_errata(4)}
    frozen = verify.load_errata()
    assert set(derived) == set(frozen)
    for key, diff in derived.items():
        assert {(t["x"], t["q"]): int(t["coeff"]) for t in diff} == frozen[key]


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


def test_walks_suite_reports_shifted_variant():
    entries, code = verify.run_suites("walks", 3)
    assert code == 0
    for e in entries:
        if e["identity"] == "legprime_shifted_matches_tinf_route":
            assert e["transform"] == {"variant_matches": True}
        if e["identity"] == "legprime_literal_matches_tinf_route":
            assert e["transform"] == {"variant_matches": False}


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
