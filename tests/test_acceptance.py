"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  All comparisons are exact (integer / polynomial equality); the only
tolerances are the stated runtime budgets."""

import json
import time

from macweyl import cform, cli, fusion, qcomb, ramyip, verify, weylchar


def report(number, description, ok):
    print("ACCEPTANCE %2d: %s -- %s" % (number, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (number, description)


def test_criterion_1_dimensions():
    t0 = time.time()
    ok = True
    for n in range(8):
        ok = ok and len(weylchar.enumerate_basis("untwisted_neg", n)) == 3**n
        ok = ok and len(weylchar.enumerate_basis("twisted_neg", n)) == 3**n
    for n in range(1, 8):
        ok = ok and len(weylchar.enumerate_basis("untwisted_pos", n)) == 3 ** (n - 1)
        ok = ok and len(weylchar.enumerate_basis("twisted_pos", n)) == 2 * 3 ** (n - 1)
    for n in range(1, 5):
        ok = ok and fusion.fusion_character(n, [1, 2, 3, 4][:n]).eval_at_ones() == 3**n
    for n in range(1, 4):
        ok = ok and fusion.fusion_character(n, [1, 2, 3][:n], twisted=True).eval_at_ones() == 3**n
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(1, "dimension theorems (3^n counts, fusion dims) in %.1fs" % elapsed, ok)


def test_criterion_2_recurrences():
    count = 0
    ok = True
    for total in range(9):
        for k22 in range(total + 1):
            for k12 in range(total - k22 + 1):
                k11 = total - k22 - k12
                count += 1
                for r in (1, 2):
                    ok = ok and cform.c_rec(r, k22, k12, k11) == cform.c_closed(r, k22, k12, k11)
                    ok = ok and cform.cdag_rec(r, k22, k12, k11) == cform.cdag_closed(r, k22, k12, k11)
    ok = ok and count == 165
    report(2, "recurrence = closed form on %d triples x 2 x 2" % count, ok)


def test_criterion_3_characters_equal_specializations():
    ok = True
    for n in [m for m in range(-4, 5) if m != 0]:
        lhs = weylchar.scale_q(weylchar.ch_W(n), 2)
        ok = ok and lhs == cform.E_spec("A2dagger", n, "t0")
        ok = ok and weylchar.ch_W_sigma(n) == cform.E_spec("A2", n, "t0")
    report(3, "characters equal t=0 polynomials exactly, |n| <= 4", ok)


def test_criterion_4_triple_route_t0():
    conventions = verify.load_conventions()
    ok = True
    for family in ("A2", "A2dagger"):
        for sign in ("neg", "pos"):
            ok = ok and conventions["routes:%s:%s:t0" % (family, sign)] == ["identity"]
        for n in [m for m in range(-4, 5) if m != 0]:
            walk = ramyip.specialize(family, n, "t0")
            table = cform.E_spec(family, n, "t0")
            char = (
                weylchar.scale_q(weylchar.ch_W(n), 2)
                if family == "A2dagger"
                else weylchar.ch_W_sigma(n)
            )
            ok = ok and walk == table == char
    report(4, "walk = table = character at t=0 for |n| <= 4, no transform", ok)


def test_criterion_5_duality():
    ok = True
    for n in range(0, 7):
        lhs = cform.E_spec("A2dagger", n + 1, "t0")
        ok = ok and lhs == cform.E_spec("A2dagger", -n, "tinf").x_shift(1)
        lhs = cform.E_spec("A2", n + 1, "tinf")
        ok = ok and lhs == cform.E_spec("A2", -n, "t0").x_shift(1)
    report(5, "duality identities for 0 <= n <= 6, exact", ok)


def test_criterion_6_pbw_untwisted():
    mirror = "x_mirror" in verify.load_conventions()["pbw:untwisted"]
    ok = mirror
    for n in range(1, 5):
        status, transform = verify.compare(
            weylchar.pbw_character_specialized(n, twisted=False),
            cform.E_spec("A2dagger", -n, "tinf"),
            mirror,
        )
        ok = ok and (
            status == "EQUAL"
            or (status == "EQUAL_UP_TO" and transform == {"x_mirror": True})
        )
    report(6, "untwisted PBW matches t=inf polynomial up to x-mirror, n <= 4", ok)


def test_criterion_7_errata_detection(capsys):
    code = cli.run(["verify", "--suite", "section4", "--max-n", "1", "--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    entry = next(
        e
        for e in doc["entries"]
        if e["identity"] == "pbw_twisted_vs_E_A2_tinf" and e["n"] == 1
    )
    expected_diff = [
        {"x": -1, "q": 0, "coeff": "1"},
        {"x": -1, "q": 2, "coeff": "-1"},
        {"x": 1, "q": 0, "coeff": "-1"},
        {"x": 1, "q": 1, "coeff": "1"},
    ]
    ok = (
        code == 0
        and entry["status"] == "KNOWN_ERRATUM"
        and entry["diff"] == expected_diff
    )
    report(7, "twisted q-vs-q^2 discrepancy reported as KNOWN_ERRATUM, exit 0", ok)


def test_criterion_8_fusion_oracle():
    ok = True
    point_sets = ([1, 2, 3], [1, -2, 3], [4, 5, 6])
    for n in range(1, 4):
        for pts in point_sets:
            ok = ok and fusion.fusion_character(n, pts[:n]) == weylchar.ch_W(-n)
            ok = ok and fusion.fusion_character(n, pts[:n], twisted=True) == weylchar.ch_W_sigma(-n)
    try:
        fusion.fusion_character(2, [1, -1], twisted=True)
        ok = False
    except fusion.NotCyclic:
        pass
    report(8, "fusion oracle matches closed forms, 3 point sets, n <= 3", ok)


def test_criterion_9_limits():
    ok = True
    for kind in ("untwisted", "twisted", "classical_even"):
        ok = ok and weylchar.approximant(kind, 6, 2, 4) == weylchar.limit_char(kind, 2, 4)
        ok = ok and weylchar.approximant(kind, 8, 3, 5) == weylchar.limit_char(kind, 3, 5)
    ok = ok and qcomb.wedge_lhs_truncated(12, 12) == qcomb.euler_product_truncated(
        "single_plus", 12, 12
    )
    report(9, "limit approximants at n=6 (q<=2), n=8 (q<=3); wedge to (12,12)", ok)


def test_criterion_10_classical():
    ok = True
    for n in range(11):
        ok = ok and weylchar.ch_D(n).eval_at_ones() == 2**n
        ok = ok and len(weylchar.enumerate_basis("classical", n)) == 2**n
    report(10, "classical characters and basis counts give 2^n, n <= 10", ok)


def test_criterion_11_performance():
    t0 = time.time()
    entries, code = verify.run_suites("all", 4)
    elapsed = time.time() - t0
    ok = elapsed < 60.0 and code == 0
    ok = ok and not any(e["status"] == "MISMATCH" for e in entries)
    report(11, "verify --suite all --max-n 4 in %.1fs (< 60s), exit 0" % elapsed, ok)
