import json
import os
import subprocess
import sys
import time

import pytest

from macweyl import cli, ramyip, verify, walks
from macweyl.ring import SIZE_LIMITS, QPolynomial, XPolynomial


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_epoly_text(capsys):
    code, out = run_cli(capsys, "epoly", "--family", "A2", "--n", "-1", "--spec", "t0")
    assert code == 0
    assert out.strip() == "x^-1 + q + x"


def test_epoly_n0(capsys):
    code, out = run_cli(capsys, "epoly", "--family", "A2", "--n", "0", "--spec", "t0")
    assert code == 0
    assert out.strip() == "1"


def test_epoly_json_schema(capsys):
    code, out = run_cli(
        capsys, "epoly", "--family", "A2dagger", "--n", "2", "--spec", "t0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "A2dagger" and doc["n"] == 2 and doc["spec"] == "t0"
    terms = {(t["x"], t["q"]): t["coeff"] for t in doc["terms"]}
    assert terms == {(2, 0): "1", (1, 2): "1", (0, 2): "1"}


def test_epoly_full_json(capsys):
    code, out = run_cli(
        capsys, "epoly", "--family", "A2", "--n", "1", "--spec", "full",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["normalized"] is True
    assert {t["x"] for t in doc["terms"]} == {0, 1}
    for t in doc["terms"]:
        assert "num" in t and "den" in t


def test_epoly_full_n0_json(capsys):
    code, out = run_cli(
        capsys, "epoly", "--family", "A2", "--n", "0", "--spec", "full", "--format", "json",
    )
    assert code == 0
    one = [{"coeff": "1", "q": 0, "v": 0}]
    assert json.loads(out)["terms"] == [{"x": 0, "num": one, "den": one}]


def test_walks_json(capsys):
    code, out = run_cli(capsys, "walks", "--n", "-1", "--format", "json")
    doc = json.loads(out)
    assert len(doc["walks"]) == 4
    rec = {w["mask"]: w for w in doc["walks"]}
    assert rec["11"]["wt"] == -1 and rec["11"]["h"] == "222"
    assert rec["00"]["leg"] == 1
    assert rec["10"]["J0+"] == [2]


def test_walks_filtered(capsys):
    code, out = run_cli(
        capsys, "walks", "--n", "-1", "--filter", "A2-t0", "--format", "json"
    )
    doc = json.loads(out)
    assert len(doc["walks"]) == 3


def _walk_records(n):
    """The per-walk path the dump replaced: one traverse per listed walk,
    and its record dict."""
    out = []
    for walk in walks.enumerate_walks(n):
        stats = walks.traverse(walk)
        wt, d = walks.alcove_element(stats.lo)
        h = walks.to_hword(walk, 1 if n > 0 else -1)
        record = {
            "mask": "".join(map(str, walk.mask)), "wt": wt, "d": d,
            "J0+": sorted(stats.J0_pos), "J0-": sorted(stats.J0_neg),
            "J+": sorted(stats.J_pos), "J-": sorted(stats.J_neg),
            "h": "".join(map(str, h)), "leg": walks.leg(h),
        }
        out.append((stats, record))
    return out


def test_walks_dump_equals_record_reference(capsys):
    for n in (*range(-6, 0), *range(1, 7)):
        pairs = _walk_records(n)
        for spec in (None, "A2-t0", "A2-tinf", "A2dagger-t0", "A2dagger-tinf"):
            records = [r for stats, r in pairs
                       if spec is None or walks.surviving(stats, *spec.split("-"))]
            text = "".join(
                "mask=%s wt=%-3d d=%d h=%s leg=%-2d J0+=%s J0-=%s J+=%s J-=%s\n"
                % (r["mask"], r["wt"], r["d"], r["h"], r["leg"],
                   r["J0+"], r["J0-"], r["J+"], r["J-"])
                for r in records) + "count: %d\n" % len(records)
            doc = json.dumps({"n": n, "walks": records}, indent=2) + "\n"
            argv = ("walks", "--n", str(n)) + (("--filter", spec) if spec else ())
            assert run_cli(capsys, *argv) == (0, text)
            assert run_cli(capsys, *argv, "--format", "json") == (0, doc)


def test_weylchar_and_basis(capsys):
    code, out = run_cli(capsys, "weylchar", "--module", "Wsigma", "--n", "-1")
    assert out.strip() == "x^-1 + q + x"
    code, out = run_cli(
        capsys, "basis", "--kind", "twisted_pos", "--n", "2", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["count"] == 6


def test_ctable(capsys):
    code, out = run_cli(capsys, "ctable", "--family", "A2", "--r", "2", "--max-n", "1")
    doc = json.loads(out)
    assert len(doc["values"]) == 4
    by_key = {(r["k22"], r["k12"], r["k11"]): r["text"] for r in doc["values"]}
    assert by_key[(0, 1, 0)] == "q"


def test_fusion_cli(capsys):
    code, out = run_cli(
        capsys, "fusion", "--n", "2", "--points", "1,2", "--twisted", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["dimension"] == 9


def test_fusion_leading_negative_point(capsys):
    argv = ["fusion", "--n", "2", "--twisted", "--format", "json"]
    code, spaced = run_cli(capsys, *argv, "--points", "-1/2,3")
    assert code == 0
    code, joined = run_cli(capsys, *argv, "--points=-1/2,3")
    assert code == 0
    assert spaced == joined
    assert json.loads(spaced)["points"] == ["-1/2", "3"]


def test_fusion_bad_point_named(capsys):
    code = cli.run(["fusion", "--n", "2", "--points", "1/0,2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip() == "error: point '1/0' has a zero denominator"
    code = cli.run(["fusion", "--n", "2", "--points", "1,x"])
    assert code == 1
    assert "'x'" in capsys.readouterr().err


def test_verify_max_n_below_one_is_usage_error(capsys):
    for suite, max_n in (("fusion", "0"), ("routes", "-2"), ("all", "0")):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert code == 1
        assert out == ""
    with pytest.raises(ValueError):
        verify.run_suites("fusion", 0)


def test_limitchar_cli(capsys):
    code, out = run_cli(
        capsys, "limitchar", "--kind", "untwisted", "--qmax", "0", "--xmax", "1"
    )
    assert out.strip() == "x^-1 + 2 + x"


def test_limitchar_negative_approx_is_usage_error(capsys):
    argvs = [
        ("limitchar", "--kind", kind, "--qmax", "3", "--xmax", "3", "--approx", n)
        for kind, n in (("untwisted", "-2"), ("twisted", "-3"), ("classical_odd", "-1"))
    ]
    argvs += [
        ("limitchar", "--kind", "untwisted", "--qmax", "-1", "--xmax", "3"),
        ("limitchar", "--kind", "untwisted", "--qmax", "3", "--xmax", "-2"),
        ("limitchar", "--kind", "twisted", "--qmax", "-1", "--xmax", "3", "--approx", "4"),
        ("ctable", "--family", "A2", "--r", "1", "--max-n", "-1"),
    ]
    for argv in argvs:
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""


def test_verify_exit_zero_with_known_errata(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "section4", "--max-n", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    statuses = {(e["identity"], e["n"]): e["status"] for e in doc["entries"]}
    assert statuses[("pbw_twisted_vs_E_A2_tinf", 1)] == "KNOWN_ERRATUM"


def test_verify_text_warning_block(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "section4", "--max-n", "1")
    assert code == 0
    assert "WARNING" in out and "pbw_twisted_vs_E_A2_tinf" in out


def test_verify_exit_two_on_unknown_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(verify, "load_errata", lambda: {})
    code, out = run_cli(capsys, "verify", "--suite", "section4", "--max-n", "1")
    assert code == 2


def test_epoly_route_mismatch_exit_two(capsys, monkeypatch):
    from macweyl import ramyip

    broken = dict(ramyip._STAT_SETS)
    broken[("A2", "t0")] = ("J0_pos", "J_neg")
    monkeypatch.setattr(ramyip, "_STAT_SETS", broken)
    code, out = run_cli(capsys, "epoly", "--family", "A2", "--n", "-1", "--spec", "t0")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("spec,delta,reason", [
    ("t0", -1, "value diverges at v=0"),
    ("tinf", +1, "numerator v-degree exceeds denominator"),
])
def test_epoly_diverging_limit_exit_two(capsys, monkeypatch, spec, delta, reason):
    # A prefactor off by one makes the exact route's limit diverge; the
    # statistic route stays finite, so the routes disagree.
    prefactor = ramyip._prefactor_v
    monkeypatch.setattr(ramyip, "_prefactor_v", lambda *args: prefactor(*args) + delta)
    code = cli.run(["epoly", "--family", "A2", "--n", "-3", "--spec", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: exact route diverges for (A2, n=-3, %s): %s\n" % (spec, reason)


def test_capacity_limit_exit_three(capsys):
    for argv in (
        ("fusion", "--n", "8", "--points", "1,2,3,4,5,6,7,8"),
        ("epoly", "--family", "A2", "--n", str(SIZE_LIMITS["specialize"] + 1), "--spec", "t0"),
    ):
        code = cli.run(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["epoly", "--family", "bogus", "--n", "1", "--spec", "t0"])
    assert exc.value.code == 1


def test_json_round_trip_deterministic(capsys):
    code, first = run_cli(
        capsys, "epoly", "--family", "A2", "--n", "-2", "--spec", "t0", "--format", "json"
    )
    code, second = run_cli(
        capsys, "epoly", "--family", "A2", "--n", "-2", "--spec", "t0", "--format", "json"
    )
    assert first == second
    json.loads(first)


def test_size_limits_exit_three_fast(capsys):
    for argv in (
        ("walks", "--n", "14"),
        ("basis", "--kind", "untwisted_neg", "--n", "14"),
        ("epoly", "--family", "A2", "--n", str(-SIZE_LIMITS["sum"] - 1), "--spec", "full"),
        ("weylchar", "--module", "W", "--n", "600", "--format", "json"),
        ("limitchar", "--kind", "twisted", "--qmax", "3", "--xmax", "3", "--approx", "600"),
        ("limitchar", "--kind", "untwisted", "--qmax", str(SIZE_LIMITS["limitchar"] + 1),
         "--xmax", "4"),
        ("ctable", "--family", "A2", "--r", "2", "--max-n", str(SIZE_LIMITS["ctable"] + 1)),
        ("verify", "--suite", "recurrences", "--max-n", str(SIZE_LIMITS["recurrences"] + 1)),
        ("verify", "--suite", "duality", "--max-n", str(SIZE_LIMITS["duality"] + 1)),
        ("verify", "--suite", "section4", "--max-n", str(SIZE_LIMITS["basis"] + 1)),
        ("verify", "--suite", "dimensions", "--max-n", str(SIZE_LIMITS["basis"] + 1)),
        ("verify", "--suite", "walks", "--max-n", str(SIZE_LIMITS["specialize"] + 1)),
        ("verify", "--suite", "routes", "--max-n", str(SIZE_LIMITS["specialize"] + 1)),
        ("verify", "--suite", "all", "--max-n", "600", "--format", "json"),
    ):
        start = time.perf_counter()
        code = cli.run(list(argv))
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert elapsed < 1.0


# Pairs of calls with and without an option, a usage error (exit 1) and a
# capacity limit (exit 3): with one parser shared by every call, none may
# leave anything behind for the next.
_MIXED_SEQUENCE = (
    ("epoly", "--family", "A2", "--n", "-2", "--spec", "full", "--no-normalize"),
    ("epoly", "--family", "A2", "--n", "-2", "--spec", "full"),
    ("limitchar", "--kind", "untwisted", "--qmax", "3", "--xmax", "2", "--approx", "6"),
    ("limitchar", "--kind", "untwisted", "--qmax", "3", "--xmax", "2"),
    ("walks", "--n", "-2", "--filter", "A2-t0"),
    ("walks", "--n", "-2"),
    ("epoly", "--family", "bogus", "--n", "1", "--spec", "t0"),
    ("walks", "--n", "14"),
    ("fusion", "--n", "2", "--points", "-1/2,3"),
)


def _run_in_fresh_process(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "macweyl.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    return done.returncode, done.stdout, done.stderr


def test_run_shares_one_parser_and_leaks_nothing(capsys, monkeypatch):
    # Usage lines wrap at the terminal width; pin it for both processes.
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    codes = []
    for argv in _MIXED_SEQUENCE:
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _run_in_fresh_process(argv), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 1, 3, 0]
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser():
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    assert parser is not cli._parser()
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "argv, sort_keys",
    [
        (("epoly", "--family", "A2", "--n", "-2", "--spec", "full"), True),
        (("epoly", "--family", "A2dagger", "--n", "3", "--spec", "t0"), True),
        (("ctable", "--family", "A2dagger", "--r", "1", "--max-n", "3"), False),
        (("weylchar", "--module", "W", "--n", "3"), True),
        (("weylchar", "--module", "W", "--n", "0"), True),
        (("basis", "--kind", "twisted_pos", "--n", "2"), False),
        (("limitchar", "--kind", "twisted", "--qmax", "3", "--xmax", "2"), True),
        (("limitchar", "--kind", "untwisted", "--qmax", "3", "--xmax", "2", "--approx", "6"), True),
        (("fusion", "--n", "2", "--points", "1,2", "--twisted"), True),
        (("walks", "--n", "-1"), False),
        (("verify", "--suite", "all", "--max-n", "2"), True),
    ],
)
def test_json_output_is_stdlib_indent_2(capsys, argv, sort_keys):
    json_argv = argv if argv[0] == "ctable" else argv + ("--format", "json")
    code, out = run_cli(capsys, *json_argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=sort_keys) + "\n"


COEFF_Q_X = (("coeff", '"%d"'), ("q", "%d"), ("x", "%d"))


def _expand(obj):
    # The plain JSON value a cli._Rows or cli._QRows stands for.
    if isinstance(obj, cli._QRows):
        return [
            {"coeff": str(c), "q": q, "x": x}
            for x, qpoly in obj.poly.sorted_terms()
            for q, c in qpoly.sorted_terms()
        ]
    if isinstance(obj, cli._Rows):
        return [
            {k: (str(v) if fmt == '"%d"' else v) for (k, fmt), v in zip(obj.fields, row)}
            for row in obj.values
        ]
    if isinstance(obj, dict):
        return {k: _expand(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_expand(v) for v in obj]
    return obj


def test_dumps_matches_stdlib():
    rows = cli._Rows(COEFF_Q_X, [(3, 0, -1), (-12345678901234567890, 2, 4)])
    unsorted = cli._Rows((("q", "%d"), ("coeff", '"%d"')), [(1, 7), (-2, 0)])
    cases = [
        [],
        {},
        {"a": [], "b": {}, "c": [[], {}]},
        cli._Rows(COEFF_Q_X, []),
        {"terms": cli._Rows(COEFF_Q_X, [])},
        [True, False, None, 0, -7, 2**70],
        {"quote\"back\\slash": "tab\t new\nline é ☃ \U0001d11e", "z": "", "a": "\x00\x1f"},
        rows,
        {"outer": [{"x": 1, "num": rows, "den": unsorted}, {"inner": {"deep": [rows]}}]},
        {"z": 1, "a": {"y": unsorted, "b": (1, "2")}},
    ]
    for obj in cases:
        for sort_keys in (False, True):
            expected = json.dumps(_expand(obj), indent=2, sort_keys=sort_keys)
            assert cli._dumps(obj, sort_keys) == expected


def test_dumps_of_per_x_rows_matches_stdlib():
    # Empty, a single x, one negative x with a negative and a huge
    # coefficient, and several x blocks given out of order.
    cases = [
        XPolynomial({}),
        XPolynomial({0: QPolynomial({0: 1})}),
        XPolynomial({-3: QPolynomial({5: -12345678901234567890, -2: 7, 0: 1})}),
        XPolynomial({-2: QPolynomial({1: 1}), 4: QPolynomial({0: -1, 3: 2}),
                     -7: QPolynomial({-4: 3})}),
    ]
    for poly in cases:
        for obj in (cli._QRows(poly), {"terms": cli._QRows(poly), "n": -2},
                    [{"deep": [cli._QRows(poly)]}]):
            for sort_keys in (False, True):
                expected = json.dumps(_expand(obj), indent=2, sort_keys=sort_keys)
                assert cli._dumps(obj, sort_keys) == expected
