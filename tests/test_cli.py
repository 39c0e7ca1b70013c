import json
import os
import random
import shlex
import signal
import subprocess
import sys
import time

import pytest

from macweyl import cli, ramyip, verify, walks, weylchar
from macweyl.ring import SIZE_LIMITS, QPolynomial, XPolynomial
from references import hword, leg, surviving, traverse, walks_toward


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


def _reference_dump(n, spec=None):
    """The text and JSON stdout of `walks --n n [--filter spec]`, built walk
    by walk."""
    records = []
    for word, mask in walks_toward(n):
        lo, folds, _ = traverse(word, mask)
        if spec is None or surviving(folds, *spec.split("-")):
            (wt, d), h = walks.alcove_element(lo), hword(mask, n)
            records.append({
                "mask": "".join(map(str, mask)), "wt": wt, "d": d,
                "J0+": folds["J0_pos"], "J0-": folds["J0_neg"], "J+": folds["J_pos"],
                "J-": folds["J_neg"], "h": "".join(map(str, h)), "leg": leg(h)})
    text = "".join(
        "mask=%s wt=%-3d d=%d h=%s leg=%-2d J0+=%s J0-=%s J+=%s J-=%s\n"
        % (r["mask"], r["wt"], r["d"], r["h"], r["leg"], r["J0+"], r["J0-"], r["J+"], r["J-"])
        for r in records) + "count: %d\n" % len(records)
    return text, json.dumps({"n": n, "walks": records}, indent=2) + "\n"


def test_walks_dump_equals_record_reference(capsys):
    for n in (*range(-6, 0), *range(1, 7)):
        for spec in (None, "A2-t0", "A2-tinf", "A2dagger-t0", "A2dagger-tinf"):
            text, doc = _reference_dump(n, spec)
            argv = ("walks", "--n", str(n)) + (("--filter", spec) if spec else ())
            assert run_cli(capsys, *argv) == (0, text)
            assert run_cli(capsys, *argv, "--format", "json") == (0, doc)


def _swap_j0(step):
    def swapped(lo, letter):
        side, k = step(lo, letter)
        return side, k ^ (k < 2)  # folding set 0 = J0+ <-> 1 = J0-

    return swapped


@pytest.mark.parametrize("name, mutant", [
    ("wall_side", lambda wall_side: lambda lo, letter: -wall_side(lo, letter)),
    ("step", _swap_j0),
])
def test_walks_dump_differs_from_reference_under_step_mutants(capsys, monkeypatch, name, mutant):
    # The reference is built under the mutant too: it steps by the geometry
    # alone, so a fault in walks' step rule shows in the dump only.
    monkeypatch.setattr(walks, name, mutant(getattr(walks, name)))
    for n in (-3, 3):
        text, _ = _reference_dump(n)
        assert run_cli(capsys, "walks", "--n", str(n)) != (0, text)


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


@pytest.mark.usefixtures("fresh_specialize")
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
@pytest.mark.usefixtures("fresh_specialize")
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


# (SIZE_LIMITS key, argv with {} for the value just past it, message with {}
# for the limit): the subcommand or suite asked for, the option bounded and
# the limit.  One case per key, then `--suite all` and `limitchar --approx`.
_LIMIT_MESSAGES = [
    ("walks", ("walks", "--n", "-{}"), "walks is limited to |--n| <= {}"),
    ("basis", ("basis", "--kind", "limit", "--n", "{}"), "basis is limited to --n <= {}"),
    ("counts", ("verify", "--suite", "section4", "--max-n", "{}"),
     "verify --suite section4 is limited to --max-n <= {}"),
    ("specialize", ("epoly", "--family", "A2dagger", "--n", "{}", "--spec", "tinf"),
     "epoly --spec tinf is limited to |--n| <= {}"),
    ("sum", ("epoly", "--family", "A2", "--n", "{}", "--spec", "full"),
     "epoly --spec full is limited to |--n| <= {}"),
    ("fusion_oracle", ("fusion", "--n", "{}", "--points", "1"), "fusion is limited to --n <= {}"),
    ("characters", ("weylchar", "--module", "Wsigma", "--n", "-{}"),
     "weylchar --module Wsigma is limited to |--n| <= {}"),
    ("ctable", ("ctable", "--family", "A2", "--r", "1", "--max-n", "{}"),
     "ctable is limited to --max-n <= {}"),
    ("recurrences", ("verify", "--suite", "recurrences", "--max-n", "{}"),
     "verify --suite recurrences is limited to --max-n <= {}"),
    ("duality", ("verify", "--suite", "duality", "--max-n", "{}"),
     "verify --suite duality is limited to --max-n <= {}"),
    ("limitchar", ("limitchar", "--kind", "untwisted", "--qmax", "{}", "--xmax", "4"),
     "limitchar is limited to --qmax <= {}"),
    ("counts", ("verify", "--suite", "all", "--max-n", "{}", "--format", "json"),
     "verify --suite all is limited to --max-n <= {}"),
    ("characters", ("limitchar", "--kind", "twisted", "--qmax", "3", "--xmax", "3",
                    "--approx", "{}"), "limitchar is limited to --approx <= {}"),
]


def test_every_size_limit_has_a_message_case():
    assert sorted({key for key, _, _ in _LIMIT_MESSAGES}) == sorted(SIZE_LIMITS)


@pytest.mark.parametrize("key, argv, message", _LIMIT_MESSAGES,
                         ids=["%s-%s" % (key, argv[2] if argv[0] == "verify" else argv[0])
                              for key, argv, _ in _LIMIT_MESSAGES])
def test_capacity_message_names_command_option_and_limit(capsys, key, argv, message):
    code = cli.run([a.format(SIZE_LIMITS[key] + 1) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: %s\n" % message.format(SIZE_LIMITS[key])


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["epoly", "--family", "bogus", "--n", "1", "--spec", "t0"])
    assert exc.value.code == 1


def test_help_carries_no_developer_notes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: macweyl")
    for note in ("_COMMANDS", "build_parser", "run()"):
        assert note not in out


def test_weylchar_negative_n_is_usage_error(capsys):
    # The PBW-specialized characters say what the classical one says, not
    # the name of a basis kind.
    for module in ("D", "grW", "grWsigma"):
        code = cli.run(["weylchar", "--module", module, "--n", "-2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: n must be nonnegative\n")


def test_basis_n_out_of_range_names_the_kind_asked_for(capsys):
    # twisted_pos is listed as two kinds; the error names the one asked for.
    for kind in ("twisted_pos", "twisted_pos_1", "untwisted_pos"):
        code = cli.run(["basis", "--kind", kind, "--n", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: n out of range for kind %s\n" % kind


# An option value `--`: argparse before Python 3.13 drops it and hands the
# handler an empty list, 3.13 keeps it; either way a usage error.
_DASH_DASH_VALUES = (
    ("walks", "--n=--"),
    ("weylchar", "--module", "W", "--n=--"),
    ("fusion", "--n", "2", "--points=--"),
    ("fusion", "--n", "2", "--points", "--", "--twisted"),
    ("verify", "--suite=--", "--max-n", "2"),
    ("epoly", "--family=--", "--n", "1", "--spec", "t0"),
    ("epoly", "--family", "A2", "--n", "1", "--spec", "t0", "--format=--"),
)


@pytest.mark.parametrize("argv", _DASH_DASH_VALUES)
def test_dash_dash_value_is_usage_error(argv):
    code, out, err = _run_in_fresh_process(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ") and "Traceback" not in err


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
        ("verify", "--suite", "section4", "--max-n", str(SIZE_LIMITS["counts"] + 1)),
        ("verify", "--suite", "dimensions", "--max-n", str(SIZE_LIMITS["counts"] + 1)),
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
    ("epoly", "--fam", "A2", "--n", "2", "--spec", "t0"),
    ("walks", "--n=--"),
    ("fusion", "--n", "2", "--points=--"),
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
    assert codes == [0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 1, 1]
    assert len(built) == 1


_ONE_JOB_PER_COMMAND = (
    ("epoly", "--family", "A2", "--n", "-2", "--spec", "t0"),
    ("ctable", "--family", "A2", "--r", "1", "--max-n", "2"),
    ("weylchar", "--module", "W", "--n", "2", "--format", "json"),
    ("basis", "--kind", "twisted_pos", "--n", "2"),
    ("limitchar", "--kind", "untwisted", "--qmax", "2", "--xmax", "2", "--approx", "3"),
    ("fusion", "--n", "2", "--points", "-1/2,3", "--twisted"),
    ("walks", "--n", "-2", "--filter", "A2-t0"),
    ("verify", "--suite", "fusion", "--max-n", "2"),
)


def test_valid_argvs_build_no_parser(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    # The mixed sequence without its usage errors, then one job per subcommand.
    valid = _MIXED_SEQUENCE[:6] + _MIXED_SEQUENCE[7:9] + _ONE_JOB_PER_COMMAND
    codes = [cli.run(list(argv)) for argv in valid]
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 0, 3, 0] + [0] * 8
    assert built == []


def test_jobs_leave_argparse_unloaded():
    # Valid jobs parse their argv from the option table; only a usage error
    # (or -h) imports argparse, and with it gettext.
    script = """
import contextlib, io, sys
from macweyl import cli
jobs = %r
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(list(argv)) for argv in jobs]
loaded = lambda: [m in sys.modules for m in ("argparse", "gettext")]
before = loaded()
try:
    with contextlib.redirect_stderr(io.StringIO()):
        cli.run(["walks", "--n"])
except SystemExit as exc:
    codes.append(exc.code)
print(codes, before, loaded())
""" % (_ONE_JOB_PER_COMMAND,)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "%s [False, False] [True, True]\n" % ([0] * 8 + [1])


def _fuzz_argvs(count, seed):
    """Random argvs near the valid ones: mostly the options of the named
    subcommand with valid or junk values, in both the `=` and the split form,
    repeated or missing, plus stray tokens and unknown subcommands."""
    rng = random.Random(seed)
    junk = ("--fam", "--no-norm", "-h", "--help", "--twisted=1", "-3", "-1_0", " 4", "+5",
            "-", "--", "\u0663", "-\u0663", "1,2,3", "-1/2,3", "2", "0", "bogus", "json", "")
    names = sorted({name for command in cli._COMMANDS.values() for name in command.options})
    commands = sorted(cli._COMMANDS) + ["bogus", "-h", "--help"]

    def value(option):
        if rng.random() < 0.4:
            return rng.choice(junk)
        if option is None or option.choices is None:
            return rng.choice(("2", "-2", "1,2", "-1/2,3"))
        return str(rng.choice(option.choices + ("bogus", 3)))

    for _ in range(count):
        command = rng.choice(commands) if rng.random() < 0.1 else rng.choice(commands[:8])
        options = cli._COMMANDS[command].options if command in cli._COMMANDS else {}
        items = [name for name, o in options.items() if o.required and rng.random() < 0.9]
        for _ in range(rng.randrange(4)):
            pick = rng.random()
            items.append(rng.choice(names if pick < 0.15 else junk if pick < 0.3 or not options
                                    else list(options)))
        rng.shuffle(items)
        argv = [command]
        for name in items:
            option = options.get(name)
            form = rng.random()
            if option is not None and option.type is bool:
                argv.append(name if form < 0.8 else name + "=" + value(None))
            elif form < 0.45:
                argv += [name, value(option)]
            elif form < 0.9:
                argv.append(name + "=" + value(option))
            else:
                argv.append(name)
        yield argv


def test_table_parse_agrees_with_argparse():
    # Wherever the option table accepts an argv, argparse reads it the same;
    # it declines the rest, which argparse then handles alone.
    with open(os.path.join(os.path.dirname(__file__), "cli_golden.json")) as f:
        golden = [shlex.split(line) for line in json.load(f)]  # README examples included
    parser = cli.build_parser()
    accepted = declined = 0
    for argv in [*golden, *_fuzz_argvs(24000, seed=29)]:
        argv = cli._join_points(argv)
        table = cli._table_parse(argv)
        if table is None:
            declined += 1
            continue
        accepted += 1
        assert vars(table) == vars(parser.parse_args(argv)), argv
    assert accepted > 1000 and declined > 1000, (accepted, declined)


def test_build_parser_returns_a_fresh_parser():
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    assert parser is not cli._parser()
    assert cli._parser() is cli._parser()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_exits_141_without_traceback():
    # The dump is megabytes, far more than a pipe buffers, so the process is
    # still writing when the reader closes its end after a few bytes.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "macweyl.cli", "walks", "--n", "-7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(100).startswith(b'{\n  "n": -7,')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (128 + signal.SIGPIPE, b"")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_exits_141_while_basis_rows_are_written():
    # The basis is written a chunk of rows at a time, megabytes in all.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for fmt in ("text", "json"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "macweyl.cli", "basis", "--kind", "untwisted_neg", "--n",
             "10", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.read(2) in (b"e=", b"{\n")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (128 + signal.SIGPIPE, b""), fmt


def test_basis_text_rows_past_one_chunk(capsys):
    monomials = weylchar.enumerate_basis("untwisted_neg", 8)
    assert len(monomials) > cli._CHUNK
    code, out = run_cli(capsys, "basis", "--kind", "untwisted_neg", "--n", "8")
    lines = out.split("\n")
    assert code == 0 and lines[-2:] == ["count: %d" % len(monomials), ""]
    assert lines[:-2] == [
        "e=%-16s g=%-16s weight=%-3d tdeg=%-3d pbw=%d"
        % (list(m.e_degrees), list(m.g_degrees), m.weight, m.t_degree, m.pbw_degree)
        for m in monomials]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_stdout_write_exits_74_without_traceback():
    # Every write to /dev/full fails with ENOSPC: a full disk, not a closed
    # pipe, so one error line and EX_IOERR.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "macweyl.cli", "walks", "--n", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
    assert done.returncode == 74
    assert done.stderr.startswith("error: cannot write output: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_main_passes_a_failed_file_read_through(monkeypatch):
    # Only a failed write to stdout exits 74; an OSError that names a file
    # (a missing data file) is not one.
    def run():
        raise FileNotFoundError(2, "No such file or directory", "errata.json")

    monkeypatch.setattr(cli, "run", run)
    with pytest.raises(FileNotFoundError):
        cli.main()


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up; the
    # records are namedtuples instead.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, macweyl.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


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
        # Entries whose diffs are nonempty, and basis rows past one chunk.
        (("verify", "--suite", "section4", "--max-n", "5"), True),
        (("basis", "--kind", "untwisted_neg", "--n", "8"), False),
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
            for row in (obj.values if obj.row is None else map(obj.row, obj.values))
        ]
    if isinstance(obj, dict):
        return {k: _expand(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_expand(v) for v in obj]
    return obj


def test_dumps_matches_stdlib():
    rows = cli._Rows(COEFF_Q_X, [(3, 0, -1), (-12345678901234567890, 2, 4)])
    unsorted = cli._Rows((("q", "%d"), ("coeff", '"%d"')), [(1, 7), (-2, 0)])
    # Rows mapped from their items, two chunks and one row more.
    mapped = cli._Rows(COEFF_Q_X, range(2 * cli._CHUNK + 1), lambda i: (i, -i, i % 3))
    cases = [
        [],
        {},
        {"a": [], "b": {}, "c": [[], {}]},
        cli._Rows(COEFF_Q_X, []),
        {"terms": cli._Rows(COEFF_Q_X, [])},
        [True, False, None, 0, -7, 2**70],
        {"quote\"back\\slash": "tab\t new\nline é ☃ \U0001d11e", "z": "", "a": "\x00\x1f"},
        rows,
        mapped,
        {"a": mapped, "b": [mapped]},
    ]
    checks = [(obj, sort_keys) for obj in cases for sort_keys in (False, True)]
    # A _Rows prints its keys in the order given, so the rows with unsorted
    # keys stand for what json.dumps prints without sort_keys only.
    checks += [
        ({"outer": [{"x": 1, "num": rows, "den": unsorted}, {"inner": {"deep": [rows]}}]}, False),
        ({"z": 1, "a": {"y": unsorted, "b": (1, "2")}}, False),
    ]
    for obj, sort_keys in checks:
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
