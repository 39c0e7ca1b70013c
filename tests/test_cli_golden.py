"""Pinned CLI output: the sha256 of stdout and the exit code of each argv.

A refactor that should print the same bytes runs this test instead of a
hand-made diff.  Stderr is not pinned.  After an intended change of output,
regenerate the table with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex

from macweyl import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")


def _readme_examples():
    # The `macweyl ...` lines of the README's CLI block, comments stripped.
    with open(os.path.join(os.path.dirname(HERE), "README.md")) as f:
        text = f.read()
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", text, re.M | re.S).group(1)
    return [
        shlex.split(line.split("#")[0])[1:]
        for line in block.splitlines()
        if line.startswith("macweyl ")
    ]


def _argvs():
    argvs = _readme_examples()
    for family in ("A2", "A2dagger"):
        for n in range(-8, 9):
            for spec in ("t0", "tinf"):
                base = ["epoly", "--family", family, "--n", str(n), "--spec", spec]
                argvs += [base, base + ["--format", "json"]]
        for n in range(-5, 6):
            base = ["epoly", "--family", family, "--n", str(n), "--spec", "full"]
            argvs += [base, base + ["--no-normalize"]]
    for n in (*range(-5, 0), *range(1, 6)):
        base = ["walks", "--n", str(n)]
        argvs += [base, base + ["--format", "json"]]
    for family in ("A2", "A2dagger"):
        for spec in ("t0", "tinf"):
            for n in (-4, 4):
                argvs.append(["walks", "--n", str(n), "--filter", "%s-%s" % (family, spec)])
    # The CI fusion points, truncated to the first n.
    ci_points = ["1/2", "-3", "5/3", "-7/2", "2/5", "4"]
    for n in range(1, 5):
        base = ["fusion", "--n", str(n), "--points", ",".join(ci_points[:n])]
        argvs += [base, base + ["--twisted"]]
    argvs.append(["verify", "--suite", "all", "--max-n", "4", "--format", "json"])
    # test_cli.test_capacity_limit_exit_three's argvs: exit 3, empty stdout.
    argvs.append(["fusion", "--n", "8", "--points", "1,2,3,4,5,6,7,8"])
    argvs.append(["epoly", "--family", "A2", "--n", "33", "--spec", "t0"])
    return list(dict.fromkeys(shlex.join(argv) for argv in argvs))


def _pin(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(shlex.split(line))
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_cli_output_matches_golden():
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert sorted(golden) == sorted(_argvs())
    changed = [line for line in _argvs() if _pin(line) != golden[line]]
    assert changed == []


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump({line: _pin(line) for line in _argvs()}, f, indent=1, sort_keys=True)
        f.write("\n")
