"""Writes perfbench/reference.json, the expected outputs of every benchmark
job and ladder step, from the macweyl tree this file sits in:

    python3 perfbench/reference.py

Run it only on a tree whose outputs are known good; the checked-in file was
written from the commit that introduced the benchmark.  Fusion jobs share
one entry per (n, twisted), taken from the character formula
weylchar.ch_W(-n) / ch_W_sigma(-n), and the generator asserts that the
fusion oracle reproduces it.  Walk-ladder steps beyond the walk route's
bound are taken from the closed form cform.E_spec, which the generator
checks against the walk route wherever both exist.
"""

import json
import os
import random
import sys

import check
import run
import worker


def main():
    cli = worker.setup()
    from macweyl import cform, ramyip

    raised = []
    worker.watch_exceptions(raised)
    refs = {}

    def output(argv):
        code, out, err, error, _ = worker.run_job(cli, argv, raised)
        if error is not None or code not in (0, 2):
            raise SystemExit("reference job failed: %s\n%s%s" % (" ".join(argv), err, error or ""))
        return out

    def record(argv):
        refs[run.ref_key(argv)] = {"summary": check.summarize(argv, output(argv))}

    def fusion_ref(n, twisted):
        module = "Wsigma" if twisted else "W"
        doc = json.loads(output(("weylchar", "--module", module, "--n", str(-n)) + run.JSON))
        refs[run.ref_key(("fusion", "--n", str(n)) + (("--twisted",) if twisted else ()))] = {
            "summary": {"n": n, "twisted": twisted, "dimension": 3 ** n,
                        "terms": check.term_set(doc["terms"])}}

    for n in range(1, len(run.LADDER_POINTS) + 1):
        fusion_ref(n, False)
        fusion_ref(n, True)
    for make_jobs in run.WORKLOADS.values():
        for argv in make_jobs(random.Random(0)):
            if argv == run.NOT_CYCLIC:
                worker.run_job(cli, argv, raised)
                assert "NotCyclic" in raised, "NotCyclic job did not raise NotCyclic"
                refs[run.ref_key(argv)] = {"raises": "NotCyclic"}
            elif argv[0] != "fusion":
                record(argv)

    make_argv, ladder = run.LADDERS["closed-forms"]
    for k in ladder:
        record(make_argv(k))
    make_argv, ladder = run.LADDERS["walk-sums"]
    for k in ladder:
        argv = make_argv(k)
        terms = [{"x": x, "q": q, "coeff": str(c)}
                 for x, poly in cform.E_spec("A2", -k, "t0").sorted_terms()
                 for q, c in poly.sorted_terms()]
        closed = {"family": "A2", "n": -k, "spec": "t0", "terms": check.term_set(terms)}
        if k <= ramyip.DEFAULT_BOUND:
            record(argv)
            assert refs[run.ref_key(argv)]["summary"] == closed, "walk route != E_spec at %d" % k
        refs[run.ref_key(argv)] = {"summary": closed}

    # The oracle must reproduce the character formula at the points it is run at.
    # (n <= 4 is as far as the oracle goes at the commit that wrote the file.)
    jobs = [run.LADDERS["fusion-oracle"][0](k) for k in range(1, 5)]
    jobs += [a for a in run.WORKLOADS["fusion-oracle"](random.Random(0))
             if a[0] == "fusion" and a != run.NOT_CYCLIC]
    for argv in jobs:
        assert check.summarize(argv, output(argv)) == refs[run.ref_key(argv)]["summary"], argv

    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d references to %s" % (len(refs), os.path.relpath(path, run.ROOT)))


if __name__ == "__main__":
    sys.exit(main())
