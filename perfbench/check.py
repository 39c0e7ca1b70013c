"""Output checker of the macweyl benchmark.

Every job's output is reduced to a representation-independent summary and
compared with perfbench/reference.json, which reference.py writes from a
known-good tree:

* specialized polynomials (epoly t0/tinf, weylchar, fusion) and ctable rows
  are compared as parsed term sets, through a digest of the sorted terms;
* `epoly --spec full` is compared by value: num/den of each x-power is
  evaluated at fixed exact rational (q, v) points, so a different but equal
  num/den representation still passes;
* `walks` records are compared as a parsed set;
* `verify` passes when every entry of the reference is present and none has
  a worse status than in the reference, and the exit code is 2 exactly when
  some entry is MISMATCH.

The checker imports nothing from macweyl.
"""

import hashlib
import json
from fractions import Fraction

# Exact rational (q, v) points for the full sums; no factor 1 - q^a v^b with
# a, b not both zero vanishes at either.
FULL_POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(7, 5), Fraction(3, 2)))

STATUS_RANK = {"EQUAL": 0, "EQUAL_UP_TO": 1, "KNOWN_ERRATUM": 2, "MISMATCH": 3}


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def term_set(terms):
    return digest(sorted([t["x"], t["q"], int(t["coeff"])] for t in terms))


def _bi_value(terms, q, v):
    return sum(Fraction(int(t["coeff"])) * q ** t["q"] * v ** t["v"] for t in terms)


def full_values(terms):
    out = {}
    for t in terms:
        out[str(t["x"])] = [str(_bi_value(t["num"], q, v) / _bi_value(t["den"], q, v))
                            for q, v in FULL_POINTS]
    return out


def kind_of(argv):
    cmd = argv[0]
    if cmd == "epoly":
        return "full" if argv[argv.index("--spec") + 1] == "full" else "terms"
    return {"weylchar": "terms", "fusion": "terms", "ctable": "ctable",
            "walks": "walks", "verify": "verify"}[cmd]


def summarize(argv, out):
    """Representation-independent summary of a successful job's stdout."""
    doc = json.loads(out)
    kind = kind_of(argv)
    if kind == "full":
        return {"normalized": doc["normalized"], "values": full_values(doc["terms"])}
    if kind == "terms":
        head = {k: doc[k] for k in ("family", "n", "spec", "module", "twisted", "dimension")
                if k in doc}
        return dict(head, terms=term_set(doc["terms"]))
    if kind == "ctable":
        rows = sorted([r["k22"], r.get("k12", r.get("k21")), r["k11"],
                       sorted([p["q"], int(p["coeff"])] for p in r["poly"])]
                      for r in doc["values"])
        return {"family": doc["family"], "r": doc["r"], "values": digest(rows)}
    if kind == "walks":
        return {"n": doc["n"], "walks": digest(sorted(doc["walks"], key=lambda w: w["mask"]))}
    return {"exit_code": doc["exit_code"],
            "entries": {"%s|%d" % (e["identity"], e["n"]): e["status"] for e in doc["entries"]}}


def check(argv, ref, code, out, err, error, raised):
    """(ok, reason, mismatch entries) for one job against its reference."""
    if error is not None:
        return False, "exception escaped cli.run: " + error.strip().splitlines()[-1], 0
    if ref.get("raises"):
        ok = code == 1 and not out and ref["raises"] in raised
        return ok, "" if ok else "expected %s, exit 1" % ref["raises"], 0
    if code not in ((0, 2) if kind_of(argv) == "verify" else (0,)):
        return False, "exit code %r: %s" % (code, err.strip()[-200:]), 0
    try:
        got = summarize(argv, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return False, "unparsable output: %r" % (exc,), 0
    if kind_of(argv) != "verify":
        ok = got == ref["summary"]
        return ok, "" if ok else "output differs from reference", 0
    want = ref["summary"]["entries"]
    entries = got["entries"]
    mismatches = sum(1 for s in entries.values() if s == "MISMATCH")
    for key, status in want.items():
        if key not in entries:
            return False, "verify entry %s missing" % key, mismatches
        if STATUS_RANK[entries[key]] > STATUS_RANK[status]:
            return False, "verify entry %s is %s, was %s" % (key, entries[key], status), mismatches
    if any(s == "MISMATCH" for k, s in entries.items() if k not in want):
        return False, "new MISMATCH entry", mismatches
    expected_code = 2 if mismatches else 0
    if code != expected_code or got["exit_code"] != expected_code:
        return False, "verify exit code %r, expected %d" % (code, expected_code), mismatches
    return True, "", mismatches
