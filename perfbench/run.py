"""macweyl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the package from outside, as a user of its CLI would: a closed loop
with one client sends each job as CLI argv to a worker process that runs it
through macweyl.cli.run with stdout and stderr captured.  Each pass over a
workload's job list gets a fresh worker, so the lru_caches start cold.  The
seed fixes the job order and the fusion evaluation points, never the
multiset of (subcommand, family, n, spec) jobs.  Every output is checked
against perfbench/reference.json after the pass, outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time, throughput, job
latency quantiles, worker peak RSS, the share of jobs that passed, and the
reachable-n frontier.  --trace 1 alternates untraced and traced passes over
the same job lists and prints the per-layer metrics: calls, self time and
counters of the nine macweyl modules, and the tracing overhead.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gzip
import json
import os
import pickle
import random
import select
import statistics
import struct
import subprocess
import sys
import time
from array import array

import check
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

JOB_TIMEOUT = 20.0
# Per-step budget of the frontier ladders.  When the benchmark was added
# (2-core x86 VM, Python 3.11) the walk route took ~2 s at n = -5 and ~15 s
# at n = -6, the character route ~1.5 s at n = 32 and over a minute at
# n = 64, and the fusion oracle ~1.5 s at n = 4 before stopping at n = 5 with
# BoundExceeded; 5 s sits inside each cost gap with a >2x margin either side.
STEP_BUDGET = 5.0
SETUP_PROBES = 9

FAMILIES = ("A2", "A2dagger")
JSON = ("--format", "json")
NOT_CYCLIC = ("fusion", "--n", "3", "--points=1,-1,2", "--twisted") + JSON
# Absolute values of fusion points: distinct, so points with random signs are
# distinct and, for the twisted oracle, have distinct squares.  Points go in
# as --points=... because argparse reads "--points -1/2,3" as an option.
POINT_POOL = ("1/2", "2", "3", "1/3", "3/2", "2/3", "5/2", "2/5", "5/3", "3/5", "4/3", "3/4")
LADDER_POINTS = ("1/2", "-3", "5/3", "-7/2", "2/5", "4", "-5/4", "7/3")


def _walk_sums(rng):
    epoly = [("epoly", "--family", f, "--n", str(n), "--spec", s) + JSON
             for f in FAMILIES for n in (-5, -4, -3, 3, 4, 5) for s in ("full", "t0", "tinf")]
    tail = [
        ("walks", "--n", "-5", "--filter", "A2-t0") + JSON,
        ("walks", "--n", "5") + JSON,
        ("verify", "--suite", "routes", "--max-n", "4") + JSON,
        ("verify", "--suite", "walks", "--max-n", "4") + JSON,
    ]
    # Whatever the order, each (family, n) computes its walk sum cold in its
    # full job, which runs before that pair's t0 and tinf jobs, and the routes
    # suite runs after all epoly jobs and reuses the sums for |n| = 3, 4.  So
    # the same 12 jobs are cold on every seed.
    rng.shuffle(epoly)
    first = {}
    for i, argv in enumerate(epoly):
        first.setdefault(argv[2:5], i)
    for i, argv in enumerate(epoly):
        j = first[argv[2:5]]
        if argv[6] == "full" and j != i:
            epoly[i], epoly[j] = epoly[j], epoly[i]
    rng.shuffle(tail)
    return epoly + tail


def _closed_forms(rng):
    jobs = [("weylchar", "--module", m, "--n", str(s * n)) + JSON
            for m in ("W", "Wsigma") for n in (20, 24, 28) for s in (-1, 1)]
    jobs += [("weylchar", "--module", "D", "--n", str(n)) + JSON for n in (20, 24, 28)]
    jobs += [("weylchar", "--module", m, "--n", str(n)) + JSON
             for m in ("grW", "grWsigma") for n in (6, 7, 8)]
    jobs += [("verify", "--suite", s, "--max-n", str(n)) + JSON
             for s, n in (("duality", 20), ("recurrences", 12), ("section4", 4),
                          ("section4", 5), ("section4", 6), ("dimensions", 7))]
    jobs += [("verify", "--suite", "limits") + JSON,
             ("ctable", "--family", "A2", "--r", "2", "--max-n", "12")]
    rng.shuffle(jobs)
    return jobs


def _fusion_oracle(rng):
    jobs = []
    for n, count in ((2, 3), (3, 3), (4, 2)):
        for twisted in (False, True):
            for _ in range(count):
                points = [("-" if rng.random() < 0.5 else "") + p for p in rng.sample(POINT_POOL, n)]
                jobs.append(("fusion", "--n", str(n), "--points=" + ",".join(points))
                            + (("--twisted",) if twisted else ()) + JSON)
    jobs += [NOT_CYCLIC, ("verify", "--suite", "fusion", "--max-n", "4") + JSON]
    rng.shuffle(jobs)
    return jobs


# Workload -> the job list of one pass, in seeded order (fresh fusion points
# each pass, so a run averages over several draws).
WORKLOADS = {
    "walk-sums": _walk_sums,
    "closed-forms": _closed_forms,
    "fusion-oracle": _fusion_oracle,
}


def _ladder_walk(k):
    return ("epoly", "--family", "A2", "--n", str(-k), "--spec", "t0") + JSON


def _ladder_char(k):
    return ("weylchar", "--module", "Wsigma", "--n", str(-k)) + JSON


def _ladder_fusion(k):
    return ("fusion", "--n", str(k), "--points=" + ",".join(LADDER_POINTS[:k])) + JSON


# Workload -> (step argv, ladder of n).  The exponential routes climb n = 1,
# 2, ...; the polynomial character route doubles n, so that every ladder has
# a wide cost gap around the budget.  The top rung caps the frontier.
LADDERS = {
    "walk-sums": (_ladder_walk, tuple(range(1, 17))),
    "closed-forms": (_ladder_char, (1, 2, 4, 8, 16, 32, 64)),
    "fusion-oracle": (_ladder_fusion, tuple(range(1, len(LADDER_POINTS) + 1))),
}


def ref_key(argv):
    """Reference entry of a job; fusion jobs share one per (n, twisted)."""
    if argv[0] == "fusion" and tuple(argv) != NOT_CYCLIC:
        return "fusion --n %s%s" % (argv[2], " --twisted" if "--twisted" in argv else "")
    return " ".join(argv)


class WorkerError(Exception):
    pass


class Worker:
    """One `worker.py serve` process; set-up time is spawn to ready."""

    def __init__(self, traced):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve"] + (["--trace"] if traced else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        try:
            msg = self._recv(start + JOB_TIMEOUT)
        except WorkerError:
            self.kill()
            raise
        if msg != ("ready",):
            self.kill()
            raise WorkerError("worker did not become ready: %r" % (msg,))
        self.setup_s = time.perf_counter() - start

    def _read(self, size, deadline):
        fd = self.proc.stdout.fileno()
        buf = bytearray()
        while len(buf) < size:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerError("timed out")
            chunk = os.read(fd, size - len(buf))
            if not chunk:
                raise WorkerError("worker exited")
            buf += chunk
        return bytes(buf)

    def _recv(self, deadline):
        (size,) = struct.unpack(">I", self._read(4, deadline))
        return pickle.loads(self._read(size, deadline))

    def _send(self, obj):
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self.proc.stdin.write(struct.pack(">I", len(data)) + data)
        except OSError as exc:
            raise WorkerError("worker gone: %r" % (exc,))

    def call(self, job_id, argv):
        self._send(("job", job_id, tuple(argv)))
        return self._recv(time.perf_counter() + JOB_TIMEOUT)

    def close(self):
        """Ask the worker for its statistics and wait for it to exit."""
        try:
            self._send(("exit",))
            stats = self._recv(time.perf_counter() + JOB_TIMEOUT)[1]
            self.proc.stdin.close()
            self.proc.wait(timeout=JOB_TIMEOUT)
            return stats
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def run_pass(jobs, traced, refs):
    """Run one job list on fresh workers; time each job, then check them."""
    records = []
    aborted = False
    worker = Worker(traced)
    try:
        for job_id, argv in enumerate(jobs):
            start = time.perf_counter()
            try:
                reply = worker.call(job_id, argv)
            except WorkerError as exc:
                # A hung or crashed job ends the pass, and measure() starts no more.
                records.append((argv, time.perf_counter() - start,
                                ("failed", job_id, None, "", "", "worker: %s" % exc, [])))
                aborted = True
                break
            records.append((argv, time.perf_counter() - start, reply))
        stats = [] if aborted else [worker.close()]
    finally:
        worker.kill()

    failures, mismatches, out_bytes = [], 0, 0
    for argv, _, reply in records:
        code, out, err, error, raised = reply[2:]
        out_bytes += len(out.encode())
        ref = refs.get(ref_key(argv))
        if reply[0] == "failed":
            ok, reason, bad = False, error, 0
        elif ref is None:
            ok, reason, bad = False, "no reference", 0
        else:
            ok, reason, bad = check.check(argv, ref, code, out, err, error, raised)
        mismatches += bad
        if not ok:
            failures.append("%s: %s" % (" ".join(argv), reason))
    return {
        "traced": traced,
        "aborted": aborted,
        "setups": [worker.setup_s],
        "times": [t for _, t, _ in records],
        "failures": failures,
        "mismatch_entries": mismatches,
        "output_bytes": out_bytes,
        "stats": stats,
    }


def run_step(argv, refs):
    """One ladder step in its own process: 'pass', 'capacity', 'budget' or a failure."""
    proc = subprocess.Popen([sys.executable, WORKER, "once"] + list(argv), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=STEP_BUDGET)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "budget"
    try:
        res = json.loads(out)
    except ValueError:
        return "step process failed with exit code %r" % proc.returncode
    if "BoundExceeded" in res["raised"] and res["code"] != 0:
        return "capacity"
    ref = refs.get(ref_key(argv))
    if ref is None:
        return "no reference"
    ok, reason, _ = check.check(argv, ref, res["code"], res["out"], res["err"],
                                res["error"], res["raised"])
    return "pass" if ok else reason


def frontier(workload, refs):
    """Largest ladder n that finishes inside STEP_BUDGET; (n, attempted, failures)."""
    make_argv, ladder = LADDERS[workload]
    best, attempted, failures = 0, 0, []
    for k in ladder:
        outcome = run_step(make_argv(k), refs)
        if outcome in ("budget", "capacity"):
            break
        attempted += 1
        if outcome != "pass":
            failures.append("frontier step %s: %s" % (" ".join(make_argv(k)), outcome))
            break
        best = k
    return best, attempted, failures


def measure(workload, seed, seconds, trace, refs):
    rng = random.Random(seed)
    make_jobs = WORKLOADS[workload]
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            worker = Worker(False)
            probes.append(worker.setup_s)
            worker.close()
    passes = []
    start = time.perf_counter()
    while True:
        jobs = make_jobs(rng)
        if trace:  # an untraced and a traced pass over the same job list,
            # in alternating order so that drift does not bias the overhead
            modes = (False, True) if len(passes) % 4 == 0 else (True, False)
            passes += [run_pass(jobs, traced, refs) for traced in modes]
        else:
            passes.append(run_pass(jobs, False, refs))
        elapsed = time.perf_counter() - start
        step = elapsed / len(passes) * (2 if trace else 1)
        if elapsed + step / 2 >= seconds or any(p["aborted"] for p in passes):
            break
    return probes, passes


def end_to_end(workload, probes, passes, refs):
    times = [t for p in passes for t in p["times"]]
    rss = [s["peak_rss_kb"] / 1024.0 for p in passes for s in p["stats"]]
    n, attempted, failures = frontier(workload, refs)
    values = {
        "setup_s": statistics.median(probes + [s for p in passes for s in p["setups"]]),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "frontier_n": n,
    }
    return values, attempted, failures


SPAN_METRICS = (
    "ring.bipoly_mul", "ring.bipoly_divide", "ring.qpoly_mul", "ring.qpoly_add", "ring.limit",
    "qcomb.q_binomial", "qcomb.q_multinomial", "walks.enumerate", "walks.traverse",
    "ramyip.sum", "ramyip.specialize", "cform.E_spec", "cform.recurrence", "weylchar.char",
    "weylchar.basis", "fusion.character", "fusion.reduce", "verify.compare",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(p):
    """Per-layer metrics of one traced pass."""
    calls, self_s, counts, caches, raised = {}, {}, {}, {}, {}
    spans = 0
    for stats in p["stats"]:
        trace = stats["trace"]
        for src, dst in ((trace["calls"], calls), (trace["self_s"], self_s),
                         (trace["counts"], counts), (stats["raised"], raised)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        for key, (hits, misses) in stats["caches"].items():
            old = caches.get(key, (0, 0))
            caches[key] = (old[0] + hits, old[1] + misses)
        spans += len(trace["spans"]["start"]) // 8
    v = {}
    for name in SPAN_METRICS:
        v[name + ".calls"] = calls.get(name, 0)
        v[name + ".self_s"] = self_s.get(name, 0.0)
    for module in tracing.MODULES:
        v[module + ".self_s"] = sum(s for name, s in self_s.items()
                                    if name.startswith(module + "."))
    for layer in ("ring.bipoly_mul", "ring.qpoly_mul"):
        v[layer + ".term_pairs"] = counts.get(layer + ".term_pairs", 0)
    tested = counts.get("walks.survival_tested", 0)
    v["walks.survival_tested"] = tested
    v["walks.survival_ratio"] = _ratio(counts.get("walks.survived", 0), tested)
    for cache in ("ramyip.sum", "qcomb.gauss"):
        hits, misses = caches.get(cache, (0, 0))
        v[cache + ".cache_lookups"] = hits + misses
        v[cache + ".cache_hit_ratio"] = _ratio(hits, hits + misses)
    v["weylchar.basis.monomials"] = counts.get("weylchar.basis.monomials", 0)
    v["fusion.rows_found"] = counts.get("fusion.rows_found", 0)
    v["fusion.not_cyclic"] = raised.get("NotCyclic", 0)
    v["verify.mismatch_entries"] = p["mismatch_entries"]
    v["cli.output_bytes"] = p["output_bytes"]
    v["trace.spans"] = spans
    return v


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    rows = [layer_values(p) for p in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["trace.overhead_s"] = (
        statistics.median(sum(p["times"]) for p in traced)
        - statistics.median(sum(p["times"]) for p in passes if not p["traced"]))
    return values


def write_spans(workload, passes):
    """Write every traced pass's spans as one gzip TSV under .perfbench_out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s.tsv.gz" % workload)
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("pass\tjob\tspan\tparent\tname\tstart_s\tend_s\n")
        for number, p in enumerate(x for x in passes if x["traced"]):
            for stats in p["stats"]:
                raw = stats["trace"]["spans"]
                cols = {}
                for key, code in (("span_name", "i"), ("parent", "i"), ("job", "i"),
                                  ("start", "d"), ("end", "d")):
                    cols[key] = array(code)
                    cols[key].frombytes(raw[key])
                base = cols["start"][0] if cols["start"] else 0.0
                for i in range(len(cols["start"])):
                    f.write("%d\t%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                        number, cols["job"][i], i, cols["parent"][i],
                        raw["names"][cols["span_name"][i]],
                        cols["start"][i] - base, cols["end"][i] - base))
    return path


def main():
    parser = argparse.ArgumentParser(description="macweyl benchmark")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "macweyl", "cli.py")):
        sys.exit("perfbench: no macweyl package under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        refs = json.load(f)

    try:
        probes, passes = measure(args.workload, args.seed, args.seconds, args.trace, refs)
        failures = [f for p in passes for f in p["failures"]]
        attempted = sum(len(p["times"]) for p in passes)
        if args.trace:
            values, wanted = per_layer(passes), spec["per_layer"]
            spans = write_spans(args.workload, passes)
        else:
            values, steps, step_failures = end_to_end(args.workload, probes, passes, refs)
            attempted += steps
            failures += step_failures
            values["ok_frac"] = (attempted - len(failures)) / attempted
            wanted, spans = spec["end_to_end"], None
    except WorkerError as exc:
        sys.exit("perfbench: %s" % exc)

    for line in failures[:20]:
        sys.stderr.write("FAILED %s\n" % line)
    print("%s seed=%d: passes of %s s, %d jobs attempted, %d failed%s" % (
        args.workload, args.seed,
        " ".join("%.2f%s" % (sum(p["times"]), "T" if p["traced"] else "") for p in passes),
        attempted, len(failures),
        ", spans in %s" % os.path.relpath(spans, ROOT) if spans else ""))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
