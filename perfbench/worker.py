"""Worker process of the macweyl benchmark.

Imports macweyl from the checkout's src/ and runs CLI jobs through
macweyl.cli.run with stdout and stderr captured.  Two modes:

    python3 perfbench/worker.py serve [--trace]
        Set up (import, load_errata, load_conventions, build_rep), report
        "ready", then answer job frames from run.py until told to exit.
        Frames are a 4-byte big-endian length and a pickle; replies go to
        the process's original stdout, which the jobs never see.

    python3 perfbench/worker.py once ARG...
        Set up, run the one CLI job ARG... and print its outcome as a JSON
        object (one step of the frontier ladder).
"""

import contextlib
import io
import json
import os
import pickle
import resource
import struct
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Exception classes whose construction is recorded per job: BoundExceeded
# marks a capacity limit, NotCyclic the fusion oracle's rejection.  The CLI
# turns both into an exit code and a message, so the class is only visible
# at construction.
WATCHED = ("BoundExceeded", "NotCyclic")


def setup():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from macweyl import cli, fusion, verify

    verify.load_errata()
    verify.load_conventions()
    fusion.build_rep()
    return cli


def macweyl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "macweyl" or name.startswith("macweyl."))]


def watch_exceptions(raised):
    """Append the class name to `raised` whenever a watched class is built."""
    seen = set()
    for mod in macweyl_modules():
        for name in WATCHED:
            cls = getattr(mod, name, None)
            if not isinstance(cls, type) or cls in seen:
                continue
            seen.add(cls)
            original = cls.__init__

            def init(self, *args, _original=original, _name=name, **kwargs):
                raised.append(_name)
                _original(self, *args, **kwargs)

            cls.__init__ = init


def run_job(cli, argv, raised):
    """Run one CLI job; returns (exit code, stdout, stderr, error, raised)."""
    del raised[:]
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse usage errors escape cli.run this way
            error = "SystemExit(%r)" % (exc.code,)
        except Exception:
            error = traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), error, list(raised)


def send(stream, obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack(">I", len(data)) + data)
    stream.flush()


def recv(stream):
    head = stream.read(4)
    if len(head) < 4:
        return None
    (size,) = struct.unpack(">I", head)
    return pickle.loads(stream.read(size))


# Metric prefix -> (module, lru_cache-wrapped function) whose cache_info() is read.
CACHES = {
    "ramyip.sum": ("macweyl.ramyip", "_assembled_sum"),
    "qcomb.gauss": ("macweyl.qcomb", "_gauss"),
}


def cache_stats():
    """(hits, misses) of each cache in CACHES; (0, 0) for one that is gone."""
    out = {}
    for key, (mod_name, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(mod_name), attr, None), "cache_info", None)
        out[key] = (info().hits, info().misses) if info is not None else (0, 0)
    return out


def serve(trace):
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    cli = setup()
    raised = []
    watch_exceptions(raised)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(macweyl_modules())
    send(channel, ("ready",))
    raised_total = {}
    while True:
        msg = recv(sys.stdin.buffer)
        if msg is None or msg[0] == "exit":
            break
        _, job_id, argv = msg
        if tracer is not None:
            tracer.job_id = job_id
        result = run_job(cli, argv, raised)
        for name in result[4]:
            raised_total[name] = raised_total.get(name, 0) + 1
        send(channel, ("done", job_id) + result)
    stats = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": cache_stats(),
        "raised": raised_total,
    }
    if tracer is not None:
        stats["trace"] = tracer.report()
    send(channel, ("stats", stats))
    channel.close()


def once(argv):
    cli = setup()
    raised = []
    watch_exceptions(raised)
    code, out, err, error, names = run_job(cli, argv, raised)
    sys.stdout.write(json.dumps(
        {"code": code, "out": out, "err": err, "error": error, "raised": names}))


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "serve":
        serve("--trace" in sys.argv[2:])
    elif len(sys.argv) >= 2 and sys.argv[1] == "once":
        once(sys.argv[2:])
    else:
        sys.stderr.write(__doc__)
        sys.exit(2)


if __name__ == "__main__":
    main()
