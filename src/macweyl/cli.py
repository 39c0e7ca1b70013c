"""Command-line front end.

Subcommands: epoly, ctable, weylchar, basis, limitchar, fusion, walks,
verify.  All but ctable, which prints JSON only, take --format text|json.
Text output uses the canonical term ordering.  JSON follows the schemas
documented in the README and is byte for byte what json.dumps(obj,
indent=2) prints, with sorted keys where the subcommand sorts them (those
subcommands print through _emit).  Every document is rendered by _encode,
into one string (_dumps) or, for the basis, straight to stdout, and its lists
of flat rows do not go through the stdlib's pure-Python indenting encoder: a
list of {coeff, q, x} rows is rendered one x block at a time, by one
%-template that repeats the row once per q-term with that block's x already
written in, and every other flat row list (the other term lists, verify's
diffs, the walks, the basis monomials) by one %-template per row, _CHUNK
rows a piece.
Exit codes: 0 success, 1 usage error, 2 verification mismatch that no
errata rule explains (including disagreeing specialization routes in epoly,
and a limit that diverges on the exact route), 3 an input beyond the size a
route is configured to compute; main() exits 141 when the reader of stdout
closes the pipe early, and 74 (EX_IOERR) when any other write to stdout
fails.

run() may be called any number of times in one process.  It parses argv from
the option table _COMMANDS; only an argv the table declines (-h, an abbreviated
option, a usage error) builds the argparse parser, once, and argparse prints
every help and usage message.  build_parser() returns a fresh parser.
"""

import os
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from types import SimpleNamespace

from macweyl import cform, fusion, ramyip, verify, walks, weylchar
from macweyl.ring import BoundExceeded


# A JSON list of flat objects that share one key set: `fields` holds (key,
# %-format) pairs and `values` one item per object, which `row` maps to the
# tuple of its values in field order (None: the items are those tuples).
# Keys print in the order given, also under sort_keys; the callers whose
# output sorts its keys, _bi_rows and _cmd_verify's diffs, give (coeff, q, v)
# and (coeff, q, x), which are sorted already.
_Rows = namedtuple("_Rows", "fields values row", defaults=(None,))

# The rows a _Rows renders into one string before handing it on.
_CHUNK = 4096

# The {coeff, q, x} rows of an XPolynomial over QPolynomial, x-major, q
# ascending.  Each x block is rendered by one call of one %-template, the row
# template repeated once per term with that x written in.  The keys are in
# sorted order already, so sort_keys does not change the output.
_QRows = namedtuple("_QRows", "poly")


_COEFF_Q_V = (("coeff", '"%d"'), ("q", "%d"), ("v", "%d"))
# The (head, separator, tail) of an int list inside a row of a _Rows that is
# the value of a top-level key, at that row's indentation.
_ROW_LISTS = ("[\n        ", ",\n        ", "\n      ]")
_LITERALS = {None: "null", True: "true", False: "false"}


def _dumps(obj, sort_keys=False):
    """json.dumps(obj, indent=2, sort_keys=sort_keys), byte for byte, where
    each _Rows in obj stands for the list of objects it describes."""
    out = []
    _encode(obj, "\n", sort_keys, out.append)
    return "".join(out)


def _encode(obj, nl, sort_keys, put):
    # nl is a newline plus the indentation of the line obj starts on; put
    # takes each piece of the text in turn.
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None or obj is True or obj is False:
        put(_LITERALS[obj])
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, _Rows):
        _encode_rows(obj, nl, put)
    elif isinstance(obj, _QRows):
        put(_encode_q_rows(obj.poly, nl))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep = "{"
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            put(sep + inner + _quote(key) + ": ")
            _encode(value, inner, sort_keys, put)
            sep = ","
        put(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep = "["
        for value in obj:
            put(sep + inner)
            _encode(value, inner, sort_keys, put)
            sep = ","
        put(nl + "]")
    else:
        raise TypeError("cannot encode %r as JSON" % (obj,))


def _encode_rows(rows, nl, put):
    # _CHUNK rows a piece, so that no more of them are held as text at once.
    fields, values, row = rows
    if not values:
        put("[]")
        return
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    template = "{%s%s}" % (
        ",".join(key_nl + _quote(k).replace("%", "%%") + ": " + fmt for k, fmt in fields),
        row_nl,
    )
    sep = "," + row_nl
    put("[" + row_nl)
    for i in range(0, len(values), _CHUNK):
        chunk = values[i:i + _CHUNK]
        if i:
            put(sep)
        put(sep.join(map(template.__mod__, chunk if row is None else map(row, chunk))))
    put(nl + "]")


def _encode_q_rows(poly, nl):
    if not poly.terms:
        return "[]"
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    sep = "," + row_nl
    head = '{%s"coeff": "%%d",%s"q": %%d,%s"x": ' % (key_nl, key_nl, key_nl)
    blocks = []
    for x, qpoly in poly.sorted_terms():
        terms = qpoly.terms
        exps = sorted(terms)
        values = [0] * (2 * len(exps))
        values[0::2] = map(terms.__getitem__, exps)
        values[1::2] = exps
        template = "%s%d%s}" % (head, x, row_nl)
        blocks.append(sep.join([template] * len(exps)) % tuple(values))
    return "[%s%s%s]" % (row_nl, sep.join(blocks), nl)


def _bi_rows(bipoly):
    return _Rows(_COEFF_Q_V, [(c, qe, ve) for (qe, ve), c in bipoly.sorted_terms()])


def _rf_terms_json(poly):
    return [
        {"x": x, "num": _bi_rows(rf.num), "den": _bi_rows(rf.den)}
        for x, rf in poly.sorted_terms()
    ]


def _emit(args, text_fn, json_obj):
    if args.format == "json":
        print(_dumps(json_obj, sort_keys=True))
    else:
        print(text_fn())


def _cmd_epoly(args):
    doc = {"family": args.family, "n": args.n, "spec": args.spec}
    if args.spec == "full":
        poly = ramyip.ramyip_sum(args.family, args.n, normalize=not args.no_normalize)
        if args.format == "json":  # text prints poly.render() only
            doc.update(normalized=not args.no_normalize, terms=_rf_terms_json(poly))
    else:
        if args.no_normalize:
            sys.stderr.write("note: --no-normalize only affects --spec full; "
                             "specializations always use the normalized sum\n")
        poly = ramyip.specialize(args.family, args.n, args.spec)
        doc["terms"] = _QRows(poly)
    _emit(args, poly.render, doc)
    return 0


def _cmd_ctable(args):
    rows = []
    for (k22, kmid, k11), value in cform.ctable(args.family, args.r, args.max_n):
        rows.append(
            {
                "k22": k22,
                "k21" if args.family == "A2dagger" else "k12": kmid,
                "k11": k11,
                "poly": _Rows((("q", "%d"), ("coeff", '"%d"')), value.sorted_terms()),
                "text": value.render(),
            }
        )
    print(_dumps({"family": args.family, "r": args.r, "values": rows}))
    return 0


_CHAR_FN = {
    "D": lambda n: weylchar.ch_D(n),
    "W": lambda n: weylchar.ch_W(n),
    "Wsigma": lambda n: weylchar.ch_W_sigma(n),
    "grW": lambda n: weylchar.pbw_character_specialized(n, twisted=False),
    "grWsigma": lambda n: weylchar.pbw_character_specialized(n, twisted=True),
}


def _cmd_weylchar(args):
    poly = _CHAR_FN[args.module](args.n)
    _emit(
        args,
        poly.render,
        {"module": args.module, "n": args.n, "terms": _QRows(poly)},
    )
    return 0


_BASIS_TEXT = "e=%-16s g=%-16s weight=%-3d tdeg=%-3d pbw=%d\n"
_BASIS_FIELDS = (("e", "%s"), ("g", "%s"), ("weight", "%d"), ("tdeg", "%d"), ("pbw", "%d"))


def _row_list(values):
    # An int list in a basis row, as _dumps indents it there.
    head, sep, tail = _ROW_LISTS
    return head + sep.join(map(str, values)) + tail if values else "[]"


def _basis_row(m):
    return _row_list(m.e_degrees), _row_list(m.g_degrees), m.weight, m.t_degree, m.pbw_degree


def _cmd_basis(args):
    # About 3^n monomials: the rows are rendered and written _CHUNK at a time.
    monomials = weylchar.enumerate_basis(args.kind, args.n)
    write = sys.stdout.write
    if args.format == "json":
        _encode({"kind": args.kind, "n": args.n, "count": len(monomials),
                 "monomials": _Rows(_BASIS_FIELDS, monomials, _basis_row)}, "\n", False, write)
        write("\n")
    else:
        for i in range(0, len(monomials), _CHUNK):
            write("".join([_BASIS_TEXT % (list(m.e_degrees), list(m.g_degrees), m.weight,
                                          m.t_degree, m.pbw_degree)
                           for m in monomials[i:i + _CHUNK]]))
        write("count: %d\n" % len(monomials))
    return 0


def _cmd_limitchar(args):
    if args.approx is not None:
        poly = weylchar.approximant(args.kind, args.approx, args.qmax, args.xmax)
    else:
        poly = weylchar.limit_char(args.kind, args.qmax, args.xmax)
    _emit(
        args,
        poly.render,
        {
            "kind": args.kind,
            "qmax": args.qmax,
            "xmax": args.xmax,
            "approximant_n": args.approx,
            "terms": _QRows(poly),
        },
    )
    return 0


def _parse_points(text):
    points = []
    for token in text.split(","):
        try:
            points.append(Fraction(token))
        except ZeroDivisionError:
            raise ValueError("point %r has a zero denominator" % token) from None
        except ValueError:
            raise ValueError("point %r is not a rational number" % token) from None
    return points


def _cmd_fusion(args):
    points = _parse_points(args.points)
    poly = fusion.fusion_character(args.n, points, twisted=args.twisted)
    _emit(
        args,
        lambda: "%s\ndimension: %d" % (poly.render(), poly.eval_at_ones()),
        {
            "n": args.n,
            "points": [str(p) for p in points],
            "twisted": args.twisted,
            "dimension": poly.eval_at_ones(),
            "terms": _QRows(poly),
        },
    )
    return 0


# The walk rows, in walks.walk_rows' field order; for JSON the folding lists
# come rendered by walk_rows' `lists`.
_WALK_TEXT = "mask=%s wt=%-3d d=%d h=%s leg=%-2d J0+=%s J0-=%s J+=%s J-=%s"
_WALK_FIELDS = (("mask", '"%s"'), ("wt", "%d"), ("d", "%d"), ("J0+", "%s"), ("J0-", "%s"),
                ("J+", "%s"), ("J-", "%s"), ("h", '"%s"'), ("leg", "%d"))


def _cmd_walks(args):
    cut = walks.CUT_SIGN[tuple(args.filter.split("-"))] if args.filter else None
    if args.format == "json":
        rows = walks.walk_rows(args.n, _ROW_LISTS, cut)
        print(_dumps({"n": args.n, "walks": _Rows(_WALK_FIELDS, rows)}))
    else:
        lines = [_WALK_TEXT % (mask, wt, d, h, leg, j0p, j0n, jp, jn)
                 for mask, wt, d, j0p, j0n, jp, jn, h, leg in walks.walk_rows(args.n, cut=cut)]
        lines.append("count: %d" % len(lines))
        print("\n".join(lines))
    return 0


# An entry's diff, as verify lists it: {x, q, coeff} dicts.
_DIFF_FIELDS = (("coeff", '"%s"'), ("q", "%d"), ("x", "%d"))
_DIFF_ROW = itemgetter("coeff", "q", "x")


def _cmd_verify(args):
    entries, exit_code = verify.run_suites(args.suite, args.max_n)
    _emit(
        args,
        lambda: "%s\n\nexit code: %d" % (verify.format_text_report(entries), exit_code),
        {"suite": args.suite, "max_n": args.max_n, "exit_code": exit_code,
         "entries": [dict(e, diff=_Rows(_DIFF_FIELDS, e["diff"], _DIFF_ROW)) for e in entries]},
    )
    return exit_code


# Each subcommand's help, handler and options, read by build_parser() and
# _table_parse().  An option has a type (int, str, or bool for a flag), the
# choices its converted value must lie in (None: any), whether it is
# required, its default and its help line; _INT is a required int.
_Command = namedtuple("_Command", "help fn options")
_Opt = namedtuple("_Opt", "type choices required default help", defaults=(None, False, None, None))
_INT = _Opt(int, required=True)
_FLAG = _Opt(bool, default=False)
_FORMAT = _Opt(str, ("text", "json"), default="text")
_FILTERS = tuple("%s-%s" % (f, s) for f in walks.FAMILIES for s in walks.SPECS)

_COMMANDS = {
    "epoly": _Command("E-polynomial, full or specialized", _cmd_epoly, {
        "--family": _Opt(str, walks.FAMILIES, True), "--n": _INT,
        "--spec": _Opt(str, ("full", "t0", "tinf"), True),
        "--no-normalize": _FLAG, "--format": _FORMAT}),
    "ctable": _Command("coefficient table dump (JSON)", _cmd_ctable, {
        "--family": _Opt(str, walks.FAMILIES, True), "--r": _Opt(int, (1, 2), True),
        "--max-n": _INT}),
    "weylchar": _Command("module characters", _cmd_weylchar, {
        "--module": _Opt(str, tuple(_CHAR_FN), True), "--n": _INT, "--format": _FORMAT}),
    "basis": _Command("basis monomial enumeration", _cmd_basis, {
        "--kind": _Opt(str, weylchar.KINDS, True), "--n": _INT, "--format": _FORMAT}),
    "limitchar": _Command("truncated limit characters", _cmd_limitchar, {
        "--kind": _Opt(str, weylchar.LIMIT_KINDS, True), "--qmax": _INT, "--xmax": _INT,
        "--approx": _Opt(int, help="render the n-th approximant instead"),
        "--format": _FORMAT}),
    "fusion": _Command("fusion-product graded character", _cmd_fusion, {
        "--n": _INT, "--points": _Opt(str, required=True, help="comma-separated rationals"),
        "--twisted": _FLAG, "--format": _FORMAT}),
    "walks": _Command("alcove walk dump", _cmd_walks, {
        "--n": _INT, "--filter": _Opt(str, _FILTERS), "--format": _FORMAT}),
    "verify": _Command("cross-verification suites", _cmd_verify, {
        "--suite": _Opt(str, verify.SUITES + ("all",), True),
        "--max-n": _Opt(int, default=3), "--format": _FORMAT}),
}


# The option a capacity limit bounds, per subcommand ("|--n|" where --n takes
# either sign), and for limitchar per SIZE_LIMITS key.
_BOUNDED = {"epoly": "|--n|", "ctable": "--max-n", "weylchar": "|--n|", "basis": "--n",
            "limitchar": {"limitchar": "--qmax", "characters": "--approx"},
            "fusion": "--n", "walks": "|--n|", "verify": "--max-n"}
# The option that picks the route, where a subcommand's routes differ in limit.
_ROUTE = {"epoly": "--spec", "weylchar": "--module", "verify": "--suite"}


def _limit_message(args, exc):
    """Exit 3's message: what was asked for, the option bounded and its
    limit, e.g. `epoly --spec full is limited to |--n| <= 12`."""
    option = _BOUNDED[args.command]
    if isinstance(option, dict):
        option = option[exc.name]
    asked = args.command
    if args.command in _ROUTE:
        route = _ROUTE[args.command]
        asked += " %s %s" % (route, getattr(args, route[2:]))
    return "%s is limited to %s <= %d" % (asked, option, exc.limit)


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            sys.stderr.write("error: %s\n" % message)
            raise SystemExit(1)

    parser = _Parser(prog="macweyl", description="Exact osp(1|2) Weyl-module characters and "
                     "rank-one Macdonald specializations, cross-verified by independent routes. "
                     "Exit codes: 0 success, 1 usage error, 2 mismatch, 3 input too large.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, fn, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, o in options.items():
            if o.type is bool:
                p.add_argument(name, action="store_true")
            else:
                p.add_argument(name, type=o.type, choices=o.choices, required=o.required,
                               default=o.default, help=o.help)
        p.set_defaults(fn=fn)
    return parser


def _table_parse(argv):
    """What build_parser().parse_args(argv) returns, or None for an argv that
    argparse might read otherwise: help, an abbreviated option, `--`, or any
    usage error."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        option = command.options.get(name)
        if option is None or option.type is bool and eq:
            return None
        if option.type is bool:
            value = True
        else:
            if not eq:
                # argparse reads a token starting with "-" as an option unless
                # it is a negative number (ASCII digits on every version).
                value = next(tokens, "-")  # a missing value is declined too
                if value[:1] == "-" and not (value.isascii() and value[1:].isdecimal()):
                    return None
            if value == "--":  # argparse before 3.13 drops it from --opt=--
                return None
            try:
                value = option.type(value)
            except ValueError:
                return None
            if option.choices is not None and value not in option.choices:
                return None
        values[name] = value
    if any(o.required and name not in values for name, o in command.options.items()):
        return None
    return SimpleNamespace(command=argv[0], fn=command.fn, **{
        name[2:].replace("-", "_"): values.get(name, o.default)
        for name, o in command.options.items()})


def _join_points(argv):
    """Rewrite `--points X` as `--points=X`, so that a list starting with a
    negative point is not read as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--points":
            out[-1] = "--points=" + arg
        else:
            out.append(arg)
    return out


@cache
def _parser():
    # Importing argparse and building its tree cost a few milliseconds, more
    # than many jobs compute, so only an argv that _table_parse declines
    # builds it; parse_args leaves the parser unchanged, so it is shared.
    return build_parser()


def run(argv=None):
    argv = _join_points(sys.argv[1:] if argv is None else argv)
    args = _table_parse(argv)
    if args is None:
        parser = _parser()
        args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            # --opt=-- reads [] before Python 3.13 and "--" from 3.13 on.
            if isinstance(value, list) or value == "--":
                parser.error("argument --%s: invalid value: '--'" % dest.replace("_", "-"))
    try:
        return args.fn(args)
    except ramyip.RouteMismatch as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except BoundExceeded as exc:
        sys.stderr.write("error: %s\n" % _limit_message(args, exc))
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        if exc.filename is not None:  # a file the program reads, not stdout
            raise
        # A write to stdout failed.  As in the "Note on SIGPIPE" of Python's
        # signal docs, stdout is pointed at devnull so that the flush at exit
        # does not fail again.  When the reader has gone (`macweyl walks ... |
        # head`), exit silently with 141 = 128 + SIGPIPE, the status a shell
        # reports for `cat` in the same place; on any other failure (a full
        # disk, `> /dev/full`), print one line and exit 74, EX_IOERR in
        # sysexits.h.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = 141
        else:
            sys.stderr.write("error: cannot write output: %s\n" % (exc.strerror or exc))
            code = 74
    sys.exit(code)


if __name__ == "__main__":
    main()
