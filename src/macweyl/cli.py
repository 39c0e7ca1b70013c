"""Command-line front end.

Subcommands: epoly, ctable, weylchar, basis, limitchar, fusion, walks,
verify.  All but ctable, which prints JSON only, take --format text|json.
Text output uses the canonical term ordering.  JSON follows the schemas
documented in the README and is byte for byte what json.dumps(obj,
indent=2) prints, with sorted keys where the subcommand sorts them.
Polynomial term lists do not go through the stdlib's pure-Python indenting
encoder: a list of {coeff, q, x} rows is rendered one x block at a time, by
one %-template that repeats the row once per q-term with that block's x
already written in, and the other term lists by one %-template per row.
Exit codes: 0 success, 1 usage error, 2 verification mismatch that no
errata rule explains (including disagreeing specialization routes in epoly,
and a limit that diverges on the exact route), 3 an input beyond the size a
route is configured to compute.

run() may be called any number of times in one process.  All calls share one
parser, built on the first call; build_parser() returns a fresh one.
"""

import argparse
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from macweyl import cform, fusion, ramyip, verify, walks, weylchar
from macweyl.ring import BoundExceeded


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


# A JSON list of flat objects that share one key set: `fields` holds (key,
# %-format) pairs and `values` one tuple per object, in field order.
_Rows = namedtuple("_Rows", "fields values")

# The {coeff, q, x} rows of an XPolynomial over QPolynomial, x-major, q
# ascending.  Each x block is rendered by one call of one %-template, the row
# template repeated once per term with that x written in.  The keys are in
# sorted order already, so sort_keys does not change the output.
_QRows = namedtuple("_QRows", "poly")


_COEFF_Q_V = (("coeff", '"%d"'), ("q", "%d"), ("v", "%d"))
_LITERALS = {None: "null", True: "true", False: "false"}


def _dumps(obj, sort_keys=False):
    """json.dumps(obj, indent=2, sort_keys=sort_keys), byte for byte, where
    each _Rows in obj stands for the list of objects it describes."""
    out = []
    _encode(obj, "\n", sort_keys, out)
    return "".join(out)


def _encode(obj, nl, sort_keys, out):
    # nl is a newline plus the indentation of the line obj starts on.
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_LITERALS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, _Rows):
        out.append(_encode_rows(obj, nl, sort_keys))
    elif isinstance(obj, _QRows):
        out.append(_encode_q_rows(obj.poly, nl))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{"
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            out.append(sep + inner + _quote(key) + ": ")
            _encode(value, inner, sort_keys, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "["
        for value in obj:
            out.append(sep + inner)
            _encode(value, inner, sort_keys, out)
            sep = ","
        out.append(nl + "]")
    else:
        raise TypeError("cannot encode %r as JSON" % (obj,))


def _encode_rows(rows, nl, sort_keys):
    if not rows.values:
        return "[]"
    fields, values = rows.fields, rows.values
    if sort_keys:
        order = sorted(range(len(fields)), key=lambda i: fields[i][0])
        if order != list(range(len(fields))):
            fields = [fields[i] for i in order]
            values = [tuple(v[i] for i in order) for v in values]
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    template = "{%s%s}" % (
        ",".join(key_nl + _quote(k).replace("%", "%%") + ": " + fmt for k, fmt in fields),
        row_nl,
    )
    return "[%s%s%s]" % (row_nl, ("," + row_nl).join(map(template.__mod__, values)), nl)


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
    if args.spec == "full":
        poly = ramyip.ramyip_sum(args.family, args.n, normalize=not args.no_normalize)
        _emit(
            args,
            poly.render,
            {
                "family": args.family,
                "n": args.n,
                "spec": "full",
                "normalized": not args.no_normalize,
                "terms": _rf_terms_json(poly),
            },
        )
        return 0
    if args.no_normalize:
        sys.stderr.write("note: --no-normalize only affects --spec full; "
                         "specializations always use the normalized sum\n")
    poly = ramyip.specialize(args.family, args.n, args.spec)
    _emit(
        args,
        poly.render,
        {
            "family": args.family,
            "n": args.n,
            "spec": args.spec,
            "terms": _QRows(poly),
        },
    )
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


def _cmd_basis(args):
    monomials = weylchar.enumerate_basis(args.kind, args.n)
    rows = [
        {
            "e": list(m.e_degrees),
            "g": list(m.g_degrees),
            "weight": m.weight,
            "tdeg": m.t_degree,
            "pbw": m.pbw_degree,
        }
        for m in monomials
    ]
    if args.format == "json":
        print(_dumps({"kind": args.kind, "n": args.n, "count": len(rows), "monomials": rows}))
    else:
        for r in rows:
            print(
                "e=%-16s g=%-16s weight=%-3d tdeg=%-3d pbw=%d"
                % (r["e"], r["g"], r["weight"], r["tdeg"], r["pbw"])
            )
        print("count: %d" % len(rows))
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


# One %-template per walk row, in walks.walk_rows' field order for JSON; the
# folding lists come rendered at their indentation, by walk_rows' `lists`.
_WALK_TEXT = "mask=%s wt=%-3d d=%d h=%s leg=%-2d J0+=%s J0-=%s J+=%s J-=%s"
_WALK_JSON = "{%s\n    }" % ",".join(
    '\n      "%s": %s' % field
    for field in (("mask", '"%s"'), ("wt", "%d"), ("d", "%d"), ("J0+", "%s"), ("J0-", "%s"),
                  ("J+", "%s"), ("J-", "%s"), ("h", '"%s"'), ("leg", "%d")))
_WALK_JSON_LISTS = ("[\n        ", ",\n        ", "\n      ]")


def _cmd_walks(args):
    cut = walks.CUT_SIGN[tuple(args.filter.split("-"))] if args.filter else None
    if args.format == "json":
        # Never empty: the walk that only crosses survives every filter.
        rows = map(_WALK_JSON.__mod__, walks.walk_rows(args.n, _WALK_JSON_LISTS, cut))
        print('{\n  "n": %d,\n  "walks": [\n    %s\n  ]\n}' % (args.n, ",\n    ".join(rows)))
    else:
        lines = [_WALK_TEXT % (mask, wt, d, h, leg, j0p, j0n, jp, jn)
                 for mask, wt, d, j0p, j0n, jp, jn, h, leg in walks.walk_rows(args.n, cut=cut)]
        lines.append("count: %d" % len(lines))
        print("\n".join(lines))
    return 0


def _cmd_verify(args):
    entries, exit_code = verify.run_suites(args.suite, args.max_n)
    if args.format == "json":
        print(
            _dumps(
                {
                    "suite": args.suite,
                    "max_n": args.max_n,
                    "exit_code": exit_code,
                    "entries": entries,
                },
                sort_keys=True,
            )
        )
    else:
        print(verify.format_text_report(entries))
        print("")
        print("exit code: %d" % exit_code)
    return exit_code


def build_parser():
    parser = _Parser(prog="macweyl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("epoly", help="E-polynomial, full or specialized")
    p.add_argument("--family", choices=walks.FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", choices=("full", "t0", "tinf"), required=True)
    p.add_argument("--no-normalize", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_epoly)

    p = sub.add_parser("ctable", help="coefficient table dump (JSON)")
    p.add_argument("--family", choices=walks.FAMILIES, required=True)
    p.add_argument("--r", type=int, choices=(1, 2), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=_cmd_ctable)

    p = sub.add_parser("weylchar", help="module characters")
    p.add_argument("--module", choices=tuple(_CHAR_FN), required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_weylchar)

    p = sub.add_parser("basis", help="basis monomial enumeration")
    p.add_argument("--kind", choices=weylchar.KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("limitchar", help="truncated limit characters")
    p.add_argument("--kind", choices=weylchar.LIMIT_KINDS, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--approx", type=int, default=None, help="render the n-th approximant instead")
    add_format(p)
    p.set_defaults(fn=_cmd_limitchar)

    p = sub.add_parser("fusion", help="fusion-product graded character")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=str, required=True, help="comma-separated rationals")
    p.add_argument("--twisted", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_fusion)

    p = sub.add_parser("walks", help="alcove walk dump")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--filter",
        choices=tuple("%s-%s" % (f, s) for f in walks.FAMILIES for s in walks.SPECS),
        default=None,
    )
    add_format(p)
    p.set_defaults(fn=_cmd_walks)

    p = sub.add_parser("verify", help="cross-verification suites")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), required=True)
    p.add_argument("--max-n", type=int, default=3)
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


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
    # Building the argparse tree costs about a millisecond, more than many
    # jobs compute; parse_args leaves the parser unchanged, so it is shared.
    return build_parser()


def run(argv=None):
    args = _parser().parse_args(_join_points(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except ramyip.RouteMismatch as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except BoundExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
