"""Command-line surface: exact algebra operations with text, JSON, and
CSV output.

Elements are written in the grammar printed by the library itself:
`term (+ term)*` with `term := scalar(*letter)*`, letters `b<k>@t^<n>`
(k is the 1-based index shown by `basis`) and `d`; non-rational scalars
are parenthesized, e.g. `(1+2w)`.
"""

import argparse
import csv
import functools
import io
import json
import re
import sys

from . import __version__ as VERSION
from . import growth_harness as gh
from . import pbw_monomials as pbw
from . import reduction_engine as re_engine
from .characters import asymptotic_ratio, count_partitions, hilb_integrable
from .errors import InvariantError
from .loop_affine import D, AlgebraSpec, subalgebra_sl2hat, verify_sl2hat
from .scalars import format_scalar, parse_scalar

_LETTER_RE = re.compile(r"^b(\d+)@t\^(-?\d+)$")


class DomainError(ValueError):
    pass


class UsageError(ValueError):
    pass


# ----------------------------------------------------------------- parsing

def _split_top(text, sep):
    """Split on sep at parenthesis depth 0."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced ')' in %r" % text)
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError("unbalanced '(' in %r" % text)
    out.append("".join(cur))
    return out


def parse_letter(spec, tok):
    if tok == "d":
        if not spec.allow_d:
            raise DomainError("the degree letter needs the affine flavor")
        return D
    m = _LETTER_RE.match(tok)
    if m is None:
        raise UsageError(
            "bad letter %r: expected b<k>@t^<n> or d" % tok)
    k = int(m.group(1)) - 1
    n = int(m.group(2))
    if not 0 <= k < len(spec.basis.elements):
        raise DomainError("basis index %d out of range 1..%d"
                          % (k + 1, len(spec.basis.elements)))
    try:
        return spec.letter(k, n)
    except ValueError as exc:
        raise DomainError(str(exc))


def parse_terms(spec, text):
    """The element grammar as written: a list of (coefficient, word)
    pairs with the words kept in input order (not normalized)."""
    terms = []
    for pos, term in enumerate(_split_top(text.strip(), "+")):
        term = term.strip()
        if not term:
            raise UsageError("empty term at position %d" % (pos + 1))
        toks = [t.strip() for t in _split_top(term, "*")]
        stext = toks[0]
        if stext.startswith("(") and stext.endswith(")"):
            stext = stext[1:-1]
        try:
            c = parse_scalar(stext, spec.r)
        except ValueError:
            raise UsageError(
                "term %d: expected a scalar before the first '*', got %r"
                % (pos + 1, toks[0]))
        word = tuple(parse_letter(spec, t) for t in toks[1:])
        terms.append((c, word))
    return terms


def parse_element(spec, text):
    """Parse as an element of the symmetric algebra: words commute, so
    each is sorted into its standard monomial."""
    out = {}
    for c, word in parse_terms(spec, text):
        pbw.add_into(out, pbw.mono_sorted(spec, word), c)
    return out


def parse_monomial(spec, text):
    terms = parse_terms(spec, text)
    if len(terms) != 1 or terms[0][0] != 1:
        raise UsageError("expected a single monomial with coefficient 1")
    word = terms[0][1]
    if not word:
        raise UsageError("expected a nonempty monomial")
    return pbw.mono_sorted(spec, word)


# ------------------------------------------------------------ serialization

def format_chevalley(rs, elem):
    bits = []
    for k in sorted(elem.coeffs):
        bits.append("%s*%s" % (format_scalar(elem.coeffs[k]), rs.label(k)))
    return " + ".join(bits) if bits else "0"


def trace_payload(spec, trace):
    return [{"op": "bracket",
             "element": pbw.format_element(
                 spec, {((k, e),): c for k, c in lines})}
            for _, lines, e in trace.steps]


def _emit(args, command, payload, text_lines, csv_rows=None):
    if args.emit == "json":
        print(json.dumps({"command": command, "payload": payload,
                          "version": VERSION}))
    elif args.emit == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in csv_rows:
            w.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


def _spec(args, flavor=None):
    try:
        level = parse_scalar(args.level)
    except ValueError:
        raise UsageError("--level must be a rational number p or p/q")
    return AlgebraSpec(args.algebra, flavor=flavor or args.flavor,
                       level=level)


# ----------------------------------------------------------------- commands

def cmd_basis(args):
    spec = AlgebraSpec(args.algebra)
    basis = spec.basis
    rows = []
    for b in basis.elements:
        flag = {True: "pos", False: "neg"}.get(b.positive, "cartan")
        rows.append({
            "index": b.index + 1,
            "name": "b%d" % (b.index + 1),
            "sigma_weight": b.s,
            "kind": flag,
            "order_key": [b.s, b.lt],
            "chevalley": format_chevalley(basis.rs, b.elem),
        })
    header = ["index", "name", "sigma_weight", "kind", "order_key",
              "chevalley"]
    csv_rows = [header] + [[r[h] for h in header] for r in rows]
    text = ["%-5s %-5s %-12s %-7s %-10s %s" % tuple(header)]
    for r in rows:
        text.append("%-5d %-5s %-12d %-7s %-10s %s"
                    % (r["index"], r["name"], r["sigma_weight"], r["kind"],
                       str(r["order_key"]), r["chevalley"]))
    _emit(args, "basis", rows, text, csv_rows)


def cmd_bracket(args):
    spec = _spec(args)
    a = parse_element(spec, args.elements[0])
    b = parse_element(spec, args.elements[1])
    out = pbw.poisson(spec, a, b)
    _emit(args, "bracket", {"element": pbw.format_element(spec, out)},
          [pbw.format_element(spec, out)])


def cmd_straighten(args):
    spec = _spec(args)
    out = {}
    for c, word in parse_terms(spec, args.element):
        for m, v in pbw.straighten(spec, word, c).items():
            pbw.add_into(out, m, v)
    _emit(args, "straighten", {"element": pbw.format_element(spec, out)},
          [pbw.format_element(spec, out)])


def cmd_leading_term(args):
    spec = _spec(args)
    elem = parse_element(spec, args.element)
    if not elem:
        raise DomainError("the zero element has no leading term")
    mono, coeff = pbw.leading(spec, elem, reverse=(args.order == "reverse"))
    word = "*".join(spec.format_letter(L) for L in mono) or "1"
    payload = {"monomial": word, "coefficient": str(coeff)}
    _emit(args, "leading-term", payload,
          ["%s  (coefficient %s)" % (word, coeff)])


def cmd_reduce(args):
    spec = _spec(args, flavor="loop")
    F = parse_element(spec, args.generator)
    M = parse_monomial(spec, args.target)
    if args.uniform_n:
        n = re_engine.uniform_threshold(spec, F, len(M))
        if M[0][1] <= n:
            raise DomainError(
                "target exponent %d not above uniform threshold %d"
                % (M[0][1], n))
    letters = tuple(spec.basis.elements[L[0]] for L in M)
    plan = re_engine.reduction_plan(spec, F, letters)
    try:
        H, trace = re_engine.construct_H_M(spec, F, M, plan=plan)
    except re_engine.ThresholdError as exc:
        raise DomainError(
            "target exponent not above threshold %d for this class"
            % exc.threshold)
    if not args.uniform_n:
        n = plan["threshold"]
    ell = re_engine.min_exponent(spec, spec.encode(F))
    payload = {"h_m": pbw.format_element(spec, H),
               "trace": trace_payload(spec, trace), "n": n, "ell": ell}
    print(json.dumps({"command": "reduce", "payload": payload,
                      "version": VERSION}))


def cmd_project_derived(args):
    spec = _spec(args, flavor="affine")
    F = parse_element(spec, args.elem)
    H, trace = re_engine.project_to_derived(spec, F)
    payload = {"element": pbw.format_element(spec, H),
               "trace": trace_payload(spec, trace)}
    _emit(args, "project-derived", payload,
          [pbw.format_element(spec, H)])


def cmd_growth(args):
    spec = _spec(args, flavor=args.flavor)
    if spec.flavor not in ("current", "poscurrent"):
        raise UsageError("growth needs --flavor current or poscurrent")
    gens = [parse_element(spec, g) for g in args.ideal_gen]
    J = args.max_md
    if J < 0:
        raise DomainError("--max-md must be >= 0")
    amb = gh.ambient_dimension_series(spec, J)
    sat = gh.saturate(spec, gens, J)
    ideal = sat["dims_by_md"]
    m = max((len(m_) for g in gens for m_ in g), default=1)
    bound = None
    if len(gens) == 1 and gens[0] and m >= 1:
        loop = AlgebraSpec(spec.basis, flavor="loop")
        try:
            if m <= 2:
                n = re_engine.uniform_threshold(loop, gens[0], m)
                bound = [gh.count_normal_words(
                    len(spec.basis.elements), m, max(n, 1), j)
                    for j in range(J + 1)]
        except ValueError:
            bound = None
    rows = []
    tot_i = 0
    for j in range(J + 1):
        tot_i += ideal[j]
        rows.append({"j": j, "dim_full": amb[j], "dim_ideal": tot_i,
                     "dim_quotient": amb[j] - tot_i,
                     "bound": bound[j] if bound else None})
    header = ["j", "dim_full", "dim_ideal", "dim_quotient", "bound"]
    csv_rows = [header] + [[r[h] for h in header] for r in rows]
    text = ["%6s %9s %10s %13s %12s" % tuple(header)]
    for r in rows:
        text.append("%6d %9d %10d %13d %12s"
                    % (r["j"], r["dim_full"], r["dim_ideal"],
                       r["dim_quotient"], r["bound"]))
    _emit(args, "growth", rows, text, csv_rows)


def cmd_character(args):
    if args.k1 < 0 or args.k2 < 0 or (args.k1 == 0 and args.k2 == 0):
        raise DomainError("need nonnegative weight labels, not both zero")
    if args.terms < 0:
        raise DomainError("--terms must be >= 0")
    series, exact = hilb_integrable(args.k1, args.k2, args.terms)
    payload = {"coefficients": [int(c) for c in series.coeffs],
               "exact": exact}
    header = ["n", "coefficient"]
    csv_rows = [header] + [[i, int(c)] for i, c in enumerate(series.coeffs)]
    text = ["exact" if exact else "lower bound (exact series undetermined)",
            " ".join(str(c) for c in series.coeffs)]
    _emit(args, "character", payload, text, csv_rows)


def cmd_partitions(args):
    if args.parts == "odd":
        parts = "odd"
    elif args.parts.startswith("mod:"):
        try:
            m, rho = (int(x) for x in args.parts[4:].split(","))
        except ValueError:
            raise UsageError("--parts mod:<m>,<rho>")
        parts = ("mod", m, rho)
    else:
        raise UsageError("--parts must be odd or mod:<m>,<rho>")
    if args.n < 0:
        raise DomainError("n must be nonnegative")
    val = count_partitions(args.n, parts)
    _emit(args, "partitions", {"n": args.n, "count": val}, [str(val)],
          [["n", "count"], [args.n, val]])


def cmd_asymptotic(args):
    if args.n < 1:
        raise DomainError("n must be >= 1")
    ratio = asymptotic_ratio(args.n)
    _emit(args, "asymptotic", {"n": args.n, "ratio": ratio},
          ["%.12f" % ratio], [["n", "ratio"], [args.n, ratio]])


def cmd_subalgebra(args):
    spec = _spec(args, flavor="affine")
    try:
        data = subalgebra_sl2hat(spec, args.index)
    except (ValueError, IndexError) as exc:
        raise DomainError(str(exc))
    failed = [desc for desc, ok in verify_sl2hat(spec, data) if not ok]
    if failed:
        raise InvariantError("affine sl2 families do not close: %s"
                             % ", ".join(failed))
    k = data["k"]
    payload = {
        "e": pbw.format_element(
            spec, {((data["e"].index, k),): 1}),
        "f": pbw.format_element(
            spec, {((data["f"].index, -k),): data["f_scale"]}),
        "kappa": str(data["kappa"]),
        "central_scale": str(data["central_scale"]),
        "orbit_size": data["orbit_size"],
    }
    text = ["e' = %s" % payload["e"], "f' = %s" % payload["f"],
            "kappa(e',f') = %s" % payload["kappa"],
            "central scale = %s" % payload["central_scale"]]
    _emit(args, "subalgebra-sl2hat", payload, text)


# ------------------------------------------------------------------ driver

class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with -<digit>, such as -3*b1@t^0, as a
    value rather than an option; no option starts with a digit.  The
    subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


@functools.cache
def build_parser():
    """The `loopalg` argument parser, built on the first call and shared
    by every later one in the process.  It is not built at import, which
    would add the build's few milliseconds to every `import loopalg`.

    Sharing is safe because parsing leaves the parser as it was:
    `parse_args` writes only to the new namespace, argparse copies the
    `--ideal-gen` default list before it appends to it, and no command
    mutates a parsed value."""
    p = _Parser(
        prog="loopalg",
        description="Exact computations in twisted loop and affine "
                    "Kac-Moody algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("algebra", help="label like A2:r2 or D4:r3")
        sp.add_argument("--flavor", default="loop",
                        choices=["loop", "current", "poscurrent", "affine",
                                 "derived"])
        sp.add_argument("--level", default="0",
                        help="central-element value (a scalar)")
        sp.add_argument("--emit", default="text", choices=["text", "json"])

    sp = sub.add_parser("basis", help="print the equivariant basis")
    sp.add_argument("algebra")
    sp.add_argument("--emit", default="text",
                    choices=["text", "json", "csv"])
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("bracket", help="Poisson bracket of two elements")
    common(sp)
    sp.add_argument("elements", nargs=2)
    sp.set_defaults(func=cmd_bracket)

    sp = sub.add_parser("straighten",
                        help="normal-order a word in the enveloping algebra")
    common(sp)
    sp.add_argument("element")
    sp.set_defaults(func=cmd_straighten)

    sp = sub.add_parser("leading-term", help="leading standard monomial")
    common(sp)
    sp.add_argument("element")
    sp.add_argument("--order", default="standard",
                    choices=["standard", "reverse"])
    sp.set_defaults(func=cmd_leading_term)

    sp = sub.add_parser("reduce",
                        help="ideal element with prescribed leading term")
    sp.add_argument("algebra")
    sp.add_argument("--generator", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--uniform-n", action="store_true")
    sp.add_argument("--flavor", default="loop", choices=["loop"])
    sp.add_argument("--level", default="0")
    sp.add_argument("--emit", default="json", choices=["json"])
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("project-derived",
                        help="bracket the degree letter away")
    sp.add_argument("algebra")
    sp.add_argument("--level", default="0")
    sp.add_argument("--elem", required=True)
    sp.add_argument("--emit", default="text",
                    choices=["text", "json"])
    sp.set_defaults(func=cmd_project_derived)

    sp = sub.add_parser("growth", help="filtered dimension table")
    sp.add_argument("algebra")
    sp.add_argument("--ideal-gen", action="append", default=[],
                    help="ideal generator (repeatable)")
    sp.add_argument("--max-md", dest="max_md", type=int, required=True)
    sp.add_argument("--flavor", default="current",
                    choices=["current", "poscurrent"])
    sp.add_argument("--level", default="0")
    sp.add_argument("--emit", default="text",
                    choices=["text", "json", "csv"])
    sp.set_defaults(func=cmd_growth)

    sp = sub.add_parser("character",
                        help="Hilbert series of an integrable module")
    sp.add_argument("--k1", type=int, required=True)
    sp.add_argument("--k2", type=int, required=True)
    sp.add_argument("--terms", type=int, default=20)
    sp.add_argument("--emit", default="text",
                    choices=["text", "json", "csv"])
    sp.set_defaults(func=cmd_character)

    sp = sub.add_parser("partitions", help="restricted partition count")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--parts", default="odd")
    sp.add_argument("--emit", default="text",
                    choices=["text", "json", "csv"])
    sp.set_defaults(func=cmd_partitions)

    sp = sub.add_parser("asymptotic",
                        help="odd-part partition count vs. its asymptotic")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--emit", default="text",
                    choices=["text", "json", "csv"])
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("subalgebra-sl2hat",
                        help="affine sl2 subalgebra at a vertex")
    sp.add_argument("algebra")
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--level", default="0")
    sp.add_argument("--emit", default="text",
                    choices=["text", "json"])
    sp.set_defaults(func=cmd_subalgebra)

    return p


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
