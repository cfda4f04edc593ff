"""Command-line surface: exact algebra operations with text, JSON, and
CSV output.

Elements are written in the grammar printed by the library itself:
`term (+ term)*` with `term := scalar(*letter)*`, letters `b<k>@t^<n>`
(k is the 1-based index shown by `basis`) and `d`; non-rational scalars
are parenthesized, e.g. `(1+2w)`.
"""

import argparse
import contextlib
import csv
import functools
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
            raise ValueError("the degree letter needs the affine flavor")
        return D
    m = _LETTER_RE.match(tok)
    if m is None:
        raise UsageError(
            "bad letter %r: expected b<k>@t^<n> or d" % tok)
    k = int(m.group(1)) - 1
    n = int(m.group(2))
    if not 0 <= k < len(spec.basis.elements):
        raise ValueError("basis index %d out of range 1..%d"
                         % (k + 1, len(spec.basis.elements)))
    return spec.letter(k, n)


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
    return " + ".join("%s*%s" % (format_scalar(elem.coeffs[k]), rs.label(k))
                      for k in sorted(elem.coeffs)) or "0"


def trace_payload(spec, trace):
    return [{"op": "bracket",
             "element": pbw.format_element(
                 spec, {((k, e),): c for k, c in lines})}
            for _, lines, e in trace.steps]


def _table(header, layout, rows):
    """A table as (payload, text lines, CSV rows): one JSON object per
    row, and text laid out by `layout` for the header and each row alike
    (for an int, %s prints what %d prints)."""
    return ([dict(zip(header, row)) for row in rows],
            [layout % tuple(row) for row in [header, *rows]],
            [header, *rows])


def _element(spec, elem, trace=None):
    """An element as (payload, text lines, CSV rows), with the reduction
    trace in the payload where there is one; there is no CSV form."""
    text = pbw.format_element(spec, elem)
    payload = {"element": text}
    if trace is not None:
        payload["trace"] = trace_payload(spec, trace)
    return payload, [text], None


def _emit(args, payload, text_lines, csv_rows):
    if args.emit == "json":
        print(json.dumps({"command": args.command, "payload": payload,
                          "version": VERSION}))
    elif args.emit == "csv":
        csv.writer(sys.stdout).writerows(csv_rows)
    else:
        print(*text_lines, sep="\n")


def _spec(args, flavor=None):
    try:
        level = parse_scalar(args.level)
    except ValueError:
        raise UsageError("--level must be a rational number p or p/q")
    return AlgebraSpec(args.algebra, flavor=flavor or args.flavor,
                       level=level)


# ----------------------------------------------------------------- commands
#
# Each command returns (payload, text lines, CSV rows) for `_emit`; the CSV
# rows are None where `--emit csv` is not offered.

def cmd_basis(args):
    basis = AlgebraSpec(args.algebra).basis
    kind = {True: "pos", False: "neg"}
    return _table(
        ["index", "name", "sigma_weight", "kind", "order_key", "chevalley"],
        "%-5s %-5s %-12s %-7s %-10s %s",
        [[b.index + 1, "b%d" % (b.index + 1), b.s,
          kind.get(b.positive, "cartan"), [b.s, b.lt],
          format_chevalley(basis.rs, b.elem)] for b in basis.elements])


def cmd_bracket(args):
    spec = _spec(args)
    a, b = (parse_element(spec, text) for text in args.elements)
    return _element(spec, pbw.poisson(spec, a, b))


def cmd_straighten(args):
    spec = _spec(args)
    out = {}
    for c, word in parse_terms(spec, args.element):
        for m, v in pbw.straighten(spec, word, c).items():
            pbw.add_into(out, m, v)
    return _element(spec, out)


def cmd_leading_term(args):
    spec = _spec(args)
    elem = parse_element(spec, args.element)
    mono, coeff = pbw.leading(spec, elem, reverse=(args.order == "reverse"))
    word = "*".join(spec.format_letter(L) for L in mono) or "1"
    coeff = format_scalar(coeff)
    return ({"monomial": word, "coefficient": coeff},
            ["%s  (coefficient %s)" % (word, coeff)], None)


def cmd_reduce(args):
    spec = _spec(args, flavor="loop")
    F = parse_element(spec, args.generator)
    M = parse_monomial(spec, args.target)
    if args.uniform_n:
        n = re_engine.uniform_threshold(spec, F, len(M))
        if M[0][1] <= n:
            raise ValueError(
                "target exponent %d not above uniform threshold %d"
                % (M[0][1], n))
    letters = tuple(spec.basis.elements[L[0]] for L in M)
    plan = re_engine.reduction_plan(spec, F, letters)
    try:
        H, trace = re_engine.construct_H_M(spec, F, M, plan=plan)
    except re_engine.ThresholdError as exc:
        raise ValueError(
            "target exponent not above threshold %d for this class"
            % exc.threshold)
    if not args.uniform_n:
        n = plan["threshold"]
    ell = re_engine.min_exponent(spec, spec.encode(F))
    return ({"h_m": pbw.format_element(spec, H),
             "trace": trace_payload(spec, trace), "n": n, "ell": ell},
            None, None)


def cmd_project_derived(args):
    spec = _spec(args, flavor="affine")
    F = parse_element(spec, args.elem)
    return _element(spec, *re_engine.project_to_derived(spec, F))


def cmd_growth(args):
    spec = _spec(args, flavor=args.flavor)
    if spec.flavor not in ("current", "poscurrent"):
        raise UsageError("growth needs --flavor current or poscurrent")
    gens = [parse_element(spec, g) for g in args.ideal_gen]
    J = args.max_md
    if J < 0:
        raise ValueError("--max-md must be >= 0")
    amb = gh.ambient_dimension_series(spec, J)
    quot = gh.quotient_dimension_series(spec, gens, J)
    m = max((len(m_) for g in gens for m_ in g), default=1)
    bound = [None] * (J + 1)
    if len(gens) == 1 and gens[0] and 1 <= m <= 2:
        loop = AlgebraSpec(spec.basis, flavor="loop")
        with contextlib.suppress(ValueError):
            n = re_engine.uniform_threshold(loop, gens[0], m)
            bound = [gh.count_normal_words(
                len(spec.basis.elements), m, max(n, 1), j)
                for j in range(J + 1)]
    return _table(["j", "dim_full", "dim_ideal", "dim_quotient", "bound"],
                  "%6s %9s %10s %13s %12s",
                  [[j, a, a - q, q, b] for j, (a, q, b)
                   in enumerate(zip(amb, quot, bound))])


def cmd_character(args):
    if args.k1 < 0 or args.k2 < 0 or (args.k1 == 0 and args.k2 == 0):
        raise ValueError("need nonnegative weight labels, not both zero")
    if args.terms < 0:
        raise ValueError("--terms must be >= 0")
    series, exact = hilb_integrable(args.k1, args.k2, args.terms)
    coeffs = [int(c) for c in series.coeffs]
    text = ["exact" if exact else "lower bound (exact series undetermined)",
            " ".join(map(str, coeffs))]
    return ({"coefficients": coeffs, "exact": exact}, text,
            [["n", "coefficient"], *enumerate(coeffs)])


def cmd_partitions(args):
    parts = args.parts
    if parts.startswith("mod:"):
        try:
            m, rho = (int(x) for x in parts[4:].split(","))
        except ValueError:
            raise UsageError("--parts mod:<m>,<rho>")
        parts = ("mod", m, rho)
    elif parts != "odd":
        raise UsageError("--parts must be odd or mod:<m>,<rho>")
    val = count_partitions(args.n, parts)
    return ({"n": args.n, "count": val}, [str(val)],
            [["n", "count"], [args.n, val]])


def cmd_asymptotic(args):
    ratio = asymptotic_ratio(args.n)
    return ({"n": args.n, "ratio": ratio}, ["%.12f" % ratio],
            [["n", "ratio"], [args.n, ratio]])


def cmd_subalgebra(args):
    spec = _spec(args, flavor="affine")
    data = subalgebra_sl2hat(spec, args.index)
    failed = [desc for desc, ok in verify_sl2hat(spec, data) if not ok]
    if failed:
        raise InvariantError("affine sl2 families do not close: %s"
                             % ", ".join(failed))
    k = data["k"]
    e = pbw.format_element(spec, {((data["e"].index, k),): 1})
    f = pbw.format_element(spec, {((data["f"].index, -k),): data["f_scale"]})
    kappa, scale = str(data["kappa"]), str(data["central_scale"])
    return ({"e": e, "f": f, "kappa": kappa, "central_scale": scale,
             "orbit_size": data["orbit_size"]},
            ["e' = " + e, "f' = " + f, "kappa(e',f') = " + kappa,
             "central scale = " + scale], None)


# ------------------------------------------------------------------ driver

def _arg(flag, **keywords):
    return flag, keywords


_ALGEBRA, _LEVEL = _arg("algebra"), _arg("--level", default="0")
_EMIT_TEXT = _arg("--emit", default="text", choices=["text", "json"])
_EMIT_TABLE = _arg("--emit", default="text", choices=["text", "json", "csv"])
_ELEMENT_COMMON = [
    _arg("algebra", help="label like A2:r2 or D4:r3"),
    _arg("--flavor", default="loop",
         choices=["loop", "current", "poscurrent", "affine", "derived"]),
    _arg("--level", default="0", help="central-element value (a scalar)"),
    _EMIT_TEXT]

# name -> (function, help, arguments), in `--help` order.  The arguments
# are (name or flag, add_argument keywords) in the order that usage and
# help list them; `--emit` is one of them because its place in that order
# differs between commands.
_COMMANDS = {
    "basis": (cmd_basis, "print the equivariant basis",
              [_ALGEBRA, _EMIT_TABLE]),
    "bracket": (cmd_bracket, "Poisson bracket of two elements",
                [*_ELEMENT_COMMON, _arg("elements", nargs=2)]),
    "straighten": (cmd_straighten,
                   "normal-order a word in the enveloping algebra",
                   [*_ELEMENT_COMMON, _arg("element")]),
    "leading-term": (cmd_leading_term, "leading standard monomial",
                     [*_ELEMENT_COMMON, _arg("element"),
                      _arg("--order", default="standard",
                           choices=["standard", "reverse"])]),
    "reduce": (cmd_reduce, "ideal element with prescribed leading term",
               [_ALGEBRA, _arg("--generator", required=True),
                _arg("--target", required=True),
                _arg("--uniform-n", action="store_true"),
                _arg("--flavor", default="loop", choices=["loop"]), _LEVEL,
                _arg("--emit", default="json", choices=["json"])]),
    "project-derived": (cmd_project_derived,
                        "bracket the degree letter away",
                        [_ALGEBRA, _LEVEL, _arg("--elem", required=True),
                         _EMIT_TEXT]),
    "growth": (cmd_growth, "filtered dimension table",
               [_ALGEBRA, _arg("--ideal-gen", action="append", default=[],
                               help="ideal generator (repeatable)"),
                _arg("--max-md", dest="max_md", type=int, required=True),
                _arg("--flavor", default="current",
                     choices=["current", "poscurrent"]),
                _LEVEL, _EMIT_TABLE]),
    "character": (cmd_character, "Hilbert series of an integrable module",
                  [_arg("--k1", type=int, required=True),
                   _arg("--k2", type=int, required=True),
                   _arg("--terms", type=int, default=20), _EMIT_TABLE]),
    "partitions": (cmd_partitions, "restricted partition count",
                   [_arg("--n", type=int, required=True),
                    _arg("--parts", default="odd"), _EMIT_TABLE]),
    "asymptotic": (cmd_asymptotic,
                   "odd-part partition count vs. its asymptotic",
                   [_arg("--n", type=int, required=True), _EMIT_TABLE]),
    "subalgebra-sl2hat": (cmd_subalgebra,
                          "affine sl2 subalgebra at a vertex",
                          [_ALGEBRA, _arg("--index", type=int, required=True),
                           _LEVEL, _EMIT_TEXT]),
}


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
    for name, (func, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func)
    return p


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        _emit(args, *args.func(args))
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
