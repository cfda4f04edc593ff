import argparse
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import loopalg
from loopalg.cli import build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_a2_r2(capsys):
    code, out, _ = invoke(capsys, "basis", "A2:r2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    # weight-1 chain runs lowest-root line, odd Cartan, highest-root line
    assert "h1 + -1*h2" in out


def test_basis_json_shape(capsys):
    code, out, _ = invoke(capsys, "basis", "D4:r3", "--emit", "json")
    doc = json.loads(out)
    assert doc["command"] == "basis"
    assert doc["version"] == loopalg.__version__
    assert len(doc["payload"]) == 28
    assert [r["sigma_weight"] for r in doc["payload"]] == \
        sorted(r["sigma_weight"] for r in doc["payload"])


def test_basis_csv_header(capsys):
    code, out, _ = invoke(capsys, "basis", "A1:r1", "--emit", "csv")
    assert out.splitlines()[0].startswith("index,name,sigma_weight")
    assert len(out.strip().splitlines()) == 4


def test_straighten_golden(capsys):
    code, out, _ = invoke(
        capsys, "straighten", "A1:r1", "--flavor", "affine", "--level", "1",
        "1*b3@t^1*b1@t^-1")
    assert code == 0
    assert out.strip() == "1*b1@t^-1*b3@t^1 + 1*b2@t^0 + 4"


@pytest.mark.parametrize("element,want", [
    ("1*b3@t^1*b1@t^-1 + -1*b1@t^-1*b3@t^1", "1*b2@t^0 + 4"),
    ("1*b3@t^1*b1@t^-1 + -1*b1@t^-1*b3@t^1 + -1*b2@t^0 + -4", "0"),
])
def test_straighten_golden_terms_cancel(capsys, element, want):
    code, out, _ = invoke(
        capsys, "straighten", "A1:r1", "--flavor", "affine", "--level", "1",
        element)
    assert code == 0
    assert out.strip() == want


def test_bracket(capsys):
    code, out, _ = invoke(capsys, "bracket", "A1:r1",
                          "1*b3@t^0", "1*b1@t^0")
    assert code == 0 and out.strip() == "1*b2@t^0"


def test_leading_term(capsys):
    code, out, _ = invoke(capsys, "leading-term", "A1:r1",
                          "1*b3@t^2*b1@t^0 + 1*b2@t^1")
    assert code == 0 and out.startswith("b1@t^0*b3@t^2")
    code, out, _ = invoke(capsys, "leading-term", "A1:r1",
                          "1*b3@t^2*b1@t^0 + 1*b2@t^1", "--order", "reverse")
    assert code == 0 and out.startswith("b1@t^0*b3@t^2")


def test_leading_term_coefficient_round_trips(capsys):
    from loopalg.cli import parse_element
    from loopalg.loop_affine import AlgebraSpec
    from loopalg.scalars import format_scalar, parse_scalar
    code, out, _ = invoke(capsys, "leading-term", "D4:r3", "(1+2w)*b1@t^0",
                          "--emit", "json")
    p = json.loads(out)["payload"]
    assert code == 0 and p["coefficient"] == "(1+2w)"
    assert format_scalar(parse_scalar(p["coefficient"], 3)) == "(1+2w)"
    spec = AlgebraSpec("D4:r3")
    assert parse_element(spec, "%s*%s" % (p["coefficient"], p["monomial"])) \
        == parse_element(spec, "(1+2w)*b1@t^0")


def test_reduce_payload(capsys):
    code, out, _ = invoke(capsys, "reduce", "A1:r1",
                          "--generator", "1*b3@t^1",
                          "--target", "1*b1@t^25")
    assert code == 0
    doc = json.loads(out)
    p = doc["payload"]
    assert p["h_m"].endswith("b1@t^25")
    assert p["ell"] == 1 and p["n"] < 25
    assert all(s["op"] == "bracket" for s in p["trace"])


def test_reduce_below_threshold_is_domain_error(capsys):
    code, _, err = invoke(capsys, "reduce", "A1:r1",
                          "--generator", "1*b3@t^1",
                          "--target", "1*b1@t^1")
    assert code == 1 and "threshold" in err


def test_project_derived(capsys):
    code, out, _ = invoke(capsys, "project-derived", "A1:r1",
                          "--elem", "1*d*b3@t^1")
    assert code == 0 and "d" not in out.split()[0].split("*")


def test_growth_csv(capsys):
    code, out, _ = invoke(capsys, "growth", "A1:r1",
                          "--ideal-gen", "1*b3@t^1", "--max-md", "5",
                          "--emit", "csv")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()]
    assert rows[0] == ["j", "dim_full", "dim_ideal", "dim_quotient", "bound"]
    got = [int(r[3]) for r in rows[1:]]
    assert got == [1, 4, 10, 20, 35, 56]


def test_character_and_partitions(capsys):
    code, out, _ = invoke(capsys, "partitions", "--n", "5",
                          "--parts", "odd")
    assert code == 0 and out.strip() == "3"
    code, out, _ = invoke(capsys, "partitions", "--n", "5",
                          "--parts", "mod:2,1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = invoke(capsys, "character", "--k1", "1", "--k2", "1",
                          "--terms", "5", "--emit", "json")
    doc = json.loads(out)
    assert doc["payload"]["exact"] is True
    assert doc["payload"]["coefficients"] == [1, 2, 2, 4, 6, 8]


def test_asymptotic(capsys):
    code, out, _ = invoke(capsys, "asymptotic", "--n", "200")
    assert code == 0 and abs(float(out) - 1) < 0.05


def test_subalgebra(capsys):
    code, out, _ = invoke(capsys, "subalgebra-sl2hat", "D4:r3",
                          "--index", "2", "--emit", "json")
    doc = json.loads(out)
    assert doc["payload"]["kappa"] == "12"


def test_usage_and_domain_exit_codes(capsys):
    code, _, err = invoke(capsys, "bracket", "A1:r1", "1*garbage", "1*b1@t^0")
    assert code == 2 and "letter" in err
    code, _, err = invoke(capsys, "bracket", "A1:r1", "1*b9@t^0", "1*b1@t^0")
    assert code == 1
    code, _, err = invoke(capsys, "partitions", "--n", "-2")
    assert code == 1
    code, _, err = invoke(capsys, "character", "--k1", "0", "--k2", "0")
    assert code == 1


def test_print_parse_identity(capsys):
    from loopalg.cli import parse_element
    from loopalg.loop_affine import AlgebraSpec
    from loopalg import pbw_monomials as pbw
    spec = AlgebraSpec("A2:r2", flavor="affine", level=1)
    text = "1*b4@t^-1*b8@t^3 + (1/2)*d*b2@t^0 + -2/3"
    elem = parse_element(spec, text)
    assert parse_element(spec, pbw.format_element(spec, elem)) == elem


def test_reduce_builds_the_plan_once(capsys, monkeypatch):
    from loopalg import reduction_engine
    calls = []
    plan = reduction_engine.reduction_plan

    def counted(*args, **kw):
        calls.append(args)
        return plan(*args, **kw)

    monkeypatch.setattr(reduction_engine, "reduction_plan", counted)
    code, out, _ = invoke(capsys, "reduce", "A1:r1",
                          "--generator", "1*b3@t^1",
                          "--target", "1*b1@t^25")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["payload"]["n"] < 25


@pytest.mark.parametrize("argv", [
    ["reduce", "A1:r1", "--generator", "1", "--target", "1*b1@t^25"],
    ["reduce", "A1:r1", "--generator", "1*b3@t^1", "--target", "1*b2@t^25"],
    ["project-derived", "A1:r1", "--elem", "0"],
    ["growth", "A1:r1", "--ideal-gen", "1*b3@t^1", "--max-md", "-1"],
    ["bracket", "A1:r1", "1/0*b1@t^0", "1*b3@t^0"],
    ["basis", "A0"],
    ["character", "--k1", "1", "--k2", "1", "--terms", "-3"],
    ["partitions", "--n", "5", "--parts", "mod:0,1"],
    ["basis", ":r1"],
    ["leading-term", "A1:r1", "1e10000000*b1@t^0"],
    ["straighten", "A1:r1", "--flavor", "affine", "--level", "1e9999999",
     "1*b3@t^1*b1@t^-1"],
    ["growth", "A1:r1", "--ideal-gen=1*b3@t^1 + -1*b3@t^0", "--max-md", "4"],
    ["reduce", "A1:r1", "--generator", "1*b3@t^1*b1@t^-1",
     "--target", "1*b1@t^3"],
    ["reduce", "A1:r1", "--generator", "1*b3@t^1",
     "--target", "1*b1@t^30*b3@t^40"],
])
def test_bad_input_fails_cleanly(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code in (1, 2) and out == "" and err


def _readme_examples():
    """The command lines of the `sh` block under `## CLI` in README.md,
    without the leading `loopalg`."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda a: a[0])
def test_readme_examples(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and out.strip(), err


def test_character_zero_terms(capsys):
    code, out, _ = invoke(capsys, "character", "--k1", "1", "--k2", "1",
                          "--terms", "0")
    assert code == 0 and out.splitlines() == ["exact", "1"]


def test_negative_element_positional(capsys):
    for argv in (["bracket", "A1:r1", "-3*b1@t^0", "1*b3@t^0"],
                 ["bracket", "A1:r1", "--", "-3*b1@t^0", "1*b3@t^0"]):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out.strip() == "3*b2@t^0"
    code, out, _ = invoke(capsys, "leading-term", "A1:r1",
                          "-1*b3@t^2*b1@t^0", "--order", "reverse")
    assert code == 0 and out.startswith("b1@t^0*b3@t^2  (coefficient -1)")


@pytest.mark.parametrize("argv, option, value, code", [
    (["reduce", "A1:r1", "--target", "1*b1@t^25"],
     "--generator", "-1*b3@t^1", 0),
    (["reduce", "A1:r1", "--generator", "1*b3@t^1"],
     "--target", "-1*b1@t^25", 2),
    (["project-derived", "A1:r1"], "--elem", "-1*d*b3@t^1", 0),
    (["growth", "A1:r1", "--max-md", "3"], "--ideal-gen", "-1*b3@t^1", 0),
])
def test_negative_element_option(capsys, argv, option, value, code):
    spaced = invoke(capsys, *argv, option, value)
    joined = invoke(capsys, *argv, "%s=%s" % (option, value))
    assert spaced == joined
    assert spaced[0] == code and "expected one argument" not in spaced[2]


@pytest.mark.parametrize("argv", [
    ["bracket", "A1:r1", "1*b3@t^0", "1*b1@t^0"],
    ["straighten", "A1:r1", "1*b3@t^1*b1@t^-1"],
    ["leading-term", "A1:r1", "1*b3@t^2"],
])
def test_emit_csv_only_for_tables(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--emit", "csv")
    assert code == 2 and out == "" and "invalid choice" in err
    code, out, _ = invoke(capsys, argv[0], "--help")
    assert code == 0 and "{text,json}" in out and "csv" not in out


_GRAMMAR = st.text(alphabet="0123456789bdtwe.@^*+-/() ")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(st.text(), _GRAMMAR))
def test_element_grammar_fuzz(capsys, text):
    assert run(["leading-term", "A1:r1", "--", text]) in (0, 1, 2)
    assert run(["project-derived", "A1:r1", "--elem=" + text]) in (0, 1, 2)
    capsys.readouterr()


_COMMANDS = ["basis", "bracket", "straighten", "leading-term", "reduce",
             "project-derived", "growth", "character", "partitions",
             "asymptotic", "subalgebra-sl2hat"]
_LABELS = ["A1:r1", "A2:r2", "D4:r3", "A0", "X5", "A2:r5", ":r1", "A1"]
_OPTIONS = ["--flavor", "--level", "--emit", "--order", "--generator",
            "--target", "--uniform-n", "--elem", "--ideal-gen", "--max-md",
            "--k1", "--k2", "--terms", "--n", "--parts", "--index", "--help",
            "--", "-h", "--bogus"]
_VALUES = ["loop", "current", "poscurrent", "affine", "derived", "text",
           "json", "csv", "standard", "reverse", "odd", "mod:3,1", "mod:0,1"]
_NUMBERS = ["-1", "0", "1", "2", "3", "5", "1/2", "x"]
_SNIPPETS = ["1*b1@t^0", "-2*b3@t^1", "1*b3@t^1*b1@t^-1", "1*d*b3@t^1",
             "(1+2w)*b2@t^0", "1*b1@t^3", "1*b2@t^2 + -1*b3@t^0", "0", "1",
             "1*garbage", "1*b9@t^0", "1/0*b1@t^0", "1*b1@t^0*(2", ""]
_TOKEN = st.sampled_from(_COMMANDS + _LABELS + _OPTIONS + _VALUES + _NUMBERS
                         + _SNIPPETS)
# each command with its required arguments; L, E and N are drawn slots
_SHAPES = [
    ["basis", "L"], ["bracket", "L", "E", "E"], ["straighten", "L", "E"],
    ["leading-term", "L", "E"],
    ["reduce", "L", "--generator", "E", "--target", "E"],
    ["project-derived", "L", "--elem", "E"],
    ["growth", "L", "--ideal-gen", "E", "--max-md", "N"],
    ["character", "--k1", "N", "--k2", "N"], ["partitions", "--n", "N"],
    ["asymptotic", "--n", "N"], ["subalgebra-sl2hat", "L", "--index", "N"],
]
_SLOTS = {"L": st.sampled_from(_LABELS), "E": st.sampled_from(_SNIPPETS),
          "N": st.sampled_from(_NUMBERS)}


def _shaped(shape):
    """The shape's slots filled, then up to two tokens, 7 in all."""
    slots = st.tuples(*(_SLOTS.get(t, st.just(t)) for t in shape))
    rest = st.lists(_TOKEN, max_size=min(2, 7 - len(shape)))
    return st.tuples(slots, rest).map(lambda p: [*p[0], *p[1]])


# any tokens, or a shape that gets past argparse more often
_ARGV = st.one_of(st.lists(_TOKEN, max_size=7),
                  st.sampled_from(_SHAPES).flatmap(_shaped))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
def test_argv_fuzz(capsys, argv):
    assert run(argv) in (0, 1, 2)
    capsys.readouterr()


def run_python(*args):
    """Run a fresh interpreter that imports loopalg from this checkout."""
    src = os.path.dirname(os.path.dirname(loopalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_python_m_loopalg():
    proc = run_python("-m", "loopalg", "character", "--k1", "1", "--k2", "1",
                      "--terms", "5")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == ["exact", "1 2 2 4 6 8"]


def test_import_leaves_mpmath_unloaded():
    proc = run_python(
        "-c", "import sys, loopalg; sys.exit('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


# one of each outcome: success, argparse usage error, domain error, help,
# an appended option given twice then once, and a negative positional
_REUSE_ARGVS = [
    ["bracket", "A1:r1", "1*b3@t^0", "1*b1@t^0"],
    ["leading-term", "A1:r1", "1*b3@t^2", "--order", "sideways"],
    ["partitions", "--n", "-2"],
    ["basis", "--help"],
    ["growth", "A1:r1", "--ideal-gen", "1*b3@t^1", "--ideal-gen",
     "1*b1@t^1", "--max-md", "3"],
    ["growth", "A1:r1", "--ideal-gen", "1*b3@t^1", "--max-md", "3"],
    ["bracket", "A1:r1", "-3*b1@t^0", "1*b3@t^0"],
]


def test_reused_parser_carries_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")      # help and usage line width
    forward = [invoke(capsys, *argv) for argv in _REUSE_ARGVS]
    backward = [invoke(capsys, *argv) for argv in reversed(_REUSE_ARGVS)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0, 2, 1, 0, 0, 0, 0]
    for i in (1, 4, 6):
        proc = run_python("-m", "loopalg", *_REUSE_ARGVS[i])
        assert (proc.returncode, proc.stdout, proc.stderr) == forward[i]


def test_parser_built_once(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        made.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert invoke(capsys, "partitions", "--n", "5")[0] == 0
    assert made
    built = len(made)
    assert invoke(capsys, "character", "--k1", "1", "--k2", "1",
                  "--terms", "3")[0] == 0
    assert len(made) == built


def test_import_builds_no_parser():
    proc = run_python("-c", """if True:
        import argparse, sys
        made = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kw):
            made.append(self)
            init(self, *args, **kw)
        argparse.ArgumentParser.__init__ = counted
        import loopalg
        sys.exit(len(made))""")
    assert proc.returncode == 0, proc.stderr
