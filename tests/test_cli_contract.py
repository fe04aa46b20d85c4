"""The CLI contract on every case and algebra, searched by hypothesis.

Each drawn argv runs potential, wavefunction, spectrum or algebra through
cli.main in process, on any case and with either of the rational case's two
flag sets, with floats from an edge list and from uniform(-5, 5) and, for
potential and wavefunction, a grid with at times its own ends, and must keep
the contract: exit 0, 1 or 2 with no exception out of main; an error exit
writes exactly one error line (a spectrum that misses its tolerance exits 1
with its report instead); exit 0 writes only finite numbers; and no
RuntimeWarning escapes.
"""

import contextlib
import io
import json
import math
import warnings

import hypothesis
import hypothesis.strategies as st

from toruspt import cli

_HALF = 0.5
_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1e17, -1e17,
          math.nextafter(_HALF, 1.0), math.nextafter(_HALF, 0.0), 60.0]
_FLOAT = st.one_of(st.sampled_from(_EDGES), st.floats(-5.0, 5.0))


# a radius or lambda drawn from the edges is mostly a domain error; these
# draws reach the series kernels more often
_POSITIVE = st.one_of(_FLOAT, st.floats(0.1, 5.0), st.floats(0.1, 5.0))
# grid ends: mostly inside (0, pi), where the Appell tail's F1 needs x_hi
# below ~2.9
_END = st.one_of(st.floats(0.001, math.pi), st.floats(0.001, math.pi),
                 st.sampled_from(_EDGES))

# the family flags each case requires, then those it also reads
_FLAGS = {
    "pt": [(("A", "B"), ())],
    "rational": [(("A", "B", "lambda", "a", "c"), ()), (("a", "B", "branch"), ())],
    "beta": [(("A", "B", "a", "c"), ("C1",))],
    "appell": [(("a", "lambda", "branch"), ("C1",))],
    "component2": [(("a", "B", "branch"), ())],
    "iso21": [(("B1", "mu", "a"), ("K1", "c"))],
}


def _flag(name):
    if name == "branch":
        return st.tuples(st.just("--branch"), st.sampled_from(["+", "+", "-"]))
    values = _POSITIVE if name in ("a", "c", "lambda") else _FLOAT
    return st.tuples(st.just(f"--{name}"), values.map(repr))


@st.composite
def _argv(draw, cases):
    """An argv of a command on one of cases; algebra is spectrum on iso21."""
    commands = ["potential", "wavefunction", "spectrum"] + (
        ["algebra"] if "iso21" in cases else [])
    command = draw(st.sampled_from(commands))
    # wavefunction --case iso21 is an argument error whatever the flags
    if command == "wavefunction":
        cases = [case for case in cases if case != "iso21"]
    case = "iso21" if command == "algebra" else draw(st.sampled_from(cases))
    argv = [command] + (["--case", case] if command != "algebra" else []) + [
        "--format", draw(st.sampled_from(["csv", "json"]))]
    required, optional = draw(st.sampled_from(_FLAGS[case]))
    names = list(required) + [name for name in optional if draw(st.booleans())]
    if case == "appell" and draw(st.booleans()):
        # lambda > a, which the Appell conditions need
        a = draw(st.floats(0.1, 5.0))
        names = [name for name in names if name not in ("a", "lambda")]
        argv += ["--a", repr(a), "--lambda", repr(a * draw(st.floats(1.1, 3.0)))]
    for name in names:
        argv += draw(_flag(name))
    if command in ("potential", "wavefunction"):
        # spectrum and algebra solve by collocation, which has no grid
        argv += ["--n-points", str(draw(st.integers(64, 201)))]
        for end in ("--x-lo", "--x-hi"):
            if draw(st.sampled_from([False, False, False, True])):
                argv += [end, repr(draw(_END))]
    if command == "wavefunction":
        argv += ["--n", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv.append("--with-plus")
    if command in ("spectrum", "algebra"):
        argv += ["--levels", str(draw(st.integers(1, 3)))]
    return argv


def _numbers(obj):
    """Every number in parsed JSON."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _finite_output(argv, out):
    if "json" in argv or argv[0] in ("spectrum", "algebra"):
        return all(math.isfinite(v) for v in _numbers(json.loads(out)))
    rows = out.splitlines()[1:]   # the header names the columns
    return bool(rows) and all(math.isfinite(float(v))
                              for row in rows for v in row.split(","))


def _keeps_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's own exit 2
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 1, 2), argv
    errors = [line for line in err.splitlines() if "error:" in line]
    if code == 0:
        assert not errors and _finite_output(argv, out), argv
    elif argv[0] in ("spectrum", "algebra") and code == 1 and out:
        assert not errors and json.loads(out)["pass"] is False, argv
    else:
        assert len(errors) == 1 and not out, argv


@hypothesis.settings(derandomize=True, max_examples=250, deadline=None)
@hypothesis.given(argv=_argv(["beta", "appell"]))
# a = 0 divided lambda in solve_parameter_conditions: a ZeroDivisionError
# traceback, where every other family's a <= 0 is a DomainError line
@hypothesis.example(argv=["potential", "--case", "appell", "--a", "0.0",
                          "--lambda", "2.0", "--branch", "+"])
# s = 1e19 and w = -1024: the upper region's 0.25 ** w overflows a double,
# which must be a NonConvergence line and not an OverflowError traceback
@hypothesis.example(argv=["potential", "--case", "beta", "--A", "5e18",
                          "--B", "-5.000000000000001024e18", "--a", "1.0", "--c", "2.0"])
# w = -1e5: the series for B(z0) overflows, which must be a NonConvergence
# line and not an OverflowError traceback
@hypothesis.example(argv=["potential", "--case", "beta", "--A", "-1", "--B", "-1e5",
                          "--a", "1", "--c", "2"])
def test_tail_commands_keep_the_cli_contract(argv):
    _keeps_the_contract(argv)


@hypothesis.settings(derandomize=True, max_examples=350, deadline=None)
@hypothesis.given(argv=_argv(["pt", "rational", "component2", "iso21"]))
# a * a underflows, 1 - 2A rounds to 0, and a potential overflows: each must
# be one error line, with no ZeroDivisionError traceback and no numpy warning
@hypothesis.example(argv=["algebra", "--B1", "1", "--mu", "1", "--a", "1e-300"])
@hypothesis.example(argv=["potential", "--case", "rational", "--a", "1e-300",
                          "--B", "-1e-300", "--branch", "-"])
@hypothesis.example(argv=["spectrum", "--case", "component2", "--a", "1", "--B", "1e300",
                          "--branch", "+", "--levels", "1"])
def test_other_commands_keep_the_cli_contract(argv):
    _keeps_the_contract(argv)
