"""The CLI contract on the beta and Appell tails, searched by hypothesis.

Each drawn argv runs potential, wavefunction or spectrum through cli.main in
process, with floats from an edge list and from uniform(-5, 5), and must
keep the contract: exit 0, 1 or 2 with no exception out of main; an error
exit writes exactly one error line (a spectrum that misses its tolerance
exits 1 with its report instead); exit 0 writes only finite numbers; and no
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


def _flag(name):
    values = _POSITIVE if name in ("a", "c", "lambda") else _FLOAT
    return st.tuples(st.just(f"--{name}"), values.map(repr))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["potential", "wavefunction", "spectrum"]))
    case = draw(st.sampled_from(["beta", "appell"]))
    argv = [command, "--case", case, "--n-points", str(draw(st.integers(64, 201))),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    names = ["A", "B", "a", "c"] if case == "beta" else ["a", "lambda"]
    if draw(st.booleans()):
        names.append("C1")
    if case == "appell" and draw(st.booleans()):
        # lambda > a, which the Appell conditions need
        a = draw(st.floats(0.1, 5.0))
        names = names[2:]
        argv += ["--a", repr(a), "--lambda", repr(a * draw(st.floats(1.1, 3.0)))]
    for name in names:
        argv += draw(_flag(name))
    if case == "appell":
        argv += ["--branch", draw(st.sampled_from(["+", "+", "-"]))]
        if draw(st.booleans()):   # the Appell tail's F1 needs x_hi below ~2.9
            argv += ["--x-hi", repr(draw(st.floats(0.5, 3.1)))]
    if command == "wavefunction":
        argv += ["--n", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv.append("--with-plus")
    if command == "spectrum":
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
    if "json" in argv or argv[0] == "spectrum":
        return all(math.isfinite(v) for v in _numbers(json.loads(out)))
    rows = out.splitlines()[1:]   # the header names the columns
    return bool(rows) and all(math.isfinite(float(v))
                              for row in rows for v in row.split(","))


@hypothesis.settings(derandomize=True, max_examples=250, deadline=None)
@hypothesis.given(argv=_argv())
# a = 0 divided lambda in solve_parameter_conditions: a ZeroDivisionError
# traceback, where every other family's a <= 0 is a DomainError line
@hypothesis.example(argv=["potential", "--case", "appell", "--a", "0.0",
                          "--lambda", "2.0", "--branch", "+"])
# s = 1e19 and w = -1024: the upper region's 0.25 ** w overflows a double,
# which must be a NonConvergence line and not an OverflowError traceback
@hypothesis.example(argv=["potential", "--case", "beta", "--A", "5e18",
                          "--B", "-5.000000000000001024e18", "--a", "1.0", "--c", "2.0"])
def test_tail_commands_keep_the_cli_contract(argv):
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
    elif argv[0] == "spectrum" and code == 1 and out:
        assert not errors and json.loads(out)["pass"] is False, argv
    else:
        assert len(errors) == 1 and not out, argv
