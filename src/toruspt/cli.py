"""Command-line front end.

Subcommands: potential, spectrum, wavefunction, verify, algebra (an alias of
spectrum --case iso21) and errata.  Only potential, wavefunction (CSV or
JSON) and verify (text or JSON) take --format.  spectrum and algebra always
write a JSON report, which cmd_spectrum builds from the oracle's levels, and
errata always writes text.  Outputs are deterministic: floats are
rendered with 17 significant digits, CSV uses '.' decimals, comma delimiters
and LF line endings with a header row, and JSON key order is fixed, so a
rerun with the same configuration produces byte-identical files.  Tables are
rendered and written in blocks of rows, so memory does not grow with the
output text.  Every float written, in CSV and JSON alike, is format(v, ".17g")
with ".0" appended when that has no '.', 'e' or 'n' ("-0.0", not "-0"), so a
JSON reader gets a float back.  A numpy kernel (_g17) writes a block column's
values as NUL-padded 24-byte cells: a double-double scaling to a 17-digit
integer, 4-digit lookup tables and one precomputed %g layout per sign,
exponent class and digit count.  format() itself renders the values the
kernel cannot decide: |v| outside [1e-280, 1e280] and values within 1e-6 of
a rounding tie.  A block is one byte buffer of the rows' constant text and
the cells, whose NULs are deleted in one pass.

Exit codes: 0 success, 1 verification or domain failure, 2 argument error,
141 (128 + SIGPIPE) when stdout is closed before the output is written, as
by `toruspt ... | head`; then nothing more is written and no traceback shows.
An optional key=value config file (--config) holds the subcommand's flags
('_' for '-', lam for --lambda; --case and boolean flags are flag-only): each
line becomes a --flag=value token ahead of the command line's own, so the
one parser reads both with the same types and choices, and explicit flags
win.  A missing config file, unknown config keys, non-numeric or non-finite
numbers, values outside a flag's choices, abbreviated flags, grids of more
than MAX_POINTS points, a wavefunction level --n above MAX_N, family
parameters the case does not read and an output file that cannot be opened
are argument errors.  An output column that would hold NaN or inf, and a
wavefunction column that vanishes everywhere, are domain failures.
The only environment variable consulted is TORUSPT_OUTDIR, an optional
prefix for relative output paths.

Only verify loads scipy, inside the command: scipy.special for its
special-function references.  spectrum and algebra solve by Gauss-Jacobi
collocation, two symmetric numpy eigensolves.  Importing this module and
building the parser loads no scipy, and neither do potential, wavefunction,
spectrum, algebra and errata, so such a process spends about 0.15 s on
imports, where scipy.special would add about 0.25 s (2 vCPU Xeon,
Python 3.11).  verify writes the suite's elapsed time as one line to stderr,
never to its report.

main builds the parser once per process and reuses it; build_parser() itself
returns a new one on every call.  Building it takes about 2-3 ms against
0.1 ms for parsing, so in-process callers of main (tests, the benchmark,
notebooks) pay it once, not on every call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
import warnings

import numpy as np

from . import iso21, susy
from .errors import NonFinitePotential, NormalizationFailure, TorusPTError
from .geometry import TorusGeometry, prefactor_f

CASES = ("pt", "rational", "beta", "appell", "component2", "iso21")
MAX_POINTS = 1_000_001
MAX_N = 1000    # highest wavefunction --n: a level's cost grows with n
# verify.SUITES, spelled out so that building the parser loads no verify (a
# test keeps the two equal)
VERIFY_SUITES = ("special", "geometry", "susy", "algebra")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, str):
        import json     # only here: building the parser loads no json

        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _f17(float(v))
    return str(v)


def _f17(v: float) -> str:
    """format(v, ".17g"), and ".0" after it when it has no '.', 'e' or 'n'."""
    text = format(v, ".17g")
    return text if "." in text or "e" in text or "n" in text else text + ".0"


# Rows per block: bounds the kernel's temporaries and the text alive at once.
_BLOCK_ROWS = 8192

# -- format(v, ".17g") for a float64 array -----------------------------------
# |v| is scaled by 10**(16 - e) in double-double arithmetic (an exact Dekker
# product with a (hi, lo) power of ten), giving y in [1e16, 1e17) to about
# 1e-14; the 17 significant digits are round(y), whose direction is certain
# unless frac(y) lies within _G17_TIE of 1/2.  Those values and every |v|
# outside [_G17_MIN, _G17_MAX], where the table or the split would leave the
# normal range, go through format() itself, the exact reference.
_G17_MIN, _G17_MAX = 1e-280, 1e280
_G17_TIE = 1e-6
_G17_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter
# powers 10**k for k in [_G17_K0, _G17_K1]: e = 16 - k spans [-284, 286],
# beyond the fast range's [-281, 280]; 10**300 * _G17_SPLIT stays finite and
# the lo part of 10**-270 stays normal
_G17_K0, _G17_K1 = -270, 300
# Byte offsets in a value's 32-byte source row, eight 4-byte table words:
# "000d" (leading digit), four 4-digit groups, |e| as 4 digits, "-.e+", NULs.
_G17_LEAD, _G17_EXP = 3, 20
_G17_MINUS, _G17_POINT, _G17_E, _G17_PLUS, _G17_NUL = 24, 25, 26, 27, 28
_G17_ZERO = 0


def _g17_layout(x, d):
    """Source offsets of %.17g's bytes, less any sign, for decimal exponent x
    and d significant digits left after dropping trailing zeros."""
    digit = [_G17_LEAD + i for i in range(17)]
    if -4 <= x < 0:
        return [_G17_ZERO, _G17_POINT] + [_G17_ZERO] * (-x - 1) + digit[:d]
    if 0 <= x < 17:
        if d <= x + 1:      # an integral value: "ddd.0", as _f17 writes it
            return digit[:x + 1] + [_G17_POINT, _G17_ZERO]
        return digit[:x + 1] + [_G17_POINT] + digit[x + 1:d]
    point = [_G17_POINT] if d > 1 else []
    exp = [_G17_EXP + i for i in (range(1, 4) if abs(x) >= 100 else range(2, 4))]
    return (digit[:1] + point + digit[1:d] + [_G17_E]
            + [_G17_MINUS if x < 0 else _G17_PLUS] + exp)


class _G17Tables:
    """The kernel's lookup tables; built once, on first use."""

    def __init__(self):
        hi, lo = [], []
        for k in range(_G17_K0, _G17_K1 + 1):
            if k >= 0:
                h = float(10 ** k)
                hi.append(h)
                lo.append(float(10 ** k - int(h)))
            else:
                # correctly rounded integer true division, then the exact rest
                scale = 10 ** -k
                h = 1 / scale
                num, den = h.as_integer_ratio()
                hi.append(h)
                lo.append((den - num * scale) / (den * scale))
        self.p_hi, self.p_lo = np.array(hi), np.array(lo)
        c = self.p_hi * _G17_SPLIT
        self.p_hh = c - (c - self.p_hi)
        self.p_hl = self.p_hi - self.p_hh
        i = np.arange(10000)[:, None]
        groups = (i // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
        self.words = np.frombuffer(groups.tobytes() + b"-.e+" + bytes(4),
                                   dtype=np.uint32)
        self.trailing = (i % np.array([10, 100, 1000, 10000]) == 0).sum(axis=1)
        # layout key: neg * 425 + exponent class * 17 + d - 1; the class is
        # x + 4 for fixed notation (x in -4..16), then 21..24 for e-100..,
        # e-5.., e+17.. and e+100..
        xs = list(range(-4, 17)) + [-100, -5, 17, 100]
        plus = [_g17_layout(x, d) for x in xs for d in range(1, 18)]
        self.minus = len(plus)
        rows = b"".join(bytes(sign + row).ljust(24, bytes([_G17_NUL]))
                        for sign in ([], [_G17_MINUS]) for row in plus)
        self.layouts = np.frombuffer(rows, dtype=np.uint8).reshape(-1, 24)
        self.layouts = self.layouts.astype(np.intp)
        e = np.arange(-300, 301)
        cls = np.select([e <= -100, e < -4, e < 17, e < 100],
                        [21, 22, e + 4, 23], 24)
        self.class_base = cls * 17 + 16   # key + zeros, indexed by e + 300


@functools.cache
def _g17_tables():
    return _G17Tables()


def _g17_scale(tab, a, e):
    """floor and fractional part of a * 10**(16 - e), to about 1e-14."""
    i = 16 - _G17_K0 - e
    hi = tab.p_hi.take(i)
    hi *= a
    # Dekker's split of a, a_h = c - (c - a) and a_l = a - a_h
    c = a * _G17_SPLIT
    a_h = c - a
    np.subtract(c, a_h, out=a_h)
    a_l = np.subtract(a, a_h, out=c)
    # err = ((a_h * p_hh - hi) + a_h * p_hl + a_l * p_hh) + a_l * p_hl
    p_hh, p_hl = tab.p_hh.take(i), tab.p_hl.take(i)
    err = a_h * p_hh
    err -= hi
    err += np.multiply(a_h, p_hl, out=a_h)
    err += np.multiply(a_l, p_hh, out=p_hh)
    err += np.multiply(a_l, p_hl, out=p_hl)
    # rest = (hi - floor(hi)) + (err + a * p_lo)
    whole = np.floor(hi)
    hi -= whole
    err += np.multiply(a, tab.p_lo.take(i), out=p_hl)
    hi += err
    down = np.floor(hi)
    hi -= down
    n = whole.astype(np.int64)
    n += down.astype(np.int64)
    return n, hi


def _g17(v):
    """_f17(v) of each value of a 1-D float64 array, as the rows of an (m, 24)
    uint8 array: the text's bytes, then NULs."""
    tab = _g17_tables()
    a = np.abs(v)
    slow = ~((a >= _G17_MIN) & (a <= _G17_MAX))   # also 0, subnormals, nan
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    floor, frac = _g17_scale(tab, a, e)
    # log10 can miss by one next to a power of ten: rescale those values
    redo = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
    if len(redo):
        e[redo] += np.where(floor[redo] < 10 ** 16, -1, 1)
        floor[redo], frac[redo] = _g17_scale(tab, a[redo], e[redo])
    n = floor
    n += frac > 0.5
    carry = np.flatnonzero(n == 10 ** 17)   # y in [1e17 - 1/2, 1e17)
    n[carry] = 10 ** 16
    e[carry] += 1
    frac -= 0.5
    slow |= np.abs(frac) < _G17_TIE
    # the 17 digits as a leading digit and four 4-digit groups, then |e|
    m = len(v)
    q = np.empty((6, m), dtype=np.intp)
    q0, q1, q2, q3, q4, q5 = q
    np.floor_divide(n, 10 ** 16, out=q0)
    n -= q0 * 10 ** 16
    high = n // 10 ** 8
    n -= high * 10 ** 8
    np.floor_divide(high, 10 ** 4, out=q1)
    np.subtract(high, q1 * 10 ** 4, out=q2)
    np.floor_divide(n, 10 ** 4, out=q3)
    np.subtract(n, q3 * 10 ** 4, out=q4)
    np.abs(e, out=q5)
    # the source words of value r are column r of src: its six words, "-.e+"
    # and NULs, so byte o of a value's 32-byte row is at
    # 4 * (m * (o // 4) + r) + o % 4 of the flat array ("clip" writes straight
    # into src, where the default mode would buffer it; q is in range)
    src = np.empty((8, m), dtype=np.uint32)
    tab.words.take(q, out=src[:6], mode="clip")
    src[6], src[7] = tab.words[10000], 0
    # trailing zeros of the 16 digits after the leading one
    zeros = tab.trailing.take(q4)
    z = np.flatnonzero(q4 == 0)
    if len(z):
        t = tab.trailing
        r1, r2, r3 = q1[z], q2[z], q3[z]
        zeros[z] += t[r3] + (r3 == 0) * (t[r2] + (r2 == 0) * t[r1])
    key = tab.class_base.take(e + 300)
    key += np.signbit(v) * tab.minus
    key -= zeros
    layouts = tab.layouts + (tab.layouts >> 2) * (4 * m - 4)
    idx = layouts.take(key, axis=0)
    idx += np.arange(0, 4 * m, 4)[:, None]
    cells = src.view(np.uint8).reshape(-1).take(idx)
    slow = np.flatnonzero(slow)
    if len(slow):
        text = b"".join(_f17(x).encode().ljust(24, b"\0")
                        for x in v[slow].tolist())
        cells[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
    return cells


class _Table:
    """Named float columns, rendered a block of rows at a time.

    Values are written as the bytes of _f17(v).  A block of up to _BLOCK_ROWS
    rows is one (rows, width) uint8 buffer holding the row's constant bytes
    (separators, keys, newlines) and, at fixed offsets, a 24-byte cell per
    column; _g17 fills a column's cells in one pass, with the text padded by
    NULs, and format() itself writes only |v| outside [1e-280, 1e280] and
    values whose scaled remainder lies within 1e-6 of a rounding tie.  The
    block's text is the buffer's bytes with the NULs deleted, so no value
    becomes a Python object and the table's text never exists as one string.
    """

    def __init__(self, header, columns):
        self.header = list(header)
        self.columns = [np.asarray(c, dtype=np.float64) for c in columns]

    def _blocks(self, parts, sep):
        """Rows parts[0] value parts[1] ... value parts[-1], sep between."""
        sep = sep.encode()
        row, offsets = sep + parts[0].encode(), []
        for part in parts[1:]:
            offsets.append(len(row))
            row += bytes(24) + part.encode()
        n = len(self.columns[0])
        buf = np.empty((min(n, _BLOCK_ROWS), len(row)), dtype=np.uint8)
        buf[:] = np.frombuffer(row, dtype=np.uint8)
        for start in range(0, n, _BLOCK_ROWS):
            block = buf[:min(n - start, _BLOCK_ROWS)]
            for col, at in zip(self.columns, offsets):
                block[:, at:at + 24] = _g17(col[start:start + _BLOCK_ROWS])
            # the first row of the table has no separator before it
            text = block.reshape(-1)[len(sep) if start == 0 else 0:]
            yield text.tobytes().translate(None, b"\0").decode("ascii")

    def csv_pieces(self):
        yield ",".join(self.header) + "\n"
        yield from self._blocks([""] + [","] * (len(self.header) - 1) + ["\n"],
                                "")

    def json_pieces(self, indent):
        pad = "  " * (indent + 1)
        keys = [f'{pad}  "{h}": ' for h in self.header]
        yield "[\n"
        yield from self._blocks([f"{pad}{{\n" + keys[0]]
                                + [",\n" + k for k in keys[1:]]
                                + [f"\n{pad}}}"], ",\n")
        yield "\n" + "  " * indent + "]"


def _json_render(obj, indent=0):
    """Yield the JSON text of obj in pieces: fixed key order, 2-space indent."""
    if isinstance(obj, _Table):
        yield from obj.json_pieces(indent)
        return
    if isinstance(obj, dict):
        entries, brackets = [(f'"{k}": ', v) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        entries, brackets = [("", v) for v in obj], "[]"
    else:
        yield _json_scalar(obj)
        return
    if not entries:
        yield brackets
        return
    pad = "  " * indent
    sep = brackets[0] + "\n"
    for key, value in entries:
        yield f"{sep}{pad}  {key}"
        yield from _json_render(value, indent + 1)
        sep = ",\n"
    yield "\n" + pad + brackets[1]


def _write_output(pieces, path: str | None) -> None:
    """Write an iterable of string pieces to stdout or path as they come."""
    if path in (None, "-"):
        sys.stdout.writelines(pieces)
        return
    outdir = os.environ.get("TORUSPT_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise CLIError(f"cannot write output file {path}: {exc.strerror}") from exc
    with handle:
        handle.writelines(pieces)


def _write_json(obj, path: str | None) -> None:
    _write_output(itertools.chain(_json_render(obj), ("\n",)), path)


class CLIError(Exception):
    """Bad arguments detected after parsing (exit code 2)."""


def _load_config(path: str, known: set) -> dict:
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CLIError(f"cannot read config file {path}: {exc.strerror}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise CLIError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _config_flags(args) -> list:
    """The config file of args as --flag=value tokens for the same parser.

    The keys are the subcommand's flag destinations, except --case and the
    boolean flags; the single-token form keeps a value such as -2 or - from
    being read as an option."""
    known = {k for k, v in vars(args).items()
             if k not in ("command", "fn", "config", "case")
             and not isinstance(v, bool)}
    return [f"--{'lambda' if key == 'lam' else key.replace('_', '-')}={val}"
            for key, val in _load_config(args.config, known).items()]


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --rel-tol and --abs-tol: a finite number >= 0, since
    no level passes a negative tolerance."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _check_grid(args) -> None:
    """Reject bad grids: x_lo, x_hi outside 0 < x_lo < x_hi < pi, or fewer
    than 64 or more than MAX_POINTS points."""
    if not hasattr(args, "n_points"):
        return
    if not (0.0 < args.x_lo < args.x_hi < math.pi):
        raise CLIError("grid must satisfy 0 < x_lo < x_hi < pi")
    if args.n_points < 64:
        raise CLIError("n_points must be at least 64")
    if args.n_points > MAX_POINTS:
        raise CLIError(f"n_points must be at most {MAX_POINTS}")


def _check_finite(header, cols, error) -> None:
    bad = [name for name, col in zip(header, cols) if not np.all(np.isfinite(col))]
    if bad:
        raise error("non-finite values in output column(s) " + ", ".join(bad))


def _add_common(p, name):
    p.add_argument("--config", help="key=value file; explicit flags override")
    # spectrum and algebra always write JSON, errata always text
    if name in ("potential", "wavefunction", "verify"):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path ('-' for stdout)")


def _add_params(p):
    for name in ("A", "B", "a", "c", "B1", "mu", "K1", "C1"):
        p.add_argument(f"--{name}", type=_finite, dest=name)
    p.add_argument("--lambda", type=_finite, dest="lam")
    p.add_argument("--branch", choices=("+", "-"))


def _add_grid(p):
    p.add_argument("--x-lo", type=_finite, dest="x_lo", default=0.002)
    p.add_argument("--x-hi", type=_finite, dest="x_hi", default=math.pi - 0.002)
    p.add_argument("--n-points", type=int, dest="n_points", default=2001)


# every family flag, in the order spectrum reports them
_FAMILY_KEYS = ("A", "B", "lam", "C1", "B1", "mu", "K1", "a", "c", "branch")


def _need(args, *names, optional=()):
    """Require the family flags names, allow optional ones, reject the rest."""
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise CLIError(f"case {args.case!r} requires --" + ", --".join(missing))
    reads = names + optional
    if any(getattr(args, n) is not None for n in _FAMILY_KEYS if n not in reads):
        raise CLIError(f"{args.case} case takes --" + ", --".join(
            "lambda" if n == "lam" else n for n in reads))


def _family_from_args(args):
    """Build the superpotential family named by --case."""
    case = args.case
    if case == "pt":
        _need(args, "A", "B")
        return susy.PureTrigPT(args.A, args.B)
    if case == "rational":
        if args.A is not None or args.lam is not None or args.c is not None:
            _need(args, "A", "B", "lam", "a", "c")
            return susy.RationalSin(args.A, args.B, args.lam,
                                    TorusGeometry(args.a, args.c))
        _need(args, "a", "B", "branch")
        return susy.solve_parameter_conditions(
            "equal_radii", a=args.a, B=args.B, branch=args.branch)
    if case == "beta":
        _need(args, "A", "B", "a", "c", optional=("C1",))
        return susy.BetaTail(args.A, args.B,
                             args.C1 if args.C1 is not None else 1.0,
                             TorusGeometry(args.a, args.c))
    if case == "appell":
        _need(args, "a", "lam", "branch", optional=("C1",))
        return susy.solve_parameter_conditions(
            "appell", a=args.a, lam=args.lam, branch=args.branch,
            C1=args.C1 if args.C1 is not None else -1.0)
    if case == "component2":
        _need(args, "a", "B", "branch")
        solved = susy.solve_parameter_conditions(
            "equal_radii", a=args.a, B=args.B, branch=args.branch)
        # the second component is the mirrored sin-tail family
        return susy.RationalSin(solved.A, -solved.B, solved.lam,
                                TorusGeometry(solved.geom.a, -solved.geom.c))
    raise CLIError(f"case {case!r} not handled here")


def _algebra_from_args(args):
    _need(args, "B1", "mu", "a", optional=("K1", "c"))
    k1 = args.K1 if args.K1 is not None else 0.0
    c = args.c if args.c is not None else args.a
    geom = TorusGeometry(args.a, c)
    return iso21.AlgebraParams(B1=args.B1, mu=args.mu, K1=k1,
                               K2=-k1 - 2.0 * c, geom=geom)


def _params_dict(args):
    out = {}
    for key in _FAMILY_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            out[key if key != "lam" else "lambda"] = val
    return out


def _warn_regime(spec):
    if not spec.normalizable:
        print("warning: non-normalizable regime (A >= -|B|); values are formal",
              file=sys.stderr)


def cmd_potential(args) -> int:
    xs = np.linspace(args.x_lo, args.x_hi, args.n_points)
    if args.case == "iso21":
        p = _algebra_from_args(args)
        spec = iso21.susy_family(p)
    else:
        spec = _family_from_args(args)
    _warn_regime(spec)
    header = ["x", "V_minus", "V_plus"]
    # _check_finite reports a column that overflows, so numpy's warnings
    # would only repeat it
    with np.errstate(all="ignore"):
        cols = [xs, *susy.partner_potentials(spec, xs)]
        if args.case == "iso21":
            header.append("V_casimir")
            cols.append(iso21.casimir_potential(p, xs))
    _check_finite(header, cols, NonFinitePotential)
    table = _Table(header, cols)
    if args.format == "csv":
        _write_output(table.csv_pieces(), args.output)
    else:
        _write_json({"case": args.case, "rows": table}, args.output)
    return 0


def _quiet(f):
    """f with numpy's floating-point warnings off: the oracle reports a
    potential that overflows (NonFinitePotential), so they would repeat it."""
    def v(x):
        with np.errstate(all="ignore"):
            return f(x)
    return v


def _spectrum_inputs(args):
    """(eps list, potential callable, params dict) for the oracle comparison."""
    if args.case == "iso21":
        p = _algebra_from_args(args)
        _warn_regime(iso21.susy_family(p))
        eps = [iso21.algebra_spectrum(p, n)[0] for n in range(args.levels)]
        return eps, _quiet(lambda x: iso21.casimir_potential(p, x)
                           - iso21.casimir_shift(p)), _params_dict(args)
    spec = _family_from_args(args)
    _warn_regime(spec)
    eps = [susy.analytic_spectrum(spec, n) for n in range(args.levels)]
    if args.case == "component2":
        v = susy.pt_coefficients(spec, "minus")
    else:
        v = lambda x: susy.partner_potentials(spec, x)[0]
    params = _params_dict(args)
    params.update({"A_solved": spec.A, "B_solved": spec.B})
    return eps, _quiet(v), params


def cmd_spectrum(args) -> int:
    """Write the closed-form levels against the oracle's as a JSON report;
    exit 0 iff every level is within --rel-tol (--abs-tol for a level at 0)."""
    from . import oracle

    top = oracle.COLLOCATION_NODES // 4     # the most levels the oracle solves
    if not 1 <= args.levels <= top:
        raise CLIError(f"levels out of supported range 1..{top}")
    eps, v, params = _spectrum_inputs(args)
    rows, passed = [], True
    levels = oracle.collocation_levels(v, args.levels)
    for n, (ref, got) in enumerate(zip(eps, levels)):
        ref, got = float(ref), float(got)
        abs_err = abs(got - ref)
        # a level near 0 has no relative error: it passes on --abs-tol
        rel = abs_err / abs(ref) if abs(ref) > 1e-9 else None
        passed &= abs_err <= args.abs_tol if rel is None else rel <= args.rel_tol
        rows.append({"n": n, "eps_analytic": ref, "eps_numeric": got,
                     "abs_err": abs_err, "rel_err": rel})
    rels = [row["rel_err"] for row in rows if row["rel_err"] is not None]
    _write_json({"case": args.case, "params": params, "levels": rows,
                 "max_rel_err": max(rels, default=0.0), "pass": passed}, args.output)
    return 0 if passed else 1


def cmd_wavefunction(args) -> int:
    if args.n < 0:
        raise CLIError("level n must be non-negative")
    if args.n > MAX_N:
        raise CLIError(f"level n must be at most {MAX_N}")
    xs = np.linspace(args.x_lo, args.x_hi, args.n_points)
    notes = {}
    if args.case == "component2":
        # the mirrored family keeps the solved a and lambda, all psi2 reads
        spec = _family_from_args(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            psi2 = susy.spinor_psi2(spec.geom, spec.lam, args.n, xs)
        notes["normalizable"] = all(
            susy.psi2_integrable(spec.geom, spec.lam, args.n))
        notes["warnings"] = sorted({type(w.message).__name__ for w in caught})
        header = ["x", "psi2"]
        cols = [xs, susy.normalize(psi2, xs)]
    else:
        spec = _family_from_args(args)
        susy.require_cancellation(spec)
        _warn_regime(spec)
        # _check_finite reports a column that overflows (NormalizationFailure)
        with np.errstate(all="ignore"):
            fm = susy.eigenfunction_minus(spec.A, spec.B, args.n, xs)
            # susy.spinor_psi1's expression, on the F_n computed once
            psi1 = prefactor_f(spec.geom, xs) * fm
        header = ["x", "F_minus", "psi1"]
        cols = [xs, susy.normalize(fm, xs), susy.normalize(psi1, xs)]
        if args.with_plus:
            if args.n < 1:
                raise CLIError("--with-plus needs n >= 1")
            with np.errstate(all="ignore"):
                fp = susy.eigenfunction_plus(spec, args.n, xs)
            header.append("F_plus")
            cols.append(susy.normalize(fp, xs))
    _check_finite(header, cols, NormalizationFailure)
    zero = [name for name, col in zip(header[1:], cols[1:]) if not np.any(col)]
    if zero:
        raise NormalizationFailure("output column(s) " + ", ".join(zero)
                                   + " vanish everywhere: no unit-norm scaling")
    table = _Table(header, cols)
    if args.format == "csv":
        for key, val in notes.items():
            print(f"note: {key} = {val}", file=sys.stderr)
        _write_output(table.csv_pieces(), args.output)
    else:
        _write_json({"case": args.case, "n": args.n, **notes, "rows": table},
                    args.output)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_suite(args.suite)
    print(f"verify: suite={report.suite} took {report.elapsed:.1f} s",
          file=sys.stderr)
    if args.format == "json":
        _write_json(report.to_json_obj(), args.output)
    else:
        _write_output((report.render_text(), "\n"), args.output)
    return 0 if report.passed else 1


def cmd_errata(args) -> int:
    from . import errata

    _write_output((errata.render_text(),), args.output)
    return 0


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent form (-1e5,
    -5E-1, -.5e3) as a value, not a flag; argparse's own pattern only knows
    -5 and -0.5.  add_subparsers makes every subparser of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --n must not be read as
    # --n-points (or --su as --suite)
    parser = _Parser(
        prog="toruspt", allow_abbrev=False,
        description="Solvable and rationally extended trigonometric "
                    "Poschl-Teller families on a torus surface, with "
                    "independent eigensolver oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    spectrum_help = "compare the closed-form spectrum against the oracle"
    cmds = {}
    for name, fn, text in (
            ("potential", cmd_potential, "sample partner potentials on a grid"),
            ("spectrum", cmd_spectrum, spectrum_help),
            ("algebra", cmd_spectrum,
             spectrum_help + " (alias of spectrum --case iso21)"),
            ("wavefunction", cmd_wavefunction, "sample eigenfunctions and spinors"),
            ("verify", cmd_verify, "run the verification suite"),
            ("errata", cmd_errata, "print the machine-checked errata")):
        cmds[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        cmds[name].set_defaults(fn=fn)

    for name in ("potential", "spectrum", "wavefunction"):
        cmds[name].add_argument("--case", choices=CASES, required=True)
    cmds["algebra"].set_defaults(case="iso21")
    for name in ("potential", "spectrum", "algebra", "wavefunction"):
        _add_params(cmds[name])
    for name in ("potential", "wavefunction"):
        _add_grid(cmds[name])
    for name in ("spectrum", "algebra"):
        cmds[name].add_argument("--levels", type=int, default=5)
        cmds[name].add_argument("--rel-tol", type=_tolerance, dest="rel_tol",
                                default=5e-3)
        cmds[name].add_argument("--abs-tol", type=_tolerance, dest="abs_tol",
                                default=0.01)
    cmds["wavefunction"].add_argument("--n", type=int, default=0)
    cmds["wavefunction"].add_argument("--with-plus", action="store_true",
                                      dest="with_plus")
    cmds["verify"].add_argument("--suite", default="all",
                                choices=("all",) + VERIFY_SUITES)
    for name, p in cmds.items():
        _add_common(p, name)
    return parser


# parse_args leaves a parser as it found it, so one serves every call of main
# in a process; the cmd_* functions are bound when it is built
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config's flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        _check_grid(args)
        return args.fn(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TorusPTError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the interpreter's
        # flush at exit, to devnull (Python's documented recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
