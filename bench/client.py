"""The benchmark's single client: one in-process call of toruspt.cli.main."""

from __future__ import annotations

import contextlib
import gc
import io
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    code: int | None       # exit code; None when an exception escaped main
    stdout: str
    stderr: str
    seconds: float
    exception: str = ""    # "Type: message" of an exception that escaped main


def invoke(argv) -> Outcome:
    """Run one request through the public entry point, capturing its output.

    ``toruspt.cli.main`` is looked up on every call, so a traced run sees the
    wrapper installed on the module attribute.
    """
    from toruspt import cli

    out, err = io.StringIO(), io.StringIO()
    exc = ""
    # Each real CLI call starts in a fresh interpreter; collecting here (outside
    # the timed region) keeps one request's garbage from being collected on the
    # next request's clock.
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:  # argparse rejects the arguments
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception as e:  # noqa: BLE001 - an escaped exception is a result
            code = None
            exc = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, exc)
