"""Reference external predictor: scores every test row with 0.5.

Answers the harness request loop and serves as the minimal conformance
fixture; run it as ``python -m driftbench.echo_predictor --schema F
--workdir D``.  :func:`serve` is the loop itself, for any Python predictor
to reuse; it needs only the standard library, so this module leaves numpy
unimported.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys


def serve(description: str, step_fn, argv=None) -> int:
    """Answer the harness's requests until stdin closes.

    Parses ``--schema F --workdir D`` from ``argv``.  For each JSON request
    line on stdin (``step``, ``token``, ``train``, ``test``, ``pred_out``,
    ``remaining_budget``) calls ``step_fn(args, request)``, which writes one
    score per test row to ``request["pred_out"]``, then answers
    ``{"token": T}`` on stdout, echoing the request's token.  Stdout carries
    only answers: ``step_fn`` must log to stderr.

    Closing stdout is how a program says it is done, and the judge then
    kills what is left of its process group rather than wait out the
    interpreter's teardown.  So as the loop starts, ``serve`` registers an
    exit hook that closes stdout.  Exit hooks run last in, first out: the
    signal goes after the code that runs once ``main`` returns and after
    every hook ``step_fn`` registers, while a hook registered before the
    loop (at import, say) may be cut short.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--schema", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    atexit.register(_close_stdout)
    for line in sys.stdin:
        request = json.loads(line)
        step_fn(args, request)
        print(json.dumps({"token": request["token"]}), flush=True)
    return 0


def _close_stdout() -> None:
    """Flush stdout and close the pipe behind it.  Closing ``sys.stdout``
    would leave descriptor 1 open, since the interpreter opens it with
    ``closefd=False``; pointing 1 at the null device closes the pipe and
    lets a later write or the final flush go nowhere, without an error."""
    sys.stdout.flush()
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.close(null)


def _score_half(args, request) -> None:
    with open(request["test"], encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1  # header line
    with open(request["pred_out"], "w", encoding="utf-8") as fh:
        fh.write("0.5\n" * n_rows)


def main(argv=None) -> int:
    return serve(__doc__, _score_half, argv)


if __name__ == "__main__":
    sys.exit(main())
