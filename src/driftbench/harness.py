"""Lifelong predict-then-reveal evaluation loop.

A dataset cut into N blocks is evaluated in N-1 steps: at step k the
predictor learns from the newly revealed labeled block k-1 (its own job to
buffer history) and then scores the unlabeled block k.  Wall-clock spent
inside the predictor's ``learn`` and ``predict`` calls counts against the
dataset's time budget, whether the call returns or raises; harness file
I/O does not.  The dataset's score is the mean of its block AUCs, or 0
when the predictor exceeded the budget or crashed.

External predictors answer a request loop.  The harness launches
``<command> --schema F --workdir D`` once per dataset and keeps it running
for every step.  Per step it writes a train file (with labels) and a test
file (without), sends one JSON request line on the program's stdin
(``step``, ``token``, ``train``, ``test``, ``pred_out``,
``remaining_budget``), takes the next line on its stdout as the answer,
which must be ``{"token": T}`` with the request's token, then reads one
decimal score per test row from the predictions file, never more than
one score past the block.  Every line the program writes, answer or
prediction, is at most ``_ANSWER_MAX_BYTES`` (64 KiB) long.
The program keeps its model in memory between steps; closing its stdin
tells it to exit, and closing its stdout is how it says it is done, so
the judge kills what is left of its process group without waiting out
its teardown.  :func:`~driftbench.echo_predictor.serve` closes stdout
from an exit hook it registers as its loop starts, so a hook registered
before then may be cut short; a program that keeps stdout open gets
``_CLOSE_GRACE_SECONDS``.  An error quotes at most ``_QUOTE_MAX_CHARS``
characters of a line the program wrote.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Protocol, Sequence

import numpy as np

from .data import (Block, check_field_types, load_dataset, plan_blocks, write_rows,
                   write_schema)
from .metrics import UndefinedAUCError, auc

OUTCOME_COMPLETED = "completed"
OUTCOME_TIMED_OUT = "timed-out"
OUTCOME_PREDICTOR_ERROR = "predictor-error"

class PredictorError(RuntimeError):
    """The predictor crashed or returned malformed predictions."""


class PredictorTimeout(RuntimeError):
    """The predictor exceeded its remaining budget and was stopped."""


class PredictorAdapter(Protocol):
    """Behavioral contract every predictor implements.

    ``learn`` receives only the newly revealed block, a
    :class:`~driftbench.data.Block` that carries its rows, their labels
    (``block.labels``) and its schema (``block.schema``); the adapter holds
    all cross-step state.  ``predict`` receives the block to score, whose
    ``labels`` is None and whose lines hold no label cells, and returns
    exactly one finite real per row (``len(block)``).  A block's cells are
    read through its ``columns``, and its bytes are its lines in the data
    file.  Adapters may accumulate time the harness should not bill (their
    own file staging) in an ``unbilled_seconds`` attribute, and may offer
    ``close()``, which the harness calls, unbilled, once the dataset's run
    is over.
    """

    def learn(self, block: Block, remaining_budget_seconds: float) -> None: ...

    def predict(self, block: Block) -> Sequence[float]: ...


class ConstantPredictor:
    """Scores every row with the same constant; the do-nothing reference."""

    def __init__(self, value: float = 0.5):
        self.value = value

    def learn(self, block, remaining_budget_seconds) -> None:
        pass

    def predict(self, block):
        return np.full(len(block), self.value)


@dataclass(frozen=True)
class StepRecord:
    """One predict-then-reveal step: trained on blocks [0, step), scored
    on block ``step``.  ``single_class`` flags an unscorable all-one-label
    test block, which receives the neutral AUC 0.5."""

    step: int
    trained_rows: int
    auc: float
    elapsed_seconds: float
    single_class: bool = False


@dataclass(frozen=True)
class EvaluationTrace:
    """The result of one dataset's run, and the dataset's score."""

    dataset_id: str
    steps: tuple[StepRecord, ...]
    total_elapsed_seconds: float
    outcome: str
    budget_seconds: float
    error: str = ""

    @property
    def disqualified(self) -> bool:
        return self.outcome != OUTCOME_COMPLETED

    @property
    def mean_auc(self) -> float:
        """Mean block AUC; 0 for a run that timed out or failed."""
        if self.disqualified:
            return 0.0
        return float(np.mean([s.auc for s in self.steps]))


def _check_budget(budget_seconds: float) -> None:
    """Refuse a budget that is not a finite number > 0: an infinite one
    would leave a child's deadline unrepresentable."""
    if not 0 < budget_seconds < math.inf:
        raise ValueError(f"budget_seconds must be a finite number > 0, got {budget_seconds}")


@dataclass(frozen=True)
class DatasetRef:
    """One dataset's files on disk and its time budget."""

    dataset_id: str
    data_path: Path
    schema_path: Path
    budget_seconds: float

    def __post_init__(self) -> None:
        check_field_types(self)
        _check_budget(self.budget_seconds)


class _BudgetClock:
    """Bills predictor calls against a budget: each call's wall time, less
    the adapter's ``unbilled_seconds`` gained during it."""

    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.consumed = 0.0

    @property
    def remaining(self) -> float:
        return self.budget - self.consumed

    def charge(self, call: str, predictor, fn, *args) -> object:
        """Return ``fn(*args)``, billed whether it returns or raises; a
        return that leaves the budget spent raises PredictorTimeout."""
        before_unbilled = float(getattr(predictor, "unbilled_seconds", 0.0))
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            unbilled = float(getattr(predictor, "unbilled_seconds", 0.0)) - before_unbilled
            self.consumed += max(0.0, wall - unbilled)
        if self.remaining < 0:
            raise PredictorTimeout(f"{call} brought the billed time to {self.consumed:.3f}s, "
                                   f"over the budget of {self.budget:.3f}s")
        return result


def run_lifelong(dataset: Block, n_blocks: int, predictor: PredictorAdapter,
                 budget_seconds: float) -> EvaluationTrace:
    """Run the predict-then-reveal loop for one dataset and predictor.

    The dataset is cut with :func:`plan_blocks` into ``n_blocks`` blocks
    before the predictor is called, so a cut that cannot be made raises
    BlockPlanError untouched.  Steps 1..N-1: reveal block k-1 to
    ``learn``, have ``predict`` score block k, and take the AUC of those
    scores against block k's own labels.  No cell is parsed here: a block
    is a view of the dataset's bytes and labels, and block k is scored as
    its lines with their label cells removed (the two bytes before each
    line's end, found from its line starts), a copy kept with the labeled
    block that step k+1 reveals and let go after that ``learn``.  So
    beside the dataset's bytes the loop holds the label-free copy of one
    block at a time.  Aborts on budget overrun (timed-out) or
    any predictor failure (predictor-error), with an error that names the
    step; either way the dataset scores 0.
    The trace is named by ``dataset.provenance``.  The predictor's optional
    ``close()`` runs last, whatever the outcome, and is not billed.
    """
    _check_budget(budget_seconds)
    ranges = plan_blocks(len(dataset), n_blocks)
    clock = _BudgetClock(budget_seconds)
    steps: list[StepRecord] = []
    outcome = OUTCOME_COMPLETED
    error = ""
    block = dataset.block(*ranges[0])
    try:
        for k in range(1, n_blocks):
            step_start = clock.consumed
            try:
                clock.charge("learn", predictor, predictor.learn, block, clock.remaining)
                # The revealed block is let go before the next one is cut.
                block = dataset.block(*ranges[k])
                scores = clock.charge("predict", predictor, predictor.predict, block.unlabeled())
                _check_predictions(scores, len(block))
            except PredictorTimeout as exc:
                outcome, error = OUTCOME_TIMED_OUT, f"step {k}: {exc}"
                break
            except Exception as exc:  # noqa: BLE001 -- predictor code is untrusted
                outcome, error = OUTCOME_PREDICTOR_ERROR, f"step {k}: {type(exc).__name__}: {exc}"
                break

            try:
                block_auc = auc(block.labels, np.asarray(scores, dtype=np.float64))
                single_class = False
            except UndefinedAUCError:
                block_auc = 0.5
                single_class = True
            steps.append(StepRecord(
                step=k,
                trained_rows=ranges[k][0],
                auc=block_auc,
                elapsed_seconds=clock.consumed - step_start,
                single_class=single_class,
            ))
    finally:
        close = getattr(predictor, "close", None)
        if close is not None:
            close()

    return EvaluationTrace(
        dataset_id=dataset.provenance,
        steps=tuple(steps),
        total_elapsed_seconds=clock.consumed,
        outcome=outcome,
        budget_seconds=budget_seconds,
        error=error,
    )


def _check_predictions(scores, expected: int) -> None:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != expected:
        raise PredictorError(
            f"{arr.shape[0] if arr.ndim == 1 else 'non-flat'} predictions for {expected} rows")
    if not np.all(np.isfinite(arr)):
        raise PredictorError("non-finite prediction")


def run_suite(datasets: Sequence[DatasetRef], n_blocks: int,
              make_predictor: Callable[[DatasetRef], PredictorAdapter]
              ) -> list[EvaluationTrace]:
    """Evaluate a fresh predictor on every dataset, in order, each cut
    into ``n_blocks`` blocks.

    Failures are isolated: a dataset that cannot be loaded or evaluated is
    scored 0 / disqualified and the suite continues.  The suite holds one
    stream at a time: a dataset and its predictor live only in
    :func:`_run_dataset` and are freed before the next dataset is loaded,
    so peak memory follows the largest stream, not two of them.
    """
    results: list[EvaluationTrace] = []
    for ref in datasets:
        try:
            trace = _run_dataset(ref, n_blocks, make_predictor)
        except Exception as exc:  # noqa: BLE001 -- error isolation contract
            trace = EvaluationTrace(
                dataset_id=ref.dataset_id, steps=(), total_elapsed_seconds=0.0,
                outcome=OUTCOME_PREDICTOR_ERROR, budget_seconds=ref.budget_seconds,
                error=f"{type(exc).__name__}: {exc}",
            )
        results.append(trace)
    return results


def _run_dataset(ref: DatasetRef, n_blocks: int,
                 make_predictor: Callable[[DatasetRef], PredictorAdapter]) -> EvaluationTrace:
    """Load one dataset and run a fresh predictor through it."""
    dataset = load_dataset(ref.data_path, ref.schema_path, provenance=ref.dataset_id)
    return run_lifelong(dataset, n_blocks, make_predictor(ref), ref.budget_seconds)


# ---------------------------------------------------------------------------
# subprocess predictors

# After its stdin is closed, how long a child's group may hold its stdout
# open before the group is killed.
_CLOSE_GRACE_SECONDS = 1.0
# How much of the end of ``stderr.txt`` a failure's error quotes.
_STDERR_TAIL_BYTES = 4096
# The longest line, answer or prediction, the judge reads from a child; a
# child that writes more is a predictor error at once, not a growing buffer.
_ANSWER_MAX_BYTES = 65536
# How many characters of a child-written line an error quotes.
_QUOTE_MAX_CHARS = 200


def _quote(text: str) -> str:
    """``text`` quoted for an error message, cut after ``_QUOTE_MAX_CHARS``
    characters with its full length noted, so an error stays short."""
    if len(text) <= _QUOTE_MAX_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_MAX_CHARS]!r}... ({len(text)} characters)"


class SubprocessPredictor:
    """Adapter that drives one long-lived external program per dataset.

    At step 1 the program is launched as ``<command> --schema F --workdir
    D`` in a process group of its own, with its stderr going to
    ``<workdir>/stderr.txt``.  ``learn`` keeps the revealed block until
    the next ``predict``.  Each step stages that train block and the test
    block as files under the train block's schema (each the header and
    the block's lines, byte for byte, through :func:`write_rows`; the test
    file without label cells), removes the step's stale
    predictions file, writes one JSON request line to the program's stdin
    and waits for the answer line ``{"token": T}`` that echoes the
    request's fresh token T, so a line written before the child read the
    request cannot pass for its answer.  The wait from request to answer
    is billed, and step 1 also bills the launch; staging and reading the
    predictions file accumulate in ``unbilled_seconds``.  The whole group
    is killed the moment the remaining budget expires, billed up to the
    kill; :meth:`close` ends and reaps the program, killed or not.
    """

    def __init__(self, command: Sequence[str], workdir: str | Path):
        self.command = list(command)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.unbilled_seconds = 0.0
        self._step = 0
        self._pending: Block | None = None
        self._remaining = math.inf
        self._proc: subprocess.Popen | None = None
        self._answers = bytearray()     # stdout bytes not yet consumed as answers

    def learn(self, block, remaining_budget_seconds: float) -> None:
        self._pending = block
        self._remaining = remaining_budget_seconds

    def predict(self, block) -> np.ndarray:
        if self._pending is None:
            raise PredictorError("protocol violation: predict before learn")
        train_block, self._pending = self._pending, None
        self._step += 1

        t0 = time.perf_counter()
        train_path = self.workdir / f"train_{self._step:03d}.csv"
        test_path = self.workdir / f"test_{self._step:03d}.csv"
        pred_path = self.workdir / f"pred_{self._step:03d}.txt"
        schema_path = self.workdir / "schema.csv"
        schema = train_block.schema
        write_rows(train_path, schema, train_block)
        write_rows(test_path, schema, block.unlabeled())
        pred_path.unlink(missing_ok=True)
        if self._proc is None:
            write_schema(schema, schema_path)
        self.unbilled_seconds += time.perf_counter() - t0

        start = time.perf_counter()
        deadline = start + max(self._remaining, 0.0)
        if self._proc is None:
            with open(self.workdir / "stderr.txt", "wb") as stderr:
                self._proc = subprocess.Popen(
                    self.command + ["--schema", str(schema_path), "--workdir", str(self.workdir)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                    bufsize=0, start_new_session=True)
        token = os.urandom(8).hex()
        request = {"step": self._step, "token": token, "train": str(train_path),
                   "test": str(test_path), "pred_out": str(pred_path),
                   "remaining_budget": round(self._remaining, 3)}
        line = self._exchange(json.dumps(request).encode() + b"\n", start, deadline)
        try:
            answer = json.loads(line)
        except ValueError:
            answer = None
        if answer != {"token": token}:
            text = _quote(line.decode("utf-8", "replace"))
            raise PredictorError(f"answer {text} does not echo the request's token")

        # A short count and finiteness are left to the harness, as for any
        # adapter; the file is read at most one prediction past the block,
        # and a line at most one byte past ``_ANSWER_MAX_BYTES``, so a
        # child cannot grow the judge's memory with it.
        t1 = time.perf_counter()
        try:
            if not pred_path.exists():
                raise PredictorError("predictions file not written")
            scores = []
            with pred_path.open("rb") as fh:
                while ln := fh.readline(_ANSWER_MAX_BYTES + 1):
                    ln = ln.rstrip(b"\n")
                    if len(ln) > _ANSWER_MAX_BYTES:
                        head = ln.decode("utf-8", "replace")[:_QUOTE_MAX_CHARS]
                        raise PredictorError(f"prediction line longer than {_ANSWER_MAX_BYTES} "
                                             f"bytes: {head!r}...")
                    if not ln:
                        continue
                    if len(scores) == len(block):
                        raise PredictorError(
                            f"predictions file holds more than {len(block)} predictions")
                    try:
                        scores.append(float(ln))
                    except ValueError:
                        text = _quote(ln.decode("utf-8", "replace"))
                        raise PredictorError(f"unparseable prediction: {text}") from None
            return np.asarray(scores, dtype=np.float64)
        finally:
            self.unbilled_seconds += time.perf_counter() - t1

    def _exchange(self, request: bytes, start: float, deadline: float) -> bytes:
        """Send one request line and return the next line on the child's
        stdout, without its newline; the child is killed if the deadline
        passes first."""
        proc = self._proc
        try:
            proc.stdin.write(request)
        except BrokenPipeError:
            self._exited(start, deadline)
        while b"\n" not in self._answers:
            if len(self._answers) > _ANSWER_MAX_BYTES:
                raise PredictorError(f"answer line longer than {_ANSWER_MAX_BYTES} bytes")
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([proc.stdout], [], [], wait)[0]:
                self._kill(start)
            # Never more than one byte past the cap, so the buffer stays bounded.
            chunk = os.read(proc.stdout.fileno(), _ANSWER_MAX_BYTES + 1 - len(self._answers))
            if not chunk:
                self._exited(start, deadline)
            self._answers += chunk
        line, _, self._answers = self._answers.partition(b"\n")
        return bytes(line)

    def _exited(self, start: float, deadline: float) -> NoReturn:
        """The child closed its pipes: raise its exit code and stderr tail."""
        try:
            code = self._proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            self._kill(start)
        with open(self.workdir / "stderr.txt", "rb") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - _STDERR_TAIL_BYTES, 0))
            tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-3:]
        raise PredictorError(f"exit code {code}" + (f"; stderr: {' | '.join(tail)}" if tail else ""))

    def _kill(self, start: float) -> NoReturn:
        """Kill the child's process group and raise PredictorTimeout, so
        the step is billed up to the kill; :meth:`close` reaps the child."""
        os.killpg(self._proc.pid, signal.SIGKILL)
        raise PredictorTimeout(f"killed after {time.perf_counter() - start:.2f}s "
                               f"(remaining budget was {self._remaining:.2f}s)")

    def close(self) -> None:
        """Close the child's stdin, which asks it to exit, and wait, dropping
        late output, until it says it is done by closing stdout (``serve``
        does so from an exit hook), or a short grace ends if it keeps stdout
        open; then kill what is left of its process group, so no helper
        outlives the dataset, and reap the child, killed or not."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        fd = proc.stdout.fileno()
        deadline = time.perf_counter() + _CLOSE_GRACE_SECONDS
        while ((wait := deadline - time.perf_counter()) > 0
               and select.select([fd], [], [], wait)[0] and os.read(fd, 65536)):
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group is gone already
            pass
        proc.wait()
        proc.stdout.close()
