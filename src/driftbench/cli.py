"""Command-line entry point: generate streams, evaluate predictors, emit
leaderboards.

All randomness flows from the single top-level seed in the config file, so
any command rerun with identical inputs writes byte-identical outputs
(wall-clock fields aside).  Relative paths inside a config file resolve
against the directory containing that file.  Exit codes: 0 on completion,
2 when any evaluated dataset was disqualified, 1 on usage and
configuration errors and on a path the command cannot read or write.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import BaselineConfig, BaselinePredictor
from .data import save_dataset, typed_scalar
from .harness import DatasetRef, EvaluationTrace, SubprocessPredictor, run_suite
from .ranking import (
    SubmissionEntry,
    build_leaderboard,
    merge_bundles,
    plain_name,
    read_submission,
    render_leaderboard_csv,
    write_submission,
)
from .synth import DriftGenSpec, generate_drift_stream, shape_columns

PHASES = ("feedback", "final")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    phase: str
    gen: DriftGenSpec
    ref: DatasetRef     # the stream files in data_dir and the budget


@dataclass(frozen=True)
class PredictorSpec:
    name: str
    bundle: str
    baseline: BaselineConfig | None     # None for a command predictor
    command: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    n_blocks: int
    data_dir: Path
    output_dir: Path
    datasets: tuple[DatasetSpec, ...]
    predictors: tuple[PredictorSpec, ...]

    def predictor(self, name: str) -> PredictorSpec:
        for p in self.predictors:
            if p.name == name:
                return p
        raise ConfigError(f"unknown predictor {name!r}; registered: "
                          + ", ".join(p.name for p in self.predictors))


_CONFIG_KEYS = frozenset({"seed", "n_blocks", "data_dir", "output_dir", "datasets", "predictors"})
#: A dataset entry's stream keys, each with the DriftGenSpec field it sets.
_STREAM_KEYS = {
    "id": "dataset_id", "rows": "n_rows", "cat": "n_cat", "num": "n_num", "mvc": "n_mvc",
    "time": "n_time", "drift": "drift", "drift_magnitude": "drift_magnitude",
    "cat_cardinality": "cat_cardinality", "power_exponent": "power_exponent",
}
_DATASET_KEYS = frozenset({"phase", "budget_seconds", "shape", *_STREAM_KEYS})
_PREDICTOR_KEYS = frozenset({"name", "type", "bundle", "options", "command"})


def _reject_unknown_keys(entry, known: frozenset) -> None:
    if not isinstance(entry, dict):
        raise TypeError(f"expected an object, got {type(entry).__name__}")
    # A misspelled option would otherwise silently take its default.
    unknown = sorted(set(entry) - known)
    if unknown:
        raise ValueError("unknown key " + ", ".join(map(repr, unknown)))


def _config_list(raw: dict, key: str) -> list:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {type(value).__name__}")
    return value


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")

    try:
        _reject_unknown_keys(raw, _CONFIG_KEYS)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}")
    base = path.parent
    try:
        seed = typed_scalar("seed", raw.get("seed", 0), int)
        n_blocks = typed_scalar("n_blocks", raw.get("n_blocks", 10), int)
        data_dir = typed_scalar("data_dir", raw.get("data_dir", "data"), str)
        output_dir = typed_scalar("output_dir", raw.get("output_dir", "out"), str)
    except TypeError as exc:
        raise ConfigError(str(exc))
    if seed < 0:
        # Every stream's seed is derived from it, and SeedSequence takes none below 0.
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_blocks < 2:
        # evaluate cuts every dataset into this many blocks.
        raise ConfigError(f"n_blocks must be >= 2, got {n_blocks}")

    # Each entry is read in one try: its checks raise plain KeyError,
    # TypeError or ValueError, and the handlers name the entry once.
    data_dir = base / data_dir
    datasets = []
    for i, d in enumerate(_config_list(raw, "datasets")):
        try:
            _reject_unknown_keys(d, _DATASET_KEYS)
            dataset_id = d["id"]
            if any(spec.ref.dataset_id == dataset_id for spec in datasets):
                raise ValueError(f"duplicate id {dataset_id!r}")
            phase = d.get("phase", "feedback")
            if phase not in PHASES:
                raise ValueError(f"unknown phase {phase!r}")
            fields = {"n_mvc": 0, "n_time": 0}
            if "shape" in d:
                mixed = [k for k in ("cat", "num", "mvc", "time") if k in d]
                if mixed:
                    raise ValueError("'shape' sets the column counts; drop "
                                     + ", ".join(map(repr, mixed)))
                fields.update(shape_columns(d["shape"]))
            fields.update((field, d[key]) for key, field in _STREAM_KEYS.items() if key in d)
            gen = DriftGenSpec(**fields, n_blocks=n_blocks, seed=_derived_seed(seed, i))
            plain_name("id", gen.dataset_id)
            ref = DatasetRef(dataset_id, data_dir / f"{dataset_id}.data.csv",
                             data_dir / f"{dataset_id}.schema.csv", d["budget_seconds"])
            datasets.append(DatasetSpec(phase=phase, gen=gen, ref=ref))
        except KeyError as exc:
            raise ConfigError(f"dataset entry {i}: missing key {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dataset entry {i}: {exc}")

    predictors = []
    for i, p in enumerate(_config_list(raw, "predictors")):
        where = f"predictor entry {i}"
        try:
            _reject_unknown_keys(p, _PREDICTOR_KEYS)
            name = plain_name("name", typed_scalar("name", p["name"], str))
            if any(spec.name == name for spec in predictors):
                raise ValueError(f"duplicate name {name!r}")
            where = f"predictor {name}"
            kind = typed_scalar("type", p.get("type", "baseline"), str)
            bundle = plain_name("bundle", typed_scalar("bundle", p.get("bundle", "default"), str))
            if kind not in ("baseline", "command"):
                raise ValueError(f"unknown type {kind!r}")
            unread = "options" if kind == "command" else "command"
            if unread in p:
                raise ValueError(f"{kind} predictors take no {unread!r}")
            command = p.get("command", [])
            if not (isinstance(command, list) and all(isinstance(c, str) for c in command)):
                # A string would run as one program per character.
                raise TypeError(f"command must be a list of strings, got {command!r}")
            if kind == "command" and not command:
                raise ValueError("command predictors need a command")
            options = p.get("options", {})
            if not isinstance(options, dict):
                raise TypeError(f"options must be an object, got {type(options).__name__}")
            baseline = BaselineConfig(**{"seed": seed, **options}) if kind == "baseline" else None
            predictors.append(PredictorSpec(name=name, bundle=bundle, baseline=baseline,
                                            command=tuple(command)))
        except KeyError as exc:
            raise ConfigError(f"{where}: missing key {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}")

    return RunConfig(
        n_blocks=n_blocks,
        data_dir=data_dir,
        output_dir=base / output_dir,
        datasets=tuple(datasets),
        predictors=tuple(predictors),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_generate(config: RunConfig) -> int:
    """Synthesize and save every configured stream, one at a time: each
    is saved and freed before the next is synthesized, so peak memory
    follows the largest stream, not two of them."""
    config.data_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'dataset':>8} {'phase':>9} {'budget(s)':>10} {'cat':>5} {'num':>5} "
          f"{'mvc':>5} {'time':>5} {'features':>9} {'rows':>8}")
    for spec in config.datasets:
        ref, g = spec.ref, spec.gen
        # No name holds the stream, so it is freed as save_dataset returns.
        save_dataset(generate_drift_stream(g), ref.data_path, ref.schema_path)
        print(f"{ref.dataset_id:>8} {spec.phase:>9} {ref.budget_seconds:>10.1f} "
              f"{g.n_cat:>5} {g.n_num:>5} {g.n_mvc:>5} {g.n_time:>5} "
              f"{g.n_features:>9} {g.n_rows:>8}")
    return 0


def _evaluate_one(datasets: list[DatasetRef], n_blocks: int, pred: PredictorSpec,
                  out_dir: Path, workdir: Path) -> list[EvaluationTrace]:
    def make_predictor(ref: DatasetRef) -> BaselinePredictor | SubprocessPredictor:
        if pred.baseline is not None:
            return BaselinePredictor(pred.baseline)
        return SubprocessPredictor(pred.command, workdir / pred.name / ref.dataset_id)

    traces = run_suite(datasets, n_blocks, make_predictor)
    pred_dir = out_dir / pred.name
    pred_dir.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        # What was scored, and how the run went: only `dataset` is in both,
        # so the score file holds no wall-clock value.
        score_payload = {
            "dataset": trace.dataset_id,
            "mean_auc": trace.mean_auc,
            "disqualified": trace.disqualified,
            "blocks": [{"block": s.step, "auc": s.auc, "single_class": s.single_class}
                       for s in trace.steps],
        }
        trace_payload = {
            "dataset": trace.dataset_id,
            "outcome": trace.outcome,
            "error": trace.error,
            "budget_seconds": trace.budget_seconds,
            "total_elapsed_seconds": trace.total_elapsed_seconds,
            "steps": [{"step": s.step, "trained_rows": s.trained_rows,
                       "elapsed_seconds": s.elapsed_seconds} for s in trace.steps],
        }
        for suffix, payload in (("score", score_payload), ("trace", trace_payload)):
            out = pred_dir / f"{trace.dataset_id}.{suffix}.json"
            out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    entry = SubmissionEntry(
        team=pred.name,
        bundle=pred.bundle,
        aucs={t.dataset_id: t.mean_auc for t in traces},
        duration_seconds=sum(t.total_elapsed_seconds for t in traces),
        disqualified={t.dataset_id: t.disqualified for t in traces},
    )
    write_submission(pred_dir / "submission.json", entry)
    return traces


def _pin_worker(cpus) -> None:
    """Pool initializer: pin this worker, and every process it starts, to
    the next CPU of ``cpus``, one a worker."""
    os.sched_setaffinity(0, {cpus.get()})


def cmd_evaluate(config: RunConfig, phase_name: str, predictor_names: list[str],
                 out_dir: Path, workdir: Path, jobs: int) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    repeated = sorted({n for n in predictor_names if predictor_names.count(n) > 1})
    if repeated:
        # Two runs of one predictor would share its output and work directories.
        raise ConfigError("--predictor given more than once: " + ", ".join(repeated))
    if phase_name not in PHASES:
        raise ConfigError(f"unknown phase {phase_name!r}; expected one of {PHASES}")
    refs = [spec.ref for spec in config.datasets if spec.phase == phase_name]
    if not refs:
        raise ConfigError(f"no datasets configured for phase {phase_name!r}")
    for ref in refs:
        if not ref.data_path.exists() or not ref.schema_path.exists():
            raise ConfigError(
                f"dataset {ref.dataset_id}: files missing under {config.data_dir} "
                f"(run the generate command first)"
            )
    predictors = [config.predictor(name) for name in predictor_names]

    evaluate = functools.partial(_evaluate_one, refs, config.n_blocks,
                                 out_dir=out_dir, workdir=workdir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each worker is a process of its own, pinned where the platform can
    # pin to a CPU no other worker holds, so one predictor's billed time
    # does not include waiting for another's; more workers than usable
    # CPUs would make them wait for each other anyway.  The pool's modules
    # are imported only here, so a serial run loads none of them.
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(jobs, len(predictors), usable)
    if workers > 1:
        import concurrent.futures
        import multiprocessing
        pin = {}
        if hasattr(os, "sched_setaffinity"):
            cpus = multiprocessing.SimpleQueue()
            for cpu in sorted(os.sched_getaffinity(0))[:workers]:
                cpus.put(cpu)
            pin = {"initializer": _pin_worker, "initargs": (cpus,)}
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, **pin) as pool:
            all_scores = list(pool.map(evaluate, predictors))
    else:
        all_scores = [evaluate(p) for p in predictors]

    any_disqualified = any(s.disqualified for scores in all_scores for s in scores)
    for pred, scores in zip(predictors, all_scores):
        for s in scores:
            flag = " DISQUALIFIED" if s.disqualified else ""
            print(f"{pred.name:>16} {s.dataset_id:>8} auc={s.mean_auc:.4f} "
                  f"elapsed={s.total_elapsed_seconds:.2f}s{flag}")
    return 2 if any_disqualified else 0


def cmd_leaderboard(score_dirs: list[Path], merge: bool, out_dir: Path) -> int:
    entries = []
    source: dict[tuple[str, str], Path] = {}   # (bundle, team) -> score directory
    for d in score_dirs:
        sub = Path(d) / "submission.json"
        if not sub.exists():
            raise ConfigError(f"{d}: no submission.json found")
        try:
            entry = read_submission(sub)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{sub}: malformed submission file ({exc})")
        key = (entry.bundle, entry.team)
        if key in source:
            # A board row per submission would rank the team twice.
            raise ConfigError(f"team {entry.team!r} submitted twice to bundle "
                              f"{entry.bundle!r}: {source[key]} and {d}")
        source[key] = d
        entries.append(entry)
    if not entries:
        raise ConfigError("no score directories given")

    datasets = sorted(entries[0].aucs)
    for e in entries:
        if sorted(e.aucs) != datasets:
            raise ConfigError(
                f"submission {e.team!r} scored datasets {sorted(e.aucs)}, "
                f"expected {datasets}"
            )

    by_bundle: dict[str, list[SubmissionEntry]] = {}
    for e in entries:
        by_bundle.setdefault(e.bundle, []).append(e)
    if merge and "merged" in by_bundle:
        # Its board and the merged board would both be leaderboard_merged.csv.
        raise ConfigError("bundle 'merged' is reserved for the merged board under --merge")

    out_dir.mkdir(parents=True, exist_ok=True)
    for bundle in sorted(by_bundle):
        board = build_leaderboard(by_bundle[bundle], datasets)
        path = out_dir / f"leaderboard_{bundle}.csv"
        path.write_text(render_leaderboard_csv(board), encoding="utf-8")
        print(f"wrote {path}")
    if merge:
        board = merge_bundles(by_bundle, datasets)
        path = out_dir / "leaderboard_merged.csv"
        path.write_text(render_leaderboard_csv(board), encoding="utf-8")
        print(f"wrote {path}")
        if board.excluded_teams:
            print("excluded (submitted to multiple bundles): "
                  + ", ".join(board.excluded_teams))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbench",
        description="Lifelong evaluation harness for drifting tabular streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize the configured datasets")
    gen.add_argument("--config", required=True)

    ev = sub.add_parser("evaluate", help="run predictors through a phase")
    ev.add_argument("--config", required=True)
    ev.add_argument("--phase", default="feedback", help="feedback or final")
    ev.add_argument("--predictor", action="append", required=True,
                    help="registered predictor name; repeatable")
    ev.add_argument("--out", default=None, help="output directory for score/trace files")
    ev.add_argument("--workdir", default=None,
                    help="scratch root for external predictors (default: <out>/work)")
    ev.add_argument("--jobs", type=int, default=1,
                    help="predictors evaluated concurrently, each in a process of its "
                         "own pinned to one CPU (capped at the usable CPUs)")

    lb = sub.add_parser("leaderboard", help="rank scored submissions")
    lb.add_argument("score_dirs", nargs="+",
                    help="directories holding submission.json files")
    lb.add_argument("--merge", action="store_true",
                    help="also emit the merged cross-bundle board")
    lb.add_argument("--out", default=".", help="directory for leaderboard files")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse printed the help or a usage error; 2 would mean "disqualified".
        return 1 if exc.code else 0
    try:
        if args.command == "generate":
            config = load_config(args.config)
            return cmd_generate(config)
        if args.command == "evaluate":
            config = load_config(args.config)
            out_dir = Path(args.out) if args.out else config.output_dir
            workdir = Path(args.workdir) if args.workdir else out_dir / "work"
            return cmd_evaluate(config, args.phase, args.predictor, out_dir,
                                workdir, args.jobs)
        # argparse allows no other command.
        return cmd_leaderboard([Path(d) for d in args.score_dirs], args.merge, Path(args.out))
    except (ConfigError, OSError) as exc:
        # An OSError here is an input or output path the command cannot
        # use, such as a --out that is an existing file.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
