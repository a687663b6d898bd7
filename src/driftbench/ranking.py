"""Leaderboard arithmetic: per-dataset ranks, average rank, tie-breaking,
and merging of per-environment boards.

Ranking uses the competition ("1224") convention: rank 1 is strictly best,
equal values share the smallest rank of their group, and the next distinct
value skips the shared positions.  Disqualified entries rank below every
qualified entry.  Boards order by average rank, then total duration, then
team id.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .data import SEPARATORS, typed_scalar


@dataclass(frozen=True)
class SubmissionEntry:
    """One team's scored submission: per-dataset mean AUCs plus duration."""

    team: str
    bundle: str
    aucs: Mapping[str, float]
    duration_seconds: float
    disqualified: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.duration_seconds < math.inf:
            raise ValueError("duration_seconds must be a finite number >= 0, "
                             f"got {self.duration_seconds}")

    def is_disqualified(self, dataset: str) -> bool:
        return bool(self.disqualified.get(dataset, False))


@dataclass(frozen=True)
class LeaderboardRow:
    position: int
    bundle: str
    team: str
    average_rank: float
    dataset_ranks: tuple[int, ...]
    duration_seconds: float


@dataclass(frozen=True)
class Leaderboard:
    datasets: tuple[str, ...]
    rows: tuple[LeaderboardRow, ...]
    excluded_teams: tuple[str, ...] = ()


def rank_within_dataset(aucs: Sequence[float],
                        disqualified: Sequence[bool] | None = None) -> list[int]:
    """Competition ranks for one dataset, highest AUC first.

    Disqualified entries sort below all qualified ones and are ordered among
    themselves by AUC, so a group of all-zero disqualified entries shares
    one rank.
    """
    if not aucs:
        raise ValueError("need at least one AUC value")
    if disqualified is None:
        disqualified = [False] * len(aucs)
    keys = [(bool(dq), -float(a)) for a, dq in zip(aucs, disqualified)]
    ranks = []
    for key in keys:
        ranks.append(1 + sum(1 for other in keys if other < key))
    return ranks


def average_rank(ranks: Sequence[int]) -> float:
    if not ranks:
        raise ValueError("need at least one rank")
    return sum(ranks) / len(ranks)


def build_leaderboard(entries: Sequence[SubmissionEntry],
                      datasets: Sequence[str]) -> Leaderboard:
    """Rank entries per dataset, then order by (average rank, duration,
    team id) and assign positions 1..M."""
    datasets = tuple(datasets)
    if not entries:
        return Leaderboard(datasets, ())
    teams = [e.team for e in entries]
    for entry in entries:
        if teams.count(entry.team) > 1:
            raise ValueError(f"{entry.team}: more than one entry")
        missing = [d for d in datasets if d not in entry.aucs]
        if missing:
            raise ValueError(f"{entry.team}: no AUC for dataset {missing[0]!r}")

    ranks_by_team: dict[str, list[int]] = {e.team: [] for e in entries}
    for d in datasets:
        column = rank_within_dataset(
            [e.aucs[d] for e in entries],
            [e.is_disqualified(d) for e in entries],
        )
        for e, r in zip(entries, column):
            ranks_by_team[e.team].append(r)

    scored = [
        (average_rank(ranks_by_team[e.team]), e.duration_seconds, e.team, e)
        for e in entries
    ]
    scored.sort(key=lambda item: item[:3])
    rows = tuple(
        LeaderboardRow(
            position=i + 1,
            bundle=e.bundle,
            team=e.team,
            average_rank=avg,
            dataset_ranks=tuple(ranks_by_team[e.team]),
            duration_seconds=duration,
        )
        for i, (avg, duration, _team, e) in enumerate(scored)
    )
    return Leaderboard(datasets, rows)


def merge_bundles(entries_by_bundle: Mapping[str, Sequence[SubmissionEntry]],
                  datasets: Sequence[str]) -> Leaderboard:
    """Joint board over all bundles.

    Teams that submitted to more than one bundle are removed before the
    remaining entries are re-ranked together.
    """
    bundles_of: dict[str, set[str]] = {}
    for bundle, bundle_entries in entries_by_bundle.items():
        for e in bundle_entries:
            bundles_of.setdefault(e.team, set()).add(bundle)
    excluded = tuple(sorted(team for team, bundles in bundles_of.items() if len(bundles) > 1))
    merged = [
        e
        for bundle_entries in entries_by_bundle.values()
        for e in bundle_entries
        if len(bundles_of[e.team]) == 1
    ]
    board = build_leaderboard(merged, datasets)
    return Leaderboard(board.datasets, board.rows, excluded_teams=excluded)


# ---------------------------------------------------------------------------
# serialization


def render_leaderboard_csv(board: Leaderboard) -> str:
    """Comma-separated view: position, bundle, team, average rank (1
    decimal), one rank column per dataset, duration (2 decimals)."""
    lines = ["position,bundle,team,avg_rank," + ",".join(board.datasets) + ",duration"]
    for row in board.rows:
        ranks = ",".join(str(r) for r in row.dataset_ranks)
        lines.append(
            f"{row.position},{row.bundle},{row.team},{row.average_rank:.1f},"
            f"{ranks},{row.duration_seconds:.2f}"
        )
    return "\n".join(lines) + "\n"


def write_submission(path: str | Path, entry: SubmissionEntry) -> None:
    """Persist a scored submission as JSON (keys documented in the README)."""
    payload = {
        "team": entry.team,
        "bundle": entry.bundle,
        "duration_seconds": entry.duration_seconds,
        "datasets": {
            d: {"auc": entry.aucs[d], "disqualified": entry.is_disqualified(d)}
            for d in sorted(entry.aucs)
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def plain_name(what: str, name: str) -> str:
    """``name``, which the judge uses as one file name (dataset ids,
    predictor names, bundles) or writes unquoted as one leaderboard CSV
    cell (teams, bundles, dataset ids); raises ValueError naming ``what``
    if it is empty, ``.`` or ``..``, or holds a path separator, a NUL, a
    comma or a line break."""
    if name in ("", ".", "..") or any(c in name for c in ("/", os.sep, "\0")):
        raise ValueError(f"{what} {name!r} is not a plain file name")
    if not SEPARATORS.isdisjoint(name):
        raise ValueError(f"{what} {name!r} holds a comma or line break, "
                         "which a leaderboard cell cannot")
    return name


def read_submission(path: str | Path) -> SubmissionEntry:
    """Read a file written by :func:`write_submission`; one of another
    structure, or with a value :func:`write_submission` cannot write (an
    AUC outside [0, 1], a non-bool ``disqualified``, a negative or
    non-finite duration, a name that is not :func:`plain_name`), raises
    KeyError, TypeError or ValueError."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"expected an object, got {type(payload).__name__}")
    datasets = payload["datasets"]
    if not isinstance(datasets, dict):
        raise ValueError(f"'datasets' must be an object, got {type(datasets).__name__}")
    if not datasets:
        raise ValueError("'datasets' is empty")
    team = plain_name("team", typed_scalar("team", payload["team"], str))
    bundle = plain_name("bundle", typed_scalar("bundle", payload["bundle"], str))
    duration = typed_scalar("duration_seconds", payload["duration_seconds"], float)
    aucs, disqualified = {}, {}
    for d, v in datasets.items():
        plain_name("dataset", d)
        aucs[d] = typed_scalar(f"dataset {d!r}: auc", v["auc"], float)
        if not 0 <= aucs[d] <= 1:
            raise ValueError(f"dataset {d!r}: auc must be in [0, 1], got {aucs[d]}")
        disqualified[d] = v["disqualified"]
        if not isinstance(disqualified[d], bool):
            raise TypeError(f"dataset {d!r}: disqualified must be true or false, "
                            f"got {disqualified[d]!r}")
    return SubmissionEntry(team=team, bundle=bundle, aucs=aucs,
                           duration_seconds=duration, disqualified=disqualified)
