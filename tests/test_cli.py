import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from driftbench.cli import build_parser, load_config, main
from driftbench.ranking import SubmissionEntry, write_submission

from published_results import DATASETS, FEEDBACK_TOP10, FEEDBACK_TOP6, FIELD_FILLER
from test_acceptance import MASKED_KEY_PARTS, _masked_csv

FAST_BASELINE = {"initial_trees": 6, "trees_per_block": 2, "max_depth": 2,
                 "learning_rate": 0.3}


def write_config(tmp_path, *, n_datasets=3, rows=240, budget=60.0, seed=11,
                 extra_predictors=()):
    datasets = []
    for i in range(n_datasets):
        datasets.append({
            "id": f"d{i}", "phase": "feedback", "rows": rows,
            "cat": 2, "num": 2, "mvc": 1, "time": 1,
            "budget_seconds": budget,
            "drift": "gradual" if i % 2 else "none",
            "drift_magnitude": 0.8 if i % 2 else 0.0,
        })
    datasets.append({
        "id": "priv", "phase": "final", "rows": rows, "cat": 2, "num": 2,
        "budget_seconds": budget,
    })
    config = {
        "seed": seed,
        "n_blocks": 6,
        "data_dir": "data",
        "output_dir": "out",
        "datasets": datasets,
        "predictors": [
            {"name": "baseline", "type": "baseline", "bundle": "env-a",
             "options": FAST_BASELINE},
            {"name": "echo", "type": "command", "bundle": "env-b",
             "command": [sys.executable, "-m", "driftbench.echo_predictor"]},
            *extra_predictors,
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_generate_writes_every_dataset(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["generate", "--config", str(config)]) == 0
    for name in ("d0", "d1", "d2", "priv"):
        assert (tmp_path / "data" / f"{name}.data.csv").exists()
        assert (tmp_path / "data" / f"{name}.schema.csv").exists()
    out = capsys.readouterr().out
    assert out.count("feedback") == 3
    assert out.count("final") == 1


def test_generate_is_idempotent(tmp_path):
    config = write_config(tmp_path)
    main(["generate", "--config", str(config)])
    first = (tmp_path / "data" / "d0.data.csv").read_bytes()
    main(["generate", "--config", str(config)])
    assert (tmp_path / "data" / "d0.data.csv").read_bytes() == first


def test_config_seed_changes_data(tmp_path):
    data = []
    for seed in (11, 99):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        assert main(["generate", "--config", str(write_config(root, seed=seed))]) == 0
        data.append((root / "data" / "d0.data.csv").read_bytes())
    assert data[0] != data[1]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_negative_config_seed_is_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path, n_datasets=1, seed=-5)
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert "error: seed must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "out").exists()


def test_removed_seed_flag_is_a_usage_error(tmp_path, capsys):
    # The seed comes only from the config; exit 2 would read as a
    # disqualification.
    config = write_config(tmp_path, n_datasets=1)
    assert main(["generate", "--config", str(config), "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_missing_config_is_a_usage_error(capsys):
    assert main(["evaluate"]) == 1
    assert "--config" in capsys.readouterr().err
    assert main(["evaluate", "--help"]) == 0
    assert "--predictor" in capsys.readouterr().out


def test_readme_quickstart_flags_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command-line quickstart\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    accepted = {flag for command in commands for action in command._actions
                for flag in action.option_strings} - {"-h", "--help"}
    assert documented == accepted


def test_generate_table_shaped_specs(tmp_path, capsys):
    config = {
        "seed": 1, "n_blocks": 10, "data_dir": "desk",
        "datasets": [
            {"id": s, "phase": "feedback", "rows": 120, "shape": s,
             "budget_seconds": 30.0}
            for s in ("A", "B", "C", "D", "E")
        ],
        "predictors": [],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path)]) == 0
    header = (tmp_path / "desk" / "B.data.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 26  # 25 features + label


# SHA-256 of every file `generate` writes for PINNED_DATASETS at seed 2018.
# Any change to a generated byte fails here; update the pins only together
# with a note saying why the streams changed.
PINNED_DATASETS = (("A", "none", 0.0), ("B", "gradual", 0.8), ("C", "abrupt", 2.5),
                   ("D", "gradual", 0.8), ("E", "abrupt", 2.5))
PINNED_SHA256 = {
    "A.data.csv": "fe9e42ab3b8ccdbb85d72d5aad7434337281a3160e366a82887c645aa717749b",
    "A.schema.csv": "bf9f6b78048858d6af2382195c7d1f400ef7264bf5515570bca20309eef7251f",
    "B.data.csv": "626db68fddcc9d6e29841becc12db2ce082078b1386f5f0045a326f3a3012e48",
    "B.schema.csv": "ad5958b967d01a6b0cd5f6a8f73aa1583aef5319fe14ea365bae4e516a721fd3",
    "C.data.csv": "e22ec9385868b3e28be4165775e22b892920b0e23a3761ccb614b37ca09b1a1c",
    "C.schema.csv": "2bb23a1a77c01240a92071490a9853cc92c5ccaf7e5ed196f3be31ff4dd48fe5",
    "D.data.csv": "08696d8a7d0fac38455bee5cb80d2667aa25997ae2ed7f593ea7b1a5d2a89b90",
    "D.schema.csv": "04c06b02332e5e0feb62dcf232cb4d8f5e87beaf500962fa274608d4919b165a",
    "E.data.csv": "4c744907af5471b956b63c852ab61b03119e2b8534081adeca501bb907380c08",
    "E.schema.csv": "91025c382665b0a030e3b173c1041c9d5505eb1202cc9fbd2aae830934d09ea5",
}


def test_generated_bytes_are_pinned(tmp_path):
    config = {
        "seed": 2018, "n_blocks": 4, "data_dir": "data",
        "datasets": [
            {"id": shape, "rows": 200, "shape": shape, "budget_seconds": 10.0,
             "drift": drift, "drift_magnitude": magnitude}
            for shape, drift, magnitude in PINNED_DATASETS
        ],
        "predictors": [],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "data").iterdir()}
    assert digests == PINNED_SHA256


def test_evaluate_writes_scores_and_exits_zero(tmp_path):
    config = write_config(tmp_path, n_datasets=5)
    main(["generate", "--config", str(config)])
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "baseline"])
    assert rc == 0
    out = tmp_path / "out" / "baseline"
    assert len(list(out.glob("*.score.json"))) == 5
    for name in ("d0", "d1", "d2", "d3", "d4"):
        score = json.loads((out / f"{name}.score.json").read_text())
        assert not score["disqualified"]
        assert len(score["blocks"]) == 5
        trace = json.loads((out / f"{name}.trace.json").read_text())
        assert trace["outcome"] == "completed"
        assert [s["step"] for s in trace["steps"]] == [1, 2, 3, 4, 5]
    submission = json.loads((out / "submission.json").read_text())
    assert submission["team"] == "baseline"
    assert set(submission["datasets"]) == {"d0", "d1", "d2", "d3", "d4"}


# SHA-256 over every file that `generate`, `evaluate` and `leaderboard
# --merge` write under data/ and out/ (work/ left out) for write_config's
# config at seed 11, with wall-clock values masked as criterion 8 masks
# them.  Any other changed output byte fails here; update the pin only
# together with a note saying why the outputs changed.  Last re-recorded
# when score.json and trace.json stopped sharing keys other than `dataset`
# (data/, submission.json and leaderboard bytes unchanged).
PINNED_OUTPUT_SHA256 = "83f91c36656f2e49e2af355519c7108795be761be26e0e72e3453703873224b5"


def _pinned_bytes(path: Path) -> bytes:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        keys = "|".join(MASKED_KEY_PARTS)
        text = re.sub(rf'("[^"]*(?:{keys})[^"]*": )[^,\n]+', r"\1<time>", text)
    elif path.name.startswith("leaderboard"):
        text = _masked_csv(text)
    return text.encode("utf-8")


def test_pipeline_output_bytes_are_pinned(tmp_path):
    config = write_config(tmp_path, n_datasets=2)
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config), "--predictor", "baseline",
                 "--predictor", "echo"]) == 0
    out = tmp_path / "out"
    assert main(["leaderboard", str(out / "baseline"), str(out / "echo"), "--merge",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "data").rglob("*")) + sorted(out.rglob("*")):
        rel = path.relative_to(tmp_path)
        if path.is_file() and "work" not in rel.parts:
            digest.update(f"{rel.as_posix()}\n".encode() + _pinned_bytes(path) + b"\0")
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


@pytest.fixture(scope="module")
def score_and_trace_files(tmp_path_factory):
    """(score, trace) payload pairs from one baseline + echo evaluate."""
    root = tmp_path_factory.mktemp("evaluated")
    config = write_config(root, n_datasets=2)
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config), "--predictor", "baseline",
                 "--predictor", "echo"]) == 0
    return [tuple(json.loads((root / "out" / pred / f"{ds}.{kind}.json").read_text())
                  for kind in ("score", "trace"))
            for pred in ("baseline", "echo") for ds in ("d0", "d1")]


def test_score_and_trace_files_share_only_the_dataset(score_and_trace_files):
    for score, trace in score_and_trace_files:
        assert set(score) & set(trace) == {"dataset"}
        assert [b["block"] for b in score["blocks"]] == [s["step"] for s in trace["steps"]]
        keys = set(score).union(*score["blocks"])
        assert not any(part in key for key in keys for part in MASKED_KEY_PARTS)


def test_readme_score_and_trace_keys_match_the_files(score_and_trace_files):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n**Score / trace files**", 1)[1].split("\n\n**", 1)[0]
    documented = {}
    for kind, listed, entry in re.findall(
            r"^\* `<dataset>\.(\w+)\.json`(.*?)\{(.*?)\}", section, re.M | re.S):
        documented[kind] = (set(re.findall(r"`(\w+)`", listed)),
                            set(re.split(r",\s*", entry)))
    assert set(documented) == {"score", "trace"}
    for score, trace in score_and_trace_files:
        for kind, payload, entries in (("score", score, score["blocks"]),
                                       ("trace", trace, trace["steps"])):
            assert set(payload) == documented[kind][0], kind
            assert all(set(e) == documented[kind][1] for e in entries), kind


def test_evaluate_final_phase_uses_private_datasets(tmp_path):
    config = write_config(tmp_path)
    main(["generate", "--config", str(config)])
    rc = main(["evaluate", "--config", str(config), "--phase", "final",
               "--predictor", "baseline"])
    assert rc == 0
    assert (tmp_path / "out" / "baseline" / "priv.score.json").exists()


def test_evaluate_disqualification_exit_code(tmp_path):
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text("import time\ntime.sleep(30)\n")
    config = write_config(
        tmp_path, n_datasets=1, budget=0.6,
        extra_predictors=(
            {"name": "sleeper", "type": "command", "bundle": "env-b",
             "command": [sys.executable, str(sleeper)]},
        ),
    )
    main(["generate", "--config", str(config)])
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "sleeper"])
    assert rc == 2
    score = json.loads((tmp_path / "out" / "sleeper" / "d0.score.json").read_text())
    assert score["disqualified"] and score["mean_auc"] == 0.0
    trace = json.loads((tmp_path / "out" / "sleeper" / "d0.trace.json").read_text())
    assert trace["outcome"] == "timed-out"


def test_evaluate_unknown_predictor_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["generate", "--config", str(config)])
    assert main(["evaluate", "--config", str(config), "--phase", "feedback",
                 "--predictor", "mystery"]) == 1
    assert "unknown predictor" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_evaluate_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    config = write_config(tmp_path, n_datasets=1)
    main(["generate", "--config", str(config)])
    assert main(["evaluate", "--config", str(config), "--predictor", "echo",
                 "--jobs", jobs]) == 1
    assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_repeated_predictor_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, n_datasets=1)
    main(["generate", "--config", str(config)])
    assert main(["evaluate", "--config", str(config), "--predictor", "echo",
                 "--predictor", "baseline", "--predictor", "echo", "--jobs", "2"]) == 1
    assert "error: --predictor given more than once: echo" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_unknown_phase_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["evaluate", "--config", str(config), "--phase", "warmup",
                 "--predictor", "baseline"]) == 1


def test_evaluate_before_generate_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "baseline"])
    assert rc == 1
    assert "generate" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "echo"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not UTF-8 text (")
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", [0.0, -5.0, float("nan")])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_nonpositive_budget_is_config_error(tmp_path, capsys, command, budget):
    config = write_config(tmp_path, n_datasets=1)
    raw = json.loads(config.read_text())
    raw["datasets"][0]["budget_seconds"] = budget
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert (f"error: dataset entry 0: budget_seconds must be a finite number > 0, "
            f"got {budget}") in err


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_infinite_budget_is_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path, n_datasets=1)
    raw = json.loads(config.read_text())
    raw["datasets"][0]["budget_seconds"] = float("inf")
    config.write_text(json.dumps(raw))
    assert '"budget_seconds": Infinity' in config.read_text()
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "echo"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: dataset entry 0: budget_seconds must be a finite number > 0, got inf" in err


@pytest.mark.parametrize("key, value, message", [
    ("drift_magnitude", float("inf"), "drift_magnitude must be a finite number >= 0, got inf"),
    ("drift_magnitude", float("nan"), "drift_magnitude must be a finite number >= 0, got nan"),
    ("power_exponent", float("inf"), "power_exponent must be a finite number > 0, got inf"),
    ("power_exponent", float("nan"), "power_exponent must be a finite number > 0, got nan"),
], ids=["magnitude-inf", "magnitude-nan", "exponent-inf", "exponent-nan"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_nonfinite_generator_parameter_is_config_error(tmp_path, capsys, command, key, value,
                                                       message):
    # The JSON reader accepts Infinity and NaN; the generator must not.
    config = write_config(tmp_path, n_datasets=1)
    raw = json.loads(config.read_text())
    raw["datasets"][0].update({"drift": "gradual", key: value})
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "echo"]
    assert main(argv) == 1
    assert f"error: dataset entry 0: {message}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "out").exists()


def test_duplicate_dataset_id_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    raw["datasets"][1]["id"] = "d0"
    config.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(config)]) == 1
    assert "duplicate id 'd0'" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_duplicate_predictor_name_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, extra_predictors=[
        {"name": "echo", "type": "baseline", "options": FAST_BASELINE},
    ])
    assert main(["generate", "--config", str(config)]) == 1
    assert "duplicate name 'echo'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    ({"rows": 60.9}, "n_rows must be an integer, got 60.9"),
    ({"rows": "60"}, "n_rows must be an integer, got '60'"),
    ({"cat": True}, "n_cat must be an integer, got True"),
    ({"cat": 2.7}, "n_cat must be an integer, got 2.7"),
    ({"budget_seconds": "30"}, "budget_seconds must be a number, got '30'"),
    ({"budget_seconds": True}, "budget_seconds must be a number, got True"),
    ({"drift_magnitude": "0.5"}, "drift_magnitude must be a number, got '0.5'"),
    ({"cat_cardinality": 4.5}, "cat_cardinality must be an integer, got 4.5"),
    ({"shape": "Z"}, "unknown dataset shape 'Z'"),
    ({"n_blocks": 6}, "unknown key 'n_blocks'"),
    ({"id": 5}, "dataset_id must be a string, got 5"),
    ({"drift_magnitude": 10**400},
     "drift_magnitude must be a finite number, got an integer too large for a float"),
    ({"budget_seconds": 10**400},
     "budget_seconds must be a finite number, got an integer too large for a float"),
    ({"phase": "x"}, "unknown phase 'x'"),
], ids=["rows-float", "rows-str", "cat-bool", "cat-float", "budget-str", "budget-bool",
        "magnitude-str", "cardinality-float", "unknown-shape", "own-n-blocks", "id-int",
        "magnitude-huge", "budget-huge", "phase-unknown"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_dataset_entry_fault_is_config_error(tmp_path, capsys, command, edit, message):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    entry = raw["datasets"][1]
    if "shape" in edit:
        for key in ("cat", "num", "mvc", "time"):
            del entry[key]
    entry.update(edit)
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert f"error: dataset entry 1: {message}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["id", "budget_seconds"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_dataset_entry_missing_key_is_config_error(tmp_path, capsys, command, key):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    del raw["datasets"][0][key]
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert f"error: dataset entry 0: missing key '{key}'\n" == capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "sub/x", "../x", "x/"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_dataset_id_that_is_not_a_file_name_is_config_error(tmp_path, capsys, command, name):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    raw["datasets"][1]["id"] = name
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: dataset entry 1: id {name!r} is not a plain file name\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_predictor_name_that_is_not_a_file_name_is_config_error(tmp_path, capsys, command,
                                                               name):
    config = write_config(tmp_path, extra_predictors=[
        {"name": name, "type": "baseline", "options": FAST_BASELINE},
    ])
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: predictor entry 2: name {name!r} is not a plain file name\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_unknown_dataset_key_is_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    raw["datasets"][1]["drift_magnitud"] = raw["datasets"][1].pop("drift_magnitude")
    config.write_text(json.dumps(raw))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--predictor", "baseline"]
    assert main(argv) == 1
    assert "error: dataset entry 1: unknown key 'drift_magnitud'" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_unknown_predictor_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, extra_predictors=[
        {"name": "slow", "type": "baseline", "option": FAST_BASELINE, "bundel": "x"},
    ])
    assert main(["generate", "--config", str(config)]) == 1
    assert "error: predictor entry 2: unknown key 'bundel', 'option'" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["datasets", "predictors"])
def test_non_object_entry_is_config_error(tmp_path, capsys, section):
    config = write_config(tmp_path, n_datasets=1)
    raw = json.loads(config.read_text())
    raw[section].insert(0, "gbt")
    config.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(config)]) == 1
    assert f"{section[:-1]} entry 0: expected an object, got str" in capsys.readouterr().err


def _with_key(raw, index, **entry):
    predictors = list(raw["predictors"])
    predictors[index] = dict(predictors[index], **entry)
    return dict(raw, predictors=predictors)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: [1, 2], "expected an object, got list"),
    (lambda raw: dict(raw, sead=3), "unknown key 'sead'"),
    (lambda raw: dict(raw, seed="x"), "seed must be an integer, got 'x'"),
    (lambda raw: dict(raw, n_blocks=6.5), "n_blocks must be an integer, got 6.5"),
    (lambda raw: dict(raw, n_blocks=1), "n_blocks must be >= 2, got 1"),
    (lambda raw: dict(raw, datasets=5), "datasets must be a list, got int"),
    (lambda raw: dict(raw, predictors=3), "predictors must be a list, got int"),
    (lambda raw: dict(raw, datasets={"A": raw["datasets"][0]}),
     "datasets must be a list, got dict"),
    (lambda raw: _with_key(raw, 0, options=[1]),
     "predictor baseline: options must be an object, got list"),
    (lambda raw: _with_key(raw, 0, options={"max_dept": 3}),
     "predictor baseline: BaselineConfig.__init__() got an unexpected keyword argument 'max_dept'"),
    (lambda raw: _with_key(raw, 0, options={"max_depth": 0}),
     "predictor baseline: tree depth must be >= 1"),
    (lambda raw: _with_key(raw, 0, options={"cat_encoder": "onehot"}),
     "predictor baseline: BaselineConfig.__init__() got an unexpected keyword argument "
     "'cat_encoder'"),
    (lambda raw: _with_key(raw, 0, options={"decay": 0}),
     "predictor baseline: decay must be in (0, 1], got 0"),
    (lambda raw: _with_key(raw, 0, options={"decay": -0.5}),
     "predictor baseline: decay must be in (0, 1], got -0.5"),
    (lambda raw: _with_key(raw, 0, options={"decay": 1.5}),
     "predictor baseline: decay must be in (0, 1], got 1.5"),
    (lambda raw: _with_key(raw, 0, options={"policy": "adaptive-lr"}),
     "predictor baseline: policy must be one of ('grow-full-history', 'sliding-window'), "
     "got 'adaptive-lr'"),
    (lambda raw: _with_key(raw, 0, options={"target_smoothing": -1}),
     "predictor baseline: BaselineConfig.__init__() got an unexpected keyword argument "
     "'target_smoothing'"),
    (lambda raw: _with_key(raw, 0, options={"target_smoothing": float("nan")}),
     "predictor baseline: BaselineConfig.__init__() got an unexpected keyword argument "
     "'target_smoothing'"),
    (lambda raw: _with_key(raw, 1, options=FAST_BASELINE),
     "predictor echo: command predictors take no 'options'"),
    (lambda raw: _with_key(raw, 0, command=["python3", "learner.py"]),
     "predictor baseline: baseline predictors take no 'command'"),
    (lambda raw: _with_key(raw, 0, options={"initial_trees": 2.5}),
     "predictor baseline: initial_trees must be an integer, got 2.5"),
    (lambda raw: _with_key(raw, 0, options={"max_depth": 2.5}),
     "predictor baseline: max_depth must be an integer, got 2.5"),
    (lambda raw: _with_key(raw, 0, options={"window_blocks": 1.5}),
     "predictor baseline: window_blocks must be an integer, got 1.5"),
    (lambda raw: _with_key(raw, 0, options={"subsample_cap": 10.5}),
     "predictor baseline: subsample_cap must be an integer, got 10.5"),
    (lambda raw: _with_key(raw, 0, options={"decay": True}),
     "predictor baseline: decay must be a number, got True"),
    (lambda raw: _with_key(raw, 0, options={"seed": "x"}),
     "predictor baseline: seed must be an integer, got 'x'"),
    (lambda raw: _with_key(raw, 0, options={"learning_rate": "0.1"}),
     "predictor baseline: learning_rate must be a number, got '0.1'"),
    (lambda raw: dict(raw, seed=-1), "error: seed must be >= 0, got -1"),
    (lambda raw: _with_key(raw, 0, options={"seed": -1}),
     "predictor baseline: seed must be >= 0, got -1"),
    (lambda raw: _with_key(raw, 0, options={"learning_rate": 10**400}),
     "predictor baseline: learning_rate must be a finite number, "
     "got an integer too large for a float"),
    (lambda raw: dict(raw, data_dir=5), "error: data_dir must be a string, got 5"),
    (lambda raw: dict(raw, output_dir=["out"]),
     "error: output_dir must be a string, got ['out']"),
    (lambda raw: _with_key(raw, 0, name=5), "predictor entry 0: name must be a string, got 5"),
    (lambda raw: _with_key(raw, 0, type=["baseline"]),
     "predictor baseline: type must be a string, got ['baseline']"),
    (lambda raw: _with_key(raw, 0, bundle=["x"]),
     "predictor baseline: bundle must be a string, got ['x']"),
    (lambda raw: _with_key(raw, 1, command="python3 -m driftbench.echo_predictor"),
     "predictor echo: command must be a list of strings, "
     "got 'python3 -m driftbench.echo_predictor'"),
    (lambda raw: _with_key(raw, 1, command=["python3", 5]),
     "predictor echo: command must be a list of strings, got ['python3', 5]"),
    (lambda raw: _with_key(raw, 0, name="a,b"),
     "predictor entry 0: name 'a,b' holds a comma or line break"),
    (lambda raw: _with_key(raw, 0, bundle="env\na"),
     "predictor baseline: bundle 'env\\na' holds a comma or line break"),
    (lambda raw: dict(raw, datasets=[dict(raw["datasets"][0], id="d,0")]),
     "dataset entry 0: id 'd,0' holds a comma or line break"),
    (lambda raw: dict(raw, datasets=[dict(raw["datasets"][0], id="d\r0")]),
     "dataset entry 0: id 'd\\r0' holds a comma or line break"),
    (lambda raw: _with_key(raw, 0, bundle="x/y"),
     "error: predictor baseline: bundle 'x/y' is not a plain file name\n"),
    (lambda raw: _with_key(raw, 0, bundle=".."),
     "error: predictor baseline: bundle '..' is not a plain file name\n"),
    (lambda raw: dict(raw, datasets=[dict(raw["datasets"][0], id="d\x000")]),
     "error: dataset entry 0: id 'd\\x000' is not a plain file name\n"),
], ids=["not-an-object", "unknown-key", "seed-not-int", "n-blocks-not-int", "n-blocks-below-2",
        "datasets-int", "predictors-int", "datasets-object", "options-list",
        "unknown-option", "invalid-option", "unknown-encoder", "decay-zero", "decay-negative",
        "decay-above-one", "removed-policy", "smoothing-negative", "smoothing-nan", "options-on-command",
        "command-on-baseline", "initial-trees-float", "max-depth-float", "window-float",
        "cap-float", "decay-bool", "option-seed-str", "learning-rate-str", "seed-negative",
        "option-seed-negative", "learning-rate-huge", "data-dir-int", "output-dir-list",
        "name-int", "type-list", "bundle-list", "command-str", "command-int-arg",
        "name-comma", "bundle-newline", "id-comma", "id-carriage-return",
        "bundle-slash", "bundle-dot-dot", "id-nul"])
def test_top_level_config_fault_is_config_error(tmp_path, capsys, edit, message):
    config = write_config(tmp_path, n_datasets=1)
    assert main(["generate", "--config", str(config)]) == 0
    config.write_text(json.dumps(edit(json.loads(config.read_text()))))
    assert main(["evaluate", "--config", str(config), "--predictor", "baseline"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_options_reach_the_baseline(tmp_path):
    config = write_config(tmp_path, n_datasets=1)
    raw = json.loads(config.read_text())
    raw["predictors"][0]["options"] = dict(FAST_BASELINE, policy="sliding-window", decay=0.5)
    config.write_text(json.dumps(raw))
    baseline = load_config(config).predictor("baseline").baseline
    assert (baseline.policy, baseline.decay) == ("sliding-window", 0.5)
    assert baseline.seed == 11


def test_reference_predictor_refuses_a_removed_encoder_option(tmp_path):
    env = dict(os.environ, DRIFTBENCH_BASELINE_CONFIG='{"cat_encoder": "count"}')
    done = subprocess.run([sys.executable, "-m", "driftbench.reference_predictor",
                           "--schema", str(tmp_path / "schema.csv"), "--workdir", str(tmp_path)],
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert ("BaselineConfig.__init__() got an unexpected keyword argument 'cat_encoder'"
            in done.stderr)


def test_shape_with_column_counts_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, n_datasets=2)
    raw = json.loads(config.read_text())
    raw["datasets"][1]["shape"] = "B"
    config.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(config)]) == 1
    assert ("error: dataset entry 1: 'shape' sets the column counts; "
            "drop 'cat', 'num', 'mvc', 'time'") in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example)
    config = load_config(path)
    assert [d.ref.dataset_id for d in config.datasets] == ["A", "X"]
    assert [p.name for p in config.predictors] == ["baseline", "echo"]


def test_evaluate_workdir_is_the_flag_or_out_work(tmp_path, monkeypatch):
    # A work-directory variable left in the environment moves nothing.
    monkeypatch.setenv("DRIFTBENCH_WORKDIR", str(tmp_path / "env"))
    config = write_config(tmp_path, n_datasets=1)
    main(["generate", "--config", str(config)])
    scratch = tmp_path / "scratch"
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "echo", "--workdir", str(scratch)])
    assert rc == 0
    assert (scratch / "echo" / "d0" / "schema.csv").exists()
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "echo"])
    assert rc == 0
    assert (tmp_path / "out" / "work" / "echo" / "d0" / "schema.csv").exists()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_output_path_that_is_a_file_is_an_error(tmp_path, capsys, command):
    # generate writes into data_dir, evaluate into --out.
    config = write_config(tmp_path, n_datasets=1)
    argv = [command, "--config", str(config)]
    blocked = tmp_path / "data"
    if command == "evaluate":
        main(["generate", "--config", str(config)])
        capsys.readouterr()
        blocked = tmp_path / "blocked"
        argv += ["--predictor", "echo", "--out", str(blocked)]
    blocked.write_text("a file, not a directory\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocked) in err
    assert "Traceback" not in err


def test_evaluate_parallel_jobs_match_serial(tmp_path):
    config = write_config(tmp_path, n_datasets=2)
    main(["generate", "--config", str(config)])
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "baseline", "--predictor", "echo",
               "--out", str(tmp_path / "serial")])
    assert rc == 0
    rc = main(["evaluate", "--config", str(config), "--phase", "feedback",
               "--predictor", "baseline", "--predictor", "echo",
               "--jobs", "2", "--out", str(tmp_path / "parallel")])
    assert rc == 0
    for pred in ("baseline", "echo"):
        for ds in ("d0", "d1"):
            # A score file holds no wall-clock value, so it is compared unmasked.
            a = (tmp_path / "serial" / pred / f"{ds}.score.json").read_bytes()
            b = (tmp_path / "parallel" / pred / f"{ds}.score.json").read_bytes()
            assert a == b


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_evaluate_parallel_jobs_bill_like_serial(tmp_path):
    # Two learners on shape-A streams, run side by side with --jobs 2: in
    # processes of their own, neither is billed for waiting on the other.
    # Threads sharing one interpreter were billed 1.6 to 2.3 times the
    # serial time.  A CPU that has been idle can be slow to take work (on a
    # 2-vCPU VM the first parallel run after an idle spell often shared one
    # CPU), and another program can hold one for a while, so each side warms
    # up with one run, then three serial runs alternate with three parallel
    # ones and the medians are compared.
    learner = {"initial_trees": 6, "trees_per_block": 3, "max_depth": 4,
               "learning_rate": 0.3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "n_blocks": 10,
        "datasets": [{"id": f"a{i}", "shape": "A", "rows": 1000, "budget_seconds": 600,
                      "drift": "gradual", "drift_magnitude": 0.8} for i in range(2)],
        "predictors": [{"name": name, "options": learner} for name in ("one", "two")],
    }))
    assert main(["generate", "--config", str(config)]) == 0

    def billed(jobs, run=0):
        out = tmp_path / f"jobs{jobs}-{run}"
        assert main(["evaluate", "--config", str(config), "--predictor", "one",
                     "--predictor", "two", "--jobs", str(jobs), "--out", str(out)]) == 0
        return sum(json.loads((out / name / "submission.json").read_text())["duration_seconds"]
                   for name in ("one", "two"))

    billed(1)
    billed(2)
    runs = [(billed(1, run), billed(2, run)) for run in range(1, 4)]
    serial = statistics.median(pair[0] for pair in runs)
    parallel = statistics.median(pair[1] for pair in runs)
    assert parallel < 1.5 * serial, runs


# ---------------------------------------------------------------------------
# leaderboard command


def submission_dir(tmp_path, team, aucs, duration, bundle="Py3"):
    d = tmp_path / "subs" / team
    d.mkdir(parents=True, exist_ok=True)
    write_submission(d / "submission.json", SubmissionEntry(
        team=team, bundle=bundle, aucs=dict(zip(DATASETS, aucs)),
        duration_seconds=duration))
    return d


def test_leaderboard_reproduces_published_feedback_rows(tmp_path, capsys):
    dirs = [
        str(submission_dir(tmp_path, team, aucs, dur))
        for team, (aucs, _r, _a, dur) in FEEDBACK_TOP10.items()
    ]
    filler_team, filler_aucs, filler_dur = FIELD_FILLER
    dirs.append(str(submission_dir(tmp_path, filler_team, filler_aucs, filler_dur)))
    out = tmp_path / "boards"
    assert main(["leaderboard", *dirs, "--out", str(out)]) == 0
    lines = (out / "leaderboard_Py3.csv").read_text().splitlines()
    assert lines[0] == "position,bundle,team,avg_rank,A,B,C,D,E,duration"
    by_team = {line.split(",")[2]: line for line in lines[1:]}
    for position, team in enumerate(FEEDBACK_TOP6, start=1):
        _aucs, ranks, avg, dur = FEEDBACK_TOP10[team]
        expected = (f"{position},Py3,{team},{avg:.1f},"
                    + ",".join(str(r) for r in ranks) + f",{dur:.2f}")
        assert by_team[team] == expected


def test_leaderboard_merge_excludes_double_submitters(tmp_path, capsys):
    a = submission_dir(tmp_path, "solo", (0.9,) * 5, 10.0, bundle="env-a")
    b = submission_dir(tmp_path, "dup_a", (0.8,) * 5, 10.0, bundle="env-a")
    c = tmp_path / "subs" / "dup_b"
    c.mkdir(parents=True)
    write_submission(c / "submission.json", SubmissionEntry(
        "dup_a", "env-b", dict(zip(DATASETS, (0.7,) * 5)), 11.0))
    d = submission_dir(tmp_path, "other", (0.5,) * 5, 10.0, bundle="env-b")
    out = tmp_path / "boards"
    rc = main(["leaderboard", str(a), str(b), str(c), str(d), "--merge",
               "--out", str(out)])
    assert rc == 0
    merged = (out / "leaderboard_merged.csv").read_text().splitlines()
    teams = [line.split(",")[2] for line in merged[1:]]
    assert teams == ["solo", "other"]
    assert "dup_a" in capsys.readouterr().out


def test_leaderboard_merge_refuses_a_bundle_named_merged(tmp_path, capsys):
    # Its board would be written to leaderboard_merged.csv, then overwritten.
    a = submission_dir(tmp_path, "one", (0.9,) * 5, 10.0, bundle="merged")
    b = submission_dir(tmp_path, "two", (0.8,) * 5, 10.0, bundle="merged")
    c = submission_dir(tmp_path, "three", (0.7,) * 5, 10.0, bundle="other")
    out = tmp_path / "boards"
    assert main(["leaderboard", str(a), str(b), str(c), "--merge", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: bundle 'merged' is reserved for the merged board "
                            "under --merge\n")
    assert captured.out == ""
    assert not out.exists()
    # Without --merge the name is free.
    assert main(["leaderboard", str(a), str(b), str(c), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["leaderboard_merged.csv",
                                                     "leaderboard_other.csv"]


def test_leaderboard_repeated_team_in_a_bundle_is_config_error(tmp_path, capsys):
    a = submission_dir(tmp_path, "same", (0.9,) * 5, 10.0)
    b = tmp_path / "copy"
    b.mkdir()
    (b / "submission.json").write_bytes((a / "submission.json").read_bytes())
    out = tmp_path / "boards"
    assert main(["leaderboard", str(a), str(b), "--merge", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: team 'same' submitted twice to bundle 'Py3': {a} and {b}\n"
    assert "multiple bundles" not in captured.out
    assert not out.exists()


def test_leaderboard_single_submission(tmp_path):
    d = submission_dir(tmp_path, "only", (0.6,) * 5, 5.0)
    out = tmp_path / "boards"
    assert main(["leaderboard", str(d), "--out", str(out)]) == 0
    lines = (out / "leaderboard_Py3.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,Py3,only,1.0,")


def test_leaderboard_missing_submission_is_config_error(tmp_path, capsys):
    assert main(["leaderboard", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert "submission.json" in capsys.readouterr().err


_HEADER = {"team": "x", "bundle": "Py3", "duration_seconds": 1.0}
_SCORED = {"a": {"auc": 0.5, "disqualified": False}}


@pytest.mark.parametrize("payload", [
    {"team": "x"},
    dict(_HEADER, datasets={"a": 1}),
    dict(_HEADER, datasets=[]),
    dict(_HEADER, datasets={}),
    [],
    dict(_HEADER, team=5, datasets=_SCORED),
    dict(_HEADER, bundle=["x"], datasets=_SCORED),
    dict(_HEADER, datasets={"a": {"auc": True, "disqualified": False}}),
    dict(_HEADER, datasets={"a": {"auc": "0.5", "disqualified": False}}),
    dict(_HEADER, datasets={"a": {"auc": float("nan"), "disqualified": False}}),
    dict(_HEADER, datasets={"a": {"auc": 7.5, "disqualified": False}}),
    dict(_HEADER, datasets={"a": {"auc": 0.5, "disqualified": "false"}}),
    dict(_HEADER, datasets={"a": {"auc": 0.5, "disqualified": 0}}),
    dict(_HEADER, duration_seconds=float("nan"), datasets=_SCORED),
    dict(_HEADER, duration_seconds=float("inf"), datasets=_SCORED),
    dict(_HEADER, duration_seconds="1.0", datasets=_SCORED),
    dict(_HEADER, team="a,b", datasets=_SCORED),
    dict(_HEADER, bundle="Py\n3", datasets=_SCORED),
    dict(_HEADER, datasets={"a\rb": {"auc": 0.5, "disqualified": False}}),
    dict(_HEADER, bundle="x/y", datasets=_SCORED),
    dict(_HEADER, bundle="..", datasets=_SCORED),
    dict(_HEADER, team="t/u", datasets=_SCORED),
    dict(_HEADER, datasets={"../X": {"auc": 0.5, "disqualified": False}}),
    dict(_HEADER, bundle="Py\x003", datasets=_SCORED),
    b"\xff\xfe{}",
], ids=["no-datasets", "dataset-not-object", "datasets-list", "datasets-empty",
        "not-an-object", "team-int", "bundle-list", "auc-bool", "auc-str", "auc-nan",
        "auc-above-one", "disqualified-str", "disqualified-int", "duration-nan",
        "duration-infinite", "duration-str", "team-comma", "bundle-newline",
        "dataset-carriage-return", "bundle-slash", "bundle-dot-dot", "team-slash",
        "dataset-slash", "bundle-nul", "not-utf8"])
def test_leaderboard_malformed_submission_is_config_error(tmp_path, capsys, payload):
    bad = tmp_path / "bad"
    bad.mkdir()
    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    (bad / "submission.json").write_bytes(raw)
    out = tmp_path / "boards"
    assert main(["leaderboard", str(bad), "--out", str(out)]) == 1
    assert f"error: {bad / 'submission.json'}: malformed submission file (" \
        in capsys.readouterr().err
    assert not out.exists()


def test_leaderboard_mismatched_datasets_is_config_error(tmp_path, capsys):
    a = submission_dir(tmp_path, "one", (0.5,) * 5, 1.0)
    b = tmp_path / "subs" / "two"
    b.mkdir(parents=True)
    write_submission(b / "submission.json",
                     SubmissionEntry("two", "Py3", {"A": 0.5}, 1.0))
    assert main(["leaderboard", str(a), str(b), "--out", str(tmp_path)]) == 1
