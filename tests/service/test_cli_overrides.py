"""Bad ``python -m repro.service`` flags: one ``error:`` line and exit 2.

The run flags override a preset's ``ServiceConfig`` through
``dataclasses.replace``, so the config's own validation sees them; a
round count below 1 and a negative or out-of-range ``--until-round`` are
rejected too. None of them may leave a traceback or a snapshot behind.
"""

import pytest

from repro.service.cli import main
from repro.service.snapshot import list_snapshots

BAD_RUN_FLAGS = {
    "checkpoint-every zero": ["--checkpoint-every", "0"],
    "checkpoint-every negative": ["--checkpoint-every", "-3"],
    "history-tail negative": ["--history-tail", "-1"],
    "until-round past rounds": ["--until-round", "99"],
    "until-round negative": ["--until-round", "-1"],
    "rounds zero": ["--rounds", "0"],
}


def _snapshots(path):
    return list_snapshots(path) if path.exists() else []


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("flags", BAD_RUN_FLAGS.values(), ids=BAD_RUN_FLAGS.keys())
def test_bad_run_flag_exits_2_without_a_snapshot(tmp_path, capsys, flags):
    state = tmp_path / "state"
    argv = ["run", "--preset", "blobs-fifl", "--dir", str(state), "--rounds", "6"]
    assert main(argv + flags) == 2
    _assert_one_error_line(capsys)
    assert _snapshots(state) == []


@pytest.mark.parametrize("until", ["99", "-1"])
def test_bad_resume_until_round_exits_2_without_a_snapshot(tmp_path, capsys, until):
    state = tmp_path / "state"
    assert main([
        "run", "--preset", "blobs-fifl", "--dir", str(state), "--rounds", "4",
        "--checkpoint-every", "2", "--until-round", "2",
    ]) == 0
    before = _snapshots(state)
    capsys.readouterr()
    assert main(["resume", "--dir", str(state), "--until-round", until]) == 2
    _assert_one_error_line(capsys)
    assert _snapshots(state) == before
