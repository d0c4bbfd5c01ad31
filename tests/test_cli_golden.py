"""Every subcommand on a fixed corpus of small rings (n <= 8) against
recorded output.

Text (everything that is not a number, less the padding in front of a
number) must match exactly; each number must match to
1e-12 * max(1, |recorded|). The recording lives in
tests/data/cli_golden.json; to rewrite it from the code on the path, run

    PYTHONPATH=src python tests/test_cli_golden.py --record

and list in CHANGES.md every line whose bytes moved. To list them without
writing anything, run it with --diff instead: it prints each command whose
exit code, stdout or stderr bytes differ from the recording, with the
recorded and the current form of each moved line, and exits 1 if any did.
"""

import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"
RTOL = 1e-12

_CROSSING = repr(2.0 * (2.0 ** 0.5 - 1.0))

CORPUS = [
    # spectrum
    "spectrum --n 1 --j 1 --b 0.7",
    "spectrum --n 2 --j 1",
    "spectrum --n 3 --j -0.8 --b 0.4",
    "spectrum --n 4 --j 1 --b 0.3",
    "spectrum --n 4 --j 1",
    "spectrum --n 5 --j 1.3 --b -0.2",
    "spectrum --n 6 --j -1 --b 0.5",
    "spectrum --n 8 --j 1",
    # thermal
    "thermal --n 1 --j 1 --b 0.8 --t 0.5",
    "thermal --n 2 --j 1 --b 0 --t 1",
    "thermal --n 3 --j -0.8 --b 0.4 --t 0.3",
    "thermal --n 4 --j 1 --b 0 --t 1",
    "thermal --n 4 --j 1 --b 1 --t 1",
    "thermal --n 4 --j 1 --b 10 --t 0.2",
    "thermal --n 5 --j 1.7 --b -0.9 --t 2",
    "thermal --n 6 --j -1.25 --b 0.5 --t 0.8",
    "thermal --n 6 --j 1 --b 0 --t 5",
    "thermal --n 7 --j 0.6 --b 1.1 --t 0.05",
    "thermal --n 8 --j 1 --b 0.3 --t 0.05",
    "thermal --n 8 --j 0 --b 0.5 --t 1",
    "thermal --n 4 --j 1 --t 0",
    f"thermal --n 4 --j 1 --b {_CROSSING} --t 0",
    # ground
    "ground --n 1 --j 1 --b 0.3",
    "ground --n 2 --j 1",
    "ground --n 3 --j 1 --b 0.2",
    "ground --n 4 --j 1",
    "ground --n 4 --j 1 --b 1",
    f"ground --n 4 --j 1 --b {_CROSSING}",
    "ground --n 4 --j 1 --b 2",
    "ground --n 4 --j -1 --b 3",
    "ground --n 5 --j -1.2 --b 0.4",
    "ground --n 6 --j 1 --b 0.3",
    "ground --n 6 --j -1 --b 0.3",
    "ground --n 7 --j 1 --b 0.1",
    "ground --n 8 --j 1",
    "ground --n 8 --j 1 --b 0.7",
    # sweep
    "sweep --n 1 --j 1 --t-min 0.5 --t-max 2 --t-steps 3 --b-min -1 --b-max 1 --b-steps 3",
    "sweep --n 2 --j 1 --t-min 0.5 --t-max 1 --t-steps 2 --b-min 0 --b-max 1 --b-steps 2",
    "sweep --n 4 --j 1 --t-min 0.05 --t-max 3 --t-steps 5 --t-scale log"
    " --b-min 0 --b-max 4 --b-steps 4",
    "sweep --n 6 --j -1 --t-min 0.2 --t-max 2 --t-steps 4 --b-min -0.5 --b-max 0.5 --b-steps 3",
    "sweep --n 8 --j 1.3 --t-min 0.1 --t-max 4 --t-steps 4 --t-scale log"
    " --b-min 0 --b-max 2 --b-steps 3",
    # threshold
    "threshold --n 1 --j 1 --b 1",
    "threshold --n 2 --j 1",
    "threshold --n 3 --j -0.8 --b 0.4",
    "threshold --n 4 --j 1",
    "threshold --n 4 --j 1 --b 1.3 --tol 1e-9",
    "threshold --n 4 --j 0 --b 1",
    "threshold --n 4 --j 1 --tol 10",
    "threshold --n 5 --j 1.7 --b -0.9",
    "threshold --n 6 --j -1 --b 2",
    "threshold --n 8 --j -0.6 --b 0.3",
    # crossings
    "crossings --n 2 --j 1 --b-max 3",
    "crossings --n 3 --j 1 --b-max 3",
    "crossings --n 4 --j 1 --b-max 3",
    "crossings --n 4 --j -1 --b-max 3",
    "crossings --n 5 --j 0.7 --b-max 4",
    "crossings --n 6 --j 1 --b-max 5",
    "crossings --n 8 --j 1 --b-max 5",
    # verify
    "verify --n-list 2,3,4 --samples 5",
    "verify --n-list 1,2 --samples 3 --odd-control 3",
    "verify --n-list 5,6,7,8 --samples 4 --seed 7 --odd-control 0",
    "verify",
    # argument errors
    "thermal --n 0 --j 1 --b 0 --t 1",
    "ground --n 17 --j 1",
    "thermal --n 4 --j 1 --t -1",
    "sweep --n 4 --j 1 --t-min 2 --t-max 1 --t-steps 3 --b-min 0 --b-max 1 --b-steps 2",
    "threshold --n 4 --j 1 --tol 0",
    "crossings --n 4 --j 1 --b-max 0",
    "bogus-subcommand",
]

_NUMBER = re.compile(r" *(?:[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b)")


def run(command: str) -> dict:
    """Exit code, stdout and stderr of one command, run in process."""
    from xxring.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(command.split())
        except SystemExit as exc:  # argparse rejects arguments by exiting
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _split(text: str) -> tuple[str, list[float]]:
    """The text with every number (and the spaces before it) replaced by
    '#', and the numbers."""
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


def differences(got: str, want: str, rtol: float = RTOL) -> list[str]:
    """Lines of got that differ from want beyond the number tolerance rtol
    (relative to max(1, |recorded|)); the text between numbers must match."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, recorded {len(want_lines)}"]
    bad = []
    for g, w in zip(got_lines, want_lines):
        (g_text, g_nums), (w_text, w_nums) = _split(g), _split(w)
        if g_text != w_text or any(abs(a - b) > rtol * max(1.0, abs(b))
                                   for a, b in zip(g_nums, w_nums)):
            bad.append(f"{g!r} vs recorded {w!r}")
    return bad


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_subcommand(recorded):
    from xxring.cli import _COMMANDS

    assert len(CORPUS) >= 40 and len(set(CORPUS)) == len(CORPUS)
    assert {command.split()[0] for command in CORPUS} >= set(_COMMANDS)
    assert sorted(recorded) == sorted(CORPUS)


@pytest.mark.parametrize("command", CORPUS)
def test_output_matches_recording(recorded, command):
    got, want = run(command), recorded[command]
    assert got["rc"] == want["rc"]
    assert differences(got["stdout"], want["stdout"]) == []
    assert differences(got["stderr"], want["stderr"]) == []


def moved_lines(got: dict, want: dict) -> list[str]:
    """The recorded and current bytes of every part of one command's run
    that differ: its exit code and each moved stdout or stderr line."""
    lines = [] if got["rc"] == want["rc"] else [f"  rc recorded {want['rc']!r}", f"  rc now      {got['rc']!r}"]
    for stream in ("stdout", "stderr"):
        if got[stream] == want[stream]:
            continue
        pairs = itertools.zip_longest(want[stream].splitlines(True), got[stream].splitlines(True))
        for old, new in pairs:
            if old != new:
                lines += [f"  {stream} recorded {old!r}", f"  {stream} now      {new!r}"]
    return lines


def test_moved_lines_name_each_moved_byte():
    want = {"rc": 0, "stdout": "a = 1\nb = 2\n", "stderr": ""}
    assert moved_lines(dict(want), want) == []
    got = {"rc": 2, "stdout": "a = 1\nb = 3\nc\n", "stderr": ""}
    assert moved_lines(got, want) == [
        "  rc recorded 0", "  rc now      2",
        "  stdout recorded 'b = 2\\n'", "  stdout now      'b = 3\\n'",
        "  stdout recorded None", "  stdout now      'c\\n'"]


def _concurrence(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("concurrence")).split()[2]


def test_zero_temperature_concurrence_is_the_ground_concurrence():
    # every ground, a degenerate level's mixture included, prints the concurrence bytes
    # of the Gibbs state at T = 0, and a ring refused for one is refused for the other
    for command in (command for command in CORPUS if command.startswith("ground")):
        ground = run(command)
        thermal = run(command.replace("ground", "thermal", 1) + " --t 0")
        assert (thermal["rc"], thermal["stderr"]) == (ground["rc"], ground["stderr"]), command
        if ground["rc"] == 0:
            assert _concurrence(thermal["stdout"]) == _concurrence(ground["stdout"]), command


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        recording = json.loads(DATA.read_text())
        moved = False
        for command in CORPUS:
            lines = moved_lines(run(command), recording[command])
            if lines:
                print("\n".join([command] + lines))
                moved = True
        raise SystemExit(1 if moved else 0)
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({command: run(command) for command in CORPUS}, indent=1) + "\n")
