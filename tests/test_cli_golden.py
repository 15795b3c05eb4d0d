"""Byte-for-byte pins of the CLI: stdout, stderr and exit code.

Every subcommand runs in the text (default), json and tsv formats, and
the help and error paths run once each.  The expected bytes in
`cli_golden.json` were recorded from the CLI before its output code was
refactored; a difference here is a change in what users see, so mend
the code rather than the file.
"""

import json
from pathlib import Path

import pytest

from dflag.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

COMMANDS = [
    ["mwz", "--family", "A", "--n", "4", "--triple", "3,1;1,1,1,1;1,1,1,1"],
    ["mwz", "--family", "C", "--n", "2", "--triple", "2,2;1,2,1;1,2,1"],
    ["mwz", "--family", "C", "--n", "3", "--triple", "1,1,2,1,1;1,1,2,1,1;1,1,2,1,1"],
    ["classify", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1"],
    ["classify", "--pair", "AIII:1,2", "--p", "1,1,1", "--q", "1;1,1"],
    ["classify", "--pair", "CII:1,1", "--p", "2,2", "--q", "1,1;2"],
    ["classify", "--pair", "AI:4", "--p", "1,1,1,1", "--q", "1,1,1,1"],
    ["aiii-borel", "--pair", "AIII:2,3", "--q", "2;2,1"],
    ["probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1"],
    ["probe-orbits", "--pair", "CI:2", "--p", "1,2,1", "--q", "2", "--qlist", "3,5"],
    ["triple-orbits", "--family", "A", "--n", "3", "--triple", "2,1;1,2"],
    ["triple-orbits", "--family", "C", "--n", "2", "--triple", "2,2;1,2,1;1,2,1"],
    ["bruhat", "--family", "A", "--n", "3", "--p", "2,1", "--q2", "1,2"],
    ["bruhat", "--family", "C", "--n", "2", "--p", "2,2", "--q2", "2,2"],
    ["clans", "--pair", "AIII:2,1"],
    ["twisted-involutions", "--family", "A", "--n", "4", "--twist", "flip"],
    ["twisted-involutions", "--family", "C", "--n", "2"],
    ["branch", "--mode", "restrict", "--weight", "2,1", "--pair", "AIII:2,2"],
    ["branch", "--mode", "tensor", "--weight", "2,1", "--weight2", "2,1", "--n", "3"],
    ["spherical-probe", "--pair", "AIII:2,2", "--p", "2,2", "--kmax", "3", "--lmax", "3"],
    ["spherical-probe", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--kmax", "2", "--lmax", "2"],
    ["spherical-probe", "--pair", "AI:4", "--p", "2,2", "--kmax", "2", "--lmax", "2"],
    ["report", "--pair", "AIII:1,2", "--p", "1,1,1", "--q", "1;1,1"],
    ["report", "--pair", "AII", "--p", "2,2", "--q", "1,2,1"],
    ["report", "--pair", "CI:2", "--p", "1,2,1", "--q", "2", "--qlist", "3,5"],
    # finite verdict, growing counts at q = 2, 3: the exit-3 caveat
    ["report", "--pair", "CI:2", "--p", "1,2,1", "--q", "1,1", "--qlist", "2,3"],
]

ERRORS = [
    ["--help"],
    ["report", "--help"],
    [],
    ["frobnicate"],
    ["mwz", "--family", "A"],
    ["mwz", "--family", "A", "--n", "4", "--triple", "3,1;oops"],
    ["mwz", "--family", "A", "--n", "4", "--triple", "3,1;2,2"],
    ["mwz", "--family", "A", "--n", "4", "--triple", "3,1;2,2;1,1,1"],
    ["mwz", "--family", "C", "--n", "2", "--triple", "2,2;2,2;1,1,1,1,1,1"],
    ["clans", "--pair", "AIII:1,1", "--format", "xml"],
    ["clans", "--pair", "CI:2"],
    ["aiii-borel", "--pair", "CII:1,1", "--q", "1;1"],
    ["classify", "--pair", "XX:1,1", "--p", "1,1", "--q", "1;1"],
    ["classify", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1"],
    ["bruhat", "--family", "A", "--n", "3", "--p", "0,3", "--q2", "1,2"],
    ["bruhat", "--family", "A", "--n", "3", "--p", "2,2", "--q2", "1,2"],
    ["triple-orbits", "--family", "A", "--n", "3", "--triple", "2,1"],
    ["triple-orbits", "--family", "C", "--n", "2", "--triple", "2,2;1,1,1,1,1,1"],
    ["classify", "--pair", "AIII:2,2", "--p", "1,1,1", "--q", "1,1;1,1"],
    ["probe-orbits", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1;1", "--qlist", "2,x"],
    ["probe-orbits", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1;1", "--qlist", ","],
    # a repeated field would count twice and read as two fields in the hint
    ["probe-orbits", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1;1", "--qlist", "3,3"],
    ["twisted-involutions", "--family", "C", "--n", "2", "--twist", "flip"],
    ["branch", "--mode", "restrict", "--weight", "2,1"],
    ["branch", "--mode", "restrict", "--weight", "2,1", "--pair", "CI:2"],
    ["branch", "--mode", "tensor", "--weight", "2,1", "--n", "3"],
    ["spherical-probe", "--pair", "CI:2", "--p", "1,2,1"],
    # budget refusals (exit 2)
    ["probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1", "--budget", "100"],
    ["report", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1", "--budget", "100"],
    ["triple-orbits", "--family", "A", "--n", "4", "--triple", "1,1,1,1;1,1,1,1;1,1,1,1",
     "--qlist", "3", "--budget", "1000000"],
    ["DFLAG_BUDGET=100", "probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1",
     "--q", "1,1;1,1"],
    ["DFLAG_BUDGET=abc", "probe-orbits", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1;1"],
    # a budget below 1 is refused as input, before anything is sized
    ["probe-orbits", "--pair", "AIII:1,1", "--p", "2", "--q", "1;1", "--budget", "0"],
    ["DFLAG_BUDGET=-5", "probe-orbits", "--pair", "AIII:1,1", "--p", "2", "--q", "1;1"],
    # the F_q oracle does not cover AI
    ["probe-orbits", "--pair", "AI:3", "--p", "1,2", "--q", "1,1,1"],
    ["report", "--pair", "AI:3", "--p", "1,2", "--q", "1,1,1"],
]

CASES = [
    argv + fmt
    for argv in COMMANDS
    for fmt in ([], ["--format", "json"], ["--format", "tsv"])
] + ERRORS


def _key(case):
    return " ".join(case)


def run_case(case, monkeypatch, capsys):
    """Run one case in-process; a leading NAME=value sets the environment."""
    monkeypatch.delenv("DFLAG_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
    argv = list(case)
    while argv and "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


def test_golden_file_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_cli_output_is_pinned(case, monkeypatch, capsys):
    assert run_case(case, monkeypatch, capsys) == GOLDEN[_key(case)]
