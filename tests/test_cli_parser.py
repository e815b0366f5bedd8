"""The one-command parser that ``main`` builds must behave as the full parser does."""

from __future__ import annotations

import argparse
import contextlib
import io

import pytest

from airo import cli

# command -> (a representative argv, an argv that lacks an argument or its value)
ARGVS = {
    "init": (["init", "lbl", "--run-dir", "r", "--no-demo"], ["init"]),
    "validate": (["validate", "--run-dir", "r"], ["validate", "--run-dir"]),
    "taxonomy": (["taxonomy", "--stub", "s", "--config", "c.json"], ["taxonomy", "--stub"]),
    "draft": (["draft", "--run-dir", "r", "--stub", "s"], ["draft", "--config"]),
    "audit": (["audit"], ["audit", "--run-dir"]),
    "resolve": (["resolve", "3", "checked", "--run-dir", "r"], ["resolve", "3"]),
    "card": (["card", "--run-dir", "r"], ["card", "--run-dir"]),
    "redact": (["redact", "--tier", "public"], ["redact", "--tier"]),
    "pack": (["pack", "-o", "out.zip", "--tier", "auditor"], ["pack", "--output"]),
    "verify": (["verify", "c.zip", "--source-log", "log.json"], ["verify"]),
}

# ``airo -h`` as it read before the parser was built from the command table; the
# usage line wraps differently across Python versions, so whitespace runs are compared as one
TOP_LEVEL_HELP = """\
usage: airo [-h]
            {init,validate,taxonomy,draft,audit,resolve,card,redact,pack,verify}
            ...

Constrained drafting runs with hash-linked, verifiable provenance.

positional arguments:
  {init,validate,taxonomy,draft,audit,resolve,card,redact,pack,verify}
    init                scaffold a run directory with defaults and demo inputs
    validate            check the bundle and templates; exit 1 on problems
    taxonomy            run stage 1: cluster the papers
    draft               run stage 2: draft the section
    audit               compute the claim audit table from the draft
    resolve             attach a resolver note to an audit row
    card                build the inspection card (card.md)
    redact              write the redacted interaction log
    pack                package the run as an RO-Crate zip
    verify              verify a packed crate; exit 1 on any Fail

options:
  -h, --help            show this help message and exit
"""


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _words(text: str) -> str:
    return " ".join(text.split())


def _parse(parser, argv: list[str]):
    """(namespace or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exit_:
            result = exit_.code
    return result, out.getvalue(), err.getvalue()


def test_command_table_names_the_full_parsers_choices():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS) == list(ARGVS)


@pytest.mark.parametrize("command", list(ARGVS))
@pytest.mark.parametrize("case", ["help", "representative", "missing", "unrecognized"])
def test_one_command_parser_matches_the_full_parser(command, case):
    representative, missing = ARGVS[command]
    argv = {"help": [command, "-h"], "representative": representative, "missing": missing,
            "unrecognized": representative + ["--bogus"]}[case]
    single = _parse(cli.build_parser(command), argv)
    assert single == _parse(cli.build_parser(), argv)
    if case == "representative":
        assert single[0].handler is cli.COMMANDS[command][0]
    else:
        assert single[0] == (0 if case == "help" else 2)
    if case == "unrecognized":
        assert _words(single[2]).startswith(_words(TOP_LEVEL_HELP.split("\n\n")[0]))


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["valid"], ["--run-dir", "r", "audit"]],
                         ids=["help", "no-command", "unknown", "abbreviated", "option-first"])
def test_main_parses_anything_but_a_command_name_with_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out, err) == _parse(cli.build_parser(), argv)
    if argv == ["-h"]:
        assert _words(out) == _words(TOP_LEVEL_HELP)


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "run"
    monkeypatch.setattr("sys.argv", ["airo", "init", "from-argv", "--run-dir", str(run_dir)])
    assert cli.main() == 0
    assert "initialized ro-from-argv" in capsys.readouterr().out
