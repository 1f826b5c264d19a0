"""The README's library example and command line block run as written."""

import argparse
import re
import shlex
from pathlib import Path

from jumploci.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    assert "assert " in blocks[0]
    exec(compile(blocks[0], f"{README}:Library example", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch):
    # every line exits 0 but the check example, whose bound fails (exit 1)
    monkeypatch.chdir(tmp_path)
    block = README.read_text(encoding="utf-8").split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("jumploci ")]
    assert [argv[0] for argv in argvs] == ["count", "tower", "check", "validate", "export", "catalog-list"]
    assert [main(argv) for argv in argvs] == [0, 0, 1, 0, 0, 0]


def test_budget_help_is_in_the_readme():
    # the README states --budget in the words of its help text, whitespace aside
    budget = next(a for a in build_parser()._actions if "--budget" in a.option_strings)
    assert " ".join(budget.help.split()) in " ".join(README.read_text(encoding="utf-8").split())


def test_readme_and_parser_name_the_same_options():
    # every long option of the parser and its subparsers is in the README,
    # and every one the Command line section names is the parser's
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    parsers, defined = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            defined.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    options = re.compile(r"(?<![\w-])--[a-z][\w-]*")
    assert {"--budget", "--model", "--locus", "--d-max", "--help"} <= defined
    assert defined - set(options.findall(text)) == set()
    assert set(options.findall(section)) - defined == set()
