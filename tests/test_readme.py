"""README's Python example runs and its CLI examples parse, as written."""

import dataclasses
import pathlib
import re
import shlex

from onebit_precoding import BerRecord, cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    margin = float(capsys.readouterr().out.split()[0])
    assert margin > 0


def test_cli_examples_parse():
    """Each `onebit-precoding ...` line of the CLI section's shell block,
    backslash continuations joined, parses with the CLI's own parser, so a
    flag the CLI no longer has cannot stay in the docs. Nothing runs."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("onebit-precoding ")]
    commands = [shlex.split(line) for line in lines]
    assert len(commands) == 5
    for words in commands:
        cli.build_parser().parse_args(words[1:])


def test_csv_columns_cover_the_record_and_match_the_readme():
    """Each BerRecord field is written by exactly one CSV_FORMAT column, and
    the README's "Data columns" line lists the columns in order, so a field
    added to the record cannot miss the CSV or the docs."""
    fields = [field for _, field, _ in cli.CSV_FORMAT]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(BerRecord))
    section = README.read_text(encoding="utf-8").split("Data columns:", 1)[1]
    line = re.search(r"```\n(.*?)\n```", section, re.S).group(1)
    assert line.split(",") == list(cli.CSV_COLUMNS)
