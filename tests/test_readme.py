"""The README's library-layout table, index-key list, CLI examples and
per-command options match what the package defines; the table lists every
name the package exports."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

import citemetrics
from citemetrics.cli import build_parser
from citemetrics.report import REPORT_INDEX_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_rows():
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`citemetrics."):
            yield cells[1].strip().strip("`"), re.findall(r"`([^`]+)`", cells[2])


def _resolves(module, dotted):
    """Whether module has the (possibly dotted) attribute path dotted."""
    obj = module
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_layout_table_names_exist():
    rows = list(_layout_rows())
    assert len(rows) == 8
    missing = [f"{module}.{name}" for module, names in rows for name in names
               if not _resolves(importlib.import_module(module), name)]
    assert missing == []


def test_layout_table_lists_every_export_in_its_modules_row():
    listed = {module: set(names) for module, names in _layout_rows()}
    missing = [f"{module}.{name}" for module, names in citemetrics._EXPORTS.items()
               for name in names if name not in listed.get(f"citemetrics.{module}", ())]
    assert missing == []


def test_index_key_list_matches_report_keys():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Index keys \(stable public contract\): `([^`]+)`", text).group(1)
    assert tuple(key.strip() for key in listed.split(",")) == REPORT_INDEX_KEYS


def _cli_examples():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.DOTALL).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("citemetrics "):
            yield shlex.split(line.replace("[", "").replace("]", ""))[1:]


@pytest.mark.parametrize("argv", list(_cli_examples()))
def test_cli_examples_parse(argv):
    build_parser().parse_args(argv)


def _documented_options():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"Options by command;(.*?)\n\n(.*?)\n\n", text, re.DOTALL)
    shared = set(re.findall(r"--[a-z-]+", section.group(1)))
    for item in re.split(r"\n- ", "\n" + section.group(2))[1:]:
        commands, options = item.split(":", 1)
        for command in re.findall(r"`([a-z]+)`", commands):
            yield command, shared | set(re.findall(r"--[a-z-]+", options))


def test_each_commands_documented_options_match_the_parser():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {command: {flag for action in sub._actions for flag in action.option_strings
                        if flag not in ("-h", "--help")}
              for command, sub in subparsers.choices.items()}
    assert dict(_documented_options()) == parsed
