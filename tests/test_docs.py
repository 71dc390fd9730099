"""README against the code: its Configuration table against the settings and flags
the CLI declares, and each `<module>.<name>` it cites against the package."""

import argparse
import importlib
import re
from pathlib import Path

import aspectsent
from aspectsent import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def settings_table() -> list[tuple[str, str, str | None]]:
    """(section, key, flag or None) for each key in README's Configuration table,
    in table order; a row with an empty section cell continues the one above."""
    text = README.read_text(encoding="utf-8")
    lines = text[text.index("### Configuration"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| section |"))
    out, section = [], None
    for line in lines[start + 2:]:  # after the header and its |---| rule
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        assert len(cells) == 5, line
        section = cells[0].strip("`") or section
        flag = cells[4].strip("`") or None
        out += [(section, key, flag) for key in re.findall(r"`([^`]+)`", cells[1])]
    return out


def parser_flags() -> set[tuple[str, str]]:
    """(option string, dest) of every option of every subcommand."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {(option, action.dest) for sub in subparsers.choices.values()
            for action in sub._actions for option in action.option_strings}


def test_table_lists_exactly_the_settings():
    listed = [(section, key) for section, key, _ in settings_table()]
    assert len(listed) == len(set(listed)), "a setting is listed twice"
    assert set(listed) == {(section, key) for section, keys in cli.SETTINGS.items()
                           for key in keys}


def test_each_listed_flag_sets_its_setting():
    # equality: every flag that sets a setting (dest `<section>.<key>`) is listed too
    listed = {(flag, f"{section}.{key}") for section, key, flag in settings_table() if flag}
    assert {(flag, dest) for flag, dest in parser_flags() if "." in dest} == listed


def test_each_module_name_in_readme_resolves():
    # a backticked `<module>.<name>` whose <module> is a module of the package
    modules = {p.stem for p in Path(aspectsent.__file__).parent.glob("*.py")}
    names = [(module, name) for module, name
             in re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"aspectsent.{module}"), name), f"{module}.{name}"
