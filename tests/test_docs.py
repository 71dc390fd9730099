"""README against the code: its Configuration table against the settings and flags
the CLI declares, and each `<module>.<name>` it cites against the package. Its
Report files table is checked against the files `report` writes in
`tests/test_cli.py`, where a full report runs. Last, the rule that
`errors.PipelineError`'s docstring states against the package's classes."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import aspectsent
from aspectsent import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(aspectsent.__file__).parent


def readme_table(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table after README's line that
    starts with `heading`, in table order."""
    lines = README.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(heading))
    start = next(i for i in range(at, len(lines)) if lines[i].startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # after the header and its |---| rule
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip().strip("|").split("|")])
    return rows


def settings_table() -> list[tuple[str, str, str | None]]:
    """(section, key, flag or None) for each key in README's Configuration table,
    in table order; a row with an empty section cell continues the one above."""
    out, section = [], None
    for cells in readme_table("### Configuration"):
        assert len(cells) == 5, cells
        section = cells[0].strip("`") or section
        flag = cells[4].strip("`") or None
        out += [(section, key, flag) for key in re.findall(r"`([^`]+)`", cells[1])]
    return out


def report_files() -> dict[str, list[str]]:
    """File name -> columns, in order, of each row of README's Report files table."""
    rows = readme_table("**Report files**")
    assert all(len(cells) == 4 for cells in rows), rows
    listed = {cells[0].strip("`"): cells[1].strip("`").split(",") for cells in rows}
    assert len(listed) == len(rows), "a report file is listed twice"
    return listed


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
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    names = [(module, name) for module, name
             in re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"aspectsent.{module}"), name), f"{module}.{name}"


def _name(node: ast.expr) -> str | None:
    """The class name that `Name` or `module.Name` refers to."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_each_pipeline_error_subclass_is_caught_or_builds_its_message():
    classes, caught = {}, set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, types))

    def is_subclass(name):
        bases = [_name(b) for b in classes[name].bases] if name in classes else []
        return any(b == "PipelineError" or is_subclass(b) for b in bases)

    subclasses = {name for name in classes if is_subclass(name)}
    assert subclasses, "no PipelineError subclass found"
    builds_message = {name for name in subclasses
                      if any(isinstance(n, ast.FunctionDef) and n.name == "__init__"
                             for n in classes[name].body)}
    assert subclasses - caught - builds_message == set()
