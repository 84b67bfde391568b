import importlib
import pathlib

import pytest

import pseudosim
from pseudosim import cli


def test_every_export_resolves_once():
    names = pseudosim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(pseudosim, name)]
    assert missing == []


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml, name -> "module:attr".  Read
    line by line: tomllib is in the standard library only from Python 3.11."""
    scripts, section = {}, None
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    for line in map(str.strip, text.splitlines()):
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip('"')
    return scripts


def test_console_script_runs(monkeypatch):
    # the installed `pseudosim` command calls this entry point with no arguments
    module, attr = _console_scripts()["pseudosim"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.entry
    monkeypatch.setattr("sys.argv", ["pseudosim", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 0
