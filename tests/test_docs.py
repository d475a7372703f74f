import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import etchomo
from etchomo.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_root_export():
    text = README.read_text()
    start = text.index("The package root also exports")
    listing = text[start:text.index("\n\n", text.index("\n- ", start))]
    listed = re.findall(r"`(\w+)`", listing)
    exported = {
        name for name, value in vars(etchomo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == exported


def test_readme_module_references_resolve():
    # every etchomo.<module>.<name>[.<attr>...] the README names exists
    refs = set(re.findall(r"\betchomo\.(\w+)((?:\.\w+)+)", README.read_text()))
    assert refs
    for module, names in sorted(refs):
        obj = importlib.import_module(f"etchomo.{module}")
        for name in names[1:].split("."):
            assert hasattr(obj, name), f"etchomo.{module}{names}"
            obj = getattr(obj, name)


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_readme_python_blocks_run(index):
    exec(compile(_blocks("python")[index], f"README.md python block {index}", "exec"), {})


def _etc_lines() -> list:
    joined = "\n".join(_blocks("sh")).replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("etc ")]


def test_readme_etc_lines_parse():
    lines = _etc_lines()
    assert len(lines) == 8
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
