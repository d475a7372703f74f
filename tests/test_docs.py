import importlib
import inspect
import re
from pathlib import Path

import etchomo

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
