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
