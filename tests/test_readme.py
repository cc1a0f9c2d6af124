"""README "Library" stays in step with the package's exports and submodules."""

import importlib
import re
from pathlib import Path

import ghz_steering

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    text = README.read_text()
    start = text.index("## Library")
    return text[start:text.index("\n## ", start + 1)]


def backticked(text):
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", text)


def test_package_exports_are_the_listed_names():
    section = library_section()
    listed = section[section.index("The package exports"):section.index("The lower-level pieces")]
    assert sorted(ghz_steering.__all__) == sorted(backticked(listed))
    assert len(ghz_steering.__all__) == len(set(ghz_steering.__all__))


def test_every_submodule_name_exists():
    bullets = re.findall(r"^\* `(ghz_steering\.\w+)`: (.*?)(?=^\* |^$)",
                         library_section(), re.MULTILINE | re.DOTALL)
    assert [module for module, _ in bullets] == [
        "ghz_steering.symplectic", "ghz_steering.network",
        "ghz_steering.steering", "ghz_steering.tomography",
    ]
    for module, names in bullets:
        mod = importlib.import_module(module)
        assert backticked(names), module
        missing = [name for name in backticked(names) if not hasattr(mod, name)]
        assert not missing, f"{module} lacks {missing}"
