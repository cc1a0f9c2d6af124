"""README "Library" and "Command line" stay in step with the package's exports, API and CLI."""

import importlib
import re
import shlex
from pathlib import Path

import ghz_steering
from ghz_steering import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading):
    text = README.read_text()
    start = text.index(f"## {heading}\n")
    return text[start:text.index("\n## ", start + 1)]


def library_section():
    return section("Library")


def backticked(text):
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", text)


def test_package_exports_are_the_listed_names():
    text = library_section()
    listed = text[text.index("The package exports"):text.index("The lower-level pieces")]
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


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", library_section(), re.MULTILINE | re.DOTALL)


def test_the_python_examples_run(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_lines():
    """The ghz-steering command lines of the first sh block under "Command line"."""
    block = re.search(r"^```sh\n(.*?)^```$", section("Command line"), re.MULTILINE | re.DOTALL)
    return [line for line in block.group(1).splitlines() if line.startswith("ghz-steering ")]


def test_the_command_line_examples_run(capsys, monkeypatch, tmp_path):
    lines = cli_lines()
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
    assert (tmp_path / "sweep.csv").is_file()
