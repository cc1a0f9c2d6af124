"""The CI workflow file parses without a repeated key, and every step is well formed."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that raises on a repeated mapping key, which plain YAML loading
    resolves silently by keeping the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load(text):
    return yaml.load(text, Loader=UniqueKeyLoader)


def test_a_repeated_key_is_an_error():
    with pytest.raises(yaml.constructor.ConstructorError, match="repeated key 'run'"):
        load("steps:\n  - name: a\n    run: x\n    run: y\n")


def test_every_step_has_a_name_and_one_action():
    workflow = load(WORKFLOW.read_text())
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            assert step.get("name"), step
            assert ("run" in step) != ("uses" in step), step
