"""Each object keeps its private names: no module of eyedx reads another's."""

import ast
from pathlib import Path

import eyedx

SRC = Path(eyedx.__file__).parent
# os._exit ends a forked decode shard without running the parent's exit handlers
ALLOWED = {("os", "_exit")}


def private_reads(tree):
    """(line, owner, name) of each attribute that starts with one underscore,
    read off anything but self or cls; dunders such as __name__ are public."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        owner = node.value.id if isinstance(node.value, ast.Name) else ast.unparse(node.value)
        if owner not in ("self", "cls") and (owner, node.attr) not in ALLOWED:
            yield node.lineno, owner, node.attr


def test_no_module_reads_another_objects_private_name():
    found = [f"{path.name}:{line}: {owner}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for line, owner, name in private_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_a_private_read():
    source = "def run(model):\n    self._ok, cls._ok, os._exit(0)\n    return model._run()\n"
    assert list(private_reads(ast.parse(source))) == [(3, "model", "_run")]
