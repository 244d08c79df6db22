"""The package's public surface."""

import ast
import re
import types
from collections import Counter
from pathlib import Path

import lanslab


def test_all_lists_only_resolvable_non_module_names():
    assert len(set(lanslab.__all__)) == len(lanslab.__all__)
    for name in lanslab.__all__:
        assert not isinstance(getattr(lanslab, name), types.ModuleType), name


def test_spectral_is_the_only_transform_entry_point():
    # every FFT goes through spectral's private helpers
    package = Path(lanslab.__file__).parent
    pattern = re.compile(r"\b(np|numpy|scipy)\.fft\b|from\s+(numpy|scipy)\s+import\s+fft\b")
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "spectral.py" and pattern.search(path.read_text())]
    assert offenders == []
    assert pattern.search((package / "spectral.py").read_text())


def _references(tree) -> Counter:
    """How often each name is read as a variable or an attribute in a syntax tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_used_by_the_package():
    # a private function or class that only the tests call is dead code:
    # each needs a reference in src/ outside its own definition
    package = Path(lanslab.__file__).parent
    used, own = Counter(), Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used += _references(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own[node.name] += _references(node)[node.name]
    assert own
    assert sorted(name for name in own if used[name] <= own[name]) == []
