"""The package's public surface."""

import ast
import importlib.util
import re
import sys
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


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether a call sets a parameter, given its positional index (None for
    keyword-only).  A *args or **kwargs argument may set any parameter."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    return any(kw.arg == name for kw in call.keywords) or (position is not None and len(call.args) > position)


def test_every_default_is_set_by_some_caller():
    # a default that no call overrides is a constant dressed as an option
    package = Path(lanslab.__file__).parent
    sources = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    calls = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if default is not None]
            unset += [f"{path.stem}.{fn.name}({name}=)" for position, name in defaulted
                      if not any(_passes(call, position, name) for call in calls.get(fn.name, []))]
    assert unset == []


def test_names_the_benchmark_traces_resolve():
    # the benchmark's tracer wraps these by module and name; a deletion that
    # removes one breaks the benchmark, not only this package's own callers
    path = Path(__file__).resolve().parents[1] / "lansbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("lansbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rows = tracer._function_layers()
    assert rows
    for module, name, _, _ in rows:
        assert callable(getattr(sys.modules[module], name)), f"{module}.{name}"
    assert callable(lanslab.DyadicPartition.besov_norm)
