"""The package's public surface."""

import re
import types
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
