"""The package's public surface."""

import types

import lanslab


def test_all_lists_only_resolvable_non_module_names():
    assert len(set(lanslab.__all__)) == len(lanslab.__all__)
    for name in lanslab.__all__:
        assert not isinstance(getattr(lanslab, name), types.ModuleType), name
