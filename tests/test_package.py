"""The package namespace: every module's ``__all__`` re-exported unchanged."""

from types import ModuleType

import wirecut

MODULES = [
    module
    for module in vars(wirecut).values()
    if isinstance(module, ModuleType) and hasattr(module, "__all__")
]


def test_package_all_is_the_modules_all():
    assert sorted(wirecut.__all__) == sorted(name for m in MODULES for name in m.__all__)


def test_no_name_in_two_modules():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} in {owners.get(name)} and {module.__name__}"
            owners[name] = module.__name__


def test_package_all_has_no_duplicates():
    assert len(wirecut.__all__) == len(set(wirecut.__all__))


def test_exports_are_the_home_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wirecut, name) is getattr(module, name), name
