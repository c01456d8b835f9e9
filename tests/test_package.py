"""The package namespace: every module's ``__all__`` re-exported unchanged,
and the README's library example run as written."""

import re
from pathlib import Path
from types import ModuleType

import wirecut

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_readme_library_example_runs(capsys):
    """The fenced example under "## Library" runs, so a name removed from
    the package fails here, and prints the lines its "# " comments show,
    each "..." standing for elided digits."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    shown = [line[2:] for line in example.splitlines() if line.startswith("# ")]
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        assert re.fullmatch(r"\d*".join(map(re.escape, want.split("..."))), got), (got, want)
