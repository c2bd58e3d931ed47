"""The package namespace: what ``from gvcglab import *`` provides."""

import re
from pathlib import Path

import gvcglab

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _star_namespace():
    namespace = {}
    exec("from gvcglab import *", namespace)
    return namespace


def test_star_import_runs_the_readme_library_tour():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    exec(tour, namespace)
    assert namespace["result"].payments == (0, namespace["F"](19, 10), namespace["F"](19, 10))
    assert namespace["witness"].payment_gain == namespace["F"](1, 20)


def test_star_import_provides_every_readme_table_name():
    table = README[README.index("| function | purpose |") :]
    table = table[: table.index("\n\n")]
    names = re.findall(r"`(\w+)`", "\n".join(row.split("|")[1] for row in table.splitlines()))
    assert len(names) >= 12
    namespace = _star_namespace()
    assert [name for name in names if name not in namespace] == []


def test_star_import_exports_no_submodules_or_private_names():
    namespace = _star_namespace()
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(gvcglab.__all__)
    assert not any(name.startswith("_") for name in exported)
    assert {"prefs", "allocation", "mechanism", "audit", "scenarios"}.isdisjoint(exported)
