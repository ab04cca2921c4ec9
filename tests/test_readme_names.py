"""Every `module.name` and `Class.attr` that README.md names resolves in
sembed, so the prose cannot go on describing code that was renamed or
removed."""

import dataclasses
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import sembed

README = Path(__file__).resolve().parents[1] / "README.md"

# prefixes of dotted names in README that are not sembed's: another
# library, a variable of the prose, or a file name
NOT_SEMBED = {"np", "dataclasses", "domain", "rec", "lu", "BASE", "pyproject"}


def _attributes(obj):
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    return set(dir(obj)) | {f.name for f in fields}


def test_readme_names_resolve():
    modules = {m.name: import_module(f"sembed.{m.name}")
               for m in pkgutil.iter_modules(sembed.__path__)}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("sembed.")}
    scopes = {"sembed": sembed, **modules, **classes}
    names = set(re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README.read_text()))
    checked = {(p, a) for p, a in names if p not in NOT_SEMBED}
    assert len(checked) >= 10  # the pattern still finds the names
    missing = sorted(
        f"{prefix}.{attr}" for prefix, attr in checked
        if prefix not in scopes or attr not in _attributes(scopes[prefix])
    )
    assert not missing, missing
