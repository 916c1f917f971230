"""Every dotted name the README quotes from the library still exists: a
backticked `module.name` or `Class.attr` whose head is burgess, one of its
modules or one of its classes resolves, a dataclass field counting as an
attribute."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import burgess

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def library_heads():
    """Module name -> module, and class name -> class, across burgess."""
    heads = {"burgess": burgess}
    for info in pkgutil.iter_modules(burgess.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"burgess.{info.name}")
        heads[info.name] = module
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                heads[name] = obj
    return heads


def resolves(obj, attr):
    fields = ({f.name for f in dataclasses.fields(obj)}
              if dataclasses.is_dataclass(obj) else ())
    return hasattr(obj, attr) or attr in fields


def test_readme_library_names_resolve():
    heads = library_heads()
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    quoted = {name for span in spans for name in DOTTED.findall(span)
              if name.split(".")[0] in heads}
    assert len(quoted) >= 10, quoted  # the pattern still finds the names
    stale = []
    for name in sorted(quoted):
        head, *attrs = name.split(".")
        obj = heads[head]
        for attr in attrs:
            if not resolves(obj, attr):
                stale.append(name)
                break
            obj = getattr(obj, attr, None)
    assert not stale, f"README names missing from the library: {stale}"
