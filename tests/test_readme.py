"""README.md names only code that exists: every backticked dotted name whose head is a package
module or a class the package exports resolves to an attribute or a dataclass field."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import collisim

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("qcore", "bath", "collision", "lindblad", "scenarios", "render", "cli")
CLASSES = {name: value for name, value in vars(collisim).items() if inspect.isclass(value)}


def named_code():
    """(dotted name, head object) of each backticked name in README.md with a known head; a call's
    arguments, as in `BathSpec.factor(n)`, are dropped."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)  # fenced blocks
    for span in re.findall(r"`([^`]+)`", text):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", span.strip())
        if match is None:
            continue
        head = match.group(1).split(".")[0]
        if head in MODULES:
            yield match.group(1), importlib.import_module(f"collisim.{head}")
        elif head in CLASSES:
            yield match.group(1), CLASSES[head]


def resolves(obj, path) -> bool:
    """Whether each part of ``path`` is an attribute of the one before it, or, the last, a field
    of a dataclass (a field without a default is no class attribute)."""
    *inner, last = path
    for part in inner:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return hasattr(obj, last) or (dataclasses.is_dataclass(obj)
                                  and last in {f.name for f in dataclasses.fields(obj)})


def test_readme_names_only_code_that_exists():
    names = dict(named_code())
    assert len(names) >= 20  # the pattern still finds the README's names
    assert [name for name, head in sorted(names.items())
            if not resolves(head, name.split(".")[1:])] == []
