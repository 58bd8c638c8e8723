"""Every cross-reference in the package's docstrings and comments, each
``:func:``, ``:class:``, ``:data:`` and ``:meth:`` target, names something
that exists. So a function that is renamed or deleted cannot leave a stale
reference behind."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

import sqlsynth

ROLE = re.compile(r":(func|class|data|meth):`~?([^`]*)`")

_MISSING = object()


def _lookup(owner, names):
    for name in names:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return _MISSING
    return owner


def resolves(module, role: str, target: str) -> bool:
    """Whether ``target`` names something: a dotted ``sqlsynth.`` path from
    its longest importable module, any other name from ``module``, and a
    bare ``:meth:`` name as a method of one of ``module``'s own classes."""
    parts = target.split(".")
    if parts[0] == "sqlsynth":
        for cut in range(len(parts), 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            return _lookup(owner, parts[cut:]) is not _MISSING
        return False
    if role == "meth" and len(parts) == 1:
        classes = [
            value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
        ]
        return any(hasattr(cls, target) for cls in classes)
    return _lookup(module, parts) is not _MISSING


def package_references():
    """(module name, role, target) of each reference in the package's source."""
    for info in pkgutil.iter_modules(sqlsynth.__path__, "sqlsynth."):
        module = importlib.import_module(info.name)
        for role, target in ROLE.findall(inspect.getsource(module)):
            yield module, role, target


def test_every_docstring_reference_resolves():
    references = list(package_references())
    assert len(references) > 100  # the pattern still matches the package's roles
    stale = [
        f"{module.__name__}: :{role}:`{target}`"
        for module, role, target in references
        if not resolves(module, role, target)
    ]
    assert stale == []
