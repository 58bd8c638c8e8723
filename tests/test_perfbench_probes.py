"""The benchmark harness binds its probes by name, so a probed function that
is renamed or deleted breaks ``perfbench/run.py --trace 1``. This test finds
that first: every probe target resolves the way the tracer resolves it."""

from __future__ import annotations

import importlib
from inspect import isfunction


def resolve(target: str):
    """The function a ``"module:attr"`` or ``"module:Class.method"`` probe
    target names, looked up as ``Tracer.install`` does."""
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        return vars(getattr(owner, class_name))[method]
    return getattr(owner, attr)


def test_every_probe_target_resolves(perfbench_run):
    probes = perfbench_run.COARSE_PROBES + perfbench_run.LAYER_PROBES
    targets = sorted({target for _, target, _ in probes})
    assert targets
    unresolved = []
    for target in targets:
        try:
            function = resolve(target)
        except (AttributeError, KeyError) as exc:
            unresolved.append(f"{target}: {exc!r}")
        else:
            if not isfunction(function):
                unresolved.append(f"{target}: {function!r} is not a function")
    assert unresolved == []
