"""Every dataclass of the package is a plain one with a docstring of its own.

Both rules cut what each import costs, and the first also what each
construction costs.  A frozen dataclass gets generated `__setattr__`
and `__delattr__` guards, and its `__init__` stores every field through
`object.__setattr__`.  A dataclass without a docstring makes
`dataclasses` compute the class's signature with `inspect` to write
one.  Values stay values without the guard: `tests/test_values.py`
checks that the pipeline assigns no field of what it is handed.  The
scan imports every module and reads the built classes, where a
docstring that `dataclasses` made up from the signature does not count
as the class's own."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import normlog

MODULES = [
    importlib.import_module(f"normlog.{m.name}")
    for m in pkgutil.iter_modules(normlog.__path__)
    if m.name != "__main__"  # running it runs the command line
]


def dataclasses_of(module: types.ModuleType) -> list[type]:
    """The dataclasses a module defines, each once, in definition order."""
    out = []
    for obj in vars(module).values():
        if (
            inspect.isclass(obj)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
            and obj not in out
        ):
            out.append(obj)
    return out


def _written_by_dataclasses(cls: type) -> str:
    """The docstring `dataclasses` gives a class that has none."""
    try:
        return cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    except (TypeError, ValueError):
        return cls.__name__


def policy_breaches(module: types.ModuleType) -> list[str]:
    out = []
    for cls in dataclasses_of(module):
        if cls.__dataclass_params__.frozen:
            out.append(f"{cls.__name__}: frozen")
        if cls.__doc__ == _written_by_dataclasses(cls):
            out.append(f"{cls.__name__}: no docstring of its own")
    return out


def test_the_scan_finds_a_frozen_undocumented_dataclass():
    module = types.ModuleType("sample")
    exec(
        "from dataclasses import dataclass\n"
        "from normlog.syntax import Var\n\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n\n"
        "@dataclass\n"
        "class Plain:\n"
        '    """Documented."""\n\n'
        "    y: int = 0\n\n"
        "@dataclass(unsafe_hash=True)\n"
        "class Bare:\n"
        "    pass\n",
        module.__dict__,
    )
    assert [c.__name__ for c in dataclasses_of(module)] == ["Point", "Plain", "Bare"]
    assert policy_breaches(module) == [
        "Point: frozen",
        "Point: no docstring of its own",
        "Bare: no docstring of its own",
    ]


def test_no_dataclass_is_frozen_and_each_has_its_own_docstring():
    scanned = [cls for m in MODULES for cls in dataclasses_of(m)]
    assert len(scanned) >= 60
    assert [b for m in MODULES for b in policy_breaches(m)] == []
