import importlib
import inspect
import pkgutil
import typing

import coxtw


def _defined_functions():
    # every function and method whose code lives in a coxtw module
    for info in pkgutil.iter_modules(coxtw.__path__, "coxtw."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    attr = getattr(attr, "fget", None) or getattr(attr, "func", None) or attr
                    attr = getattr(attr, "__func__", attr)
                    if inspect.isfunction(attr):
                        yield attr


def test_every_annotation_resolves():
    # `from __future__ import annotations` defers them, so a name that was
    # never imported fails only here
    functions = list(_defined_functions())
    assert len(functions) > 100
    for function in functions:
        typing.get_type_hints(function)
