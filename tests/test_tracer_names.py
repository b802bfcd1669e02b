"""The benchmark tracer's names still resolve in the mcss package.

`perfbench/tracer.py` wraps the functions and methods it lists by name,
and reads the engines' module stores by attribute name.  A name that no
longer resolves breaks only a traced benchmark run, so it is checked here,
the way `Tracer.install` resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mcss.builders import staircase
from mcss.filtered import FilteredPages
from mcss.pages import SpectralPages
from mcss.rings import QQ
from mcss.total import totalize

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("modname, attr, layer", tracer.FUNCTIONS)
def test_traced_function_resolves(modname, attr, layer):
    assert callable(getattr(importlib.import_module(modname), attr)), layer


@pytest.mark.parametrize("modname, clsname, attr, layer", tracer.METHODS)
def test_traced_method_is_defined_on_its_class(modname, clsname, attr, layer):
    # Install replaces the attribute in the class's own namespace, so an
    # inherited or moved method would be wrapped on the wrong owner.
    cls = getattr(importlib.import_module(modname), clsname)
    raw = cls.__dict__[attr]
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw), layer


def test_repeat_hooks_read_engine_stores():
    c = staircase(2, QQ)
    engines = {"pages.br": SpectralPages(c), "filtered.zz": FilteredPages(totalize(c))}
    hooks = {layer: hook for layer, hook in tracer._HOOK_FOR.items()
             if isinstance(hook, tracer._RepeatHook)}
    assert set(hooks) == set(engines)
    for layer, hook in hooks.items():
        assert isinstance(getattr(engines[layer], hook.cache), dict), layer
