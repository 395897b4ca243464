"""Backend registry: name -> :class:`~repro.engine.base.EngineSpec`.

The built-in engines self-describe in their home modules
(:mod:`repro.core.sweet`, :mod:`repro.core.basic_gpu`,
:mod:`repro.core.ti_knn`, :mod:`repro.core.joins`,
:mod:`repro.baselines.*`, :mod:`repro.graph.search`,
:mod:`repro.native.engine`); :mod:`repro.engine.builtin` registers
them lazily on first lookup, so importing the registry stays cheap.
Third-party engines join through :func:`register`::

    from repro.engine import EngineCaps, EngineSpec, register

    register(EngineSpec(name="annoy", run=my_run, caps=EngineCaps()))

``repro.METHODS`` is a live, tuple-like view of the registered names:
it always reflects the current registry contents, so the CLI method
list and the API docs never drift from the engines that actually exist.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ValidationError
from .base import EngineSpec

__all__ = ["register", "unregister", "get_engine", "engine_names",
           "MethodsView", "METHODS"]

_REGISTRY = {}
_BUILTIN_LOADED = False


def _ensure_builtin():
    """Load the built-in engine registrations exactly once."""
    global _BUILTIN_LOADED
    if not _BUILTIN_LOADED:
        _BUILTIN_LOADED = True
        from . import builtin  # noqa: F401  (registers the built-ins)


def register(spec, replace=False):
    """Register an engine; ``replace=True`` overwrites an existing name."""
    if not isinstance(spec, EngineSpec):
        raise ValidationError(
            "expected an EngineSpec, got %r" % type(spec).__name__)
    _ensure_builtin()
    if spec.name in _REGISTRY and not replace:
        raise ValidationError(
            "engine %r is already registered (pass replace=True to "
            "override)" % spec.name)
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name):
    """Remove an engine from the registry (tests, plugin teardown)."""
    _ensure_builtin()
    if name not in _REGISTRY:
        raise ValidationError("engine %r is not registered" % (name,))
    del _REGISTRY[name]


def get_engine(name):
    """Look up an engine by name.

    Raises
    ------
    ValidationError
        For an unknown name; the message lists every registered engine.
    """
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            "unknown method %r; registered engines: %s"
            % (name, ", ".join(_REGISTRY))) from None


def engine_names():
    """Registered engine names, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


class MethodsView(Sequence):
    """Live, tuple-like view over the registered engine names.

    Unlike a snapshot tuple, membership and iteration always reflect
    the registry's current contents, so ``repro.METHODS`` stays in sync
    with engines registered (or removed) after import.
    """

    def __len__(self):
        return len(engine_names())

    def __getitem__(self, index):
        return engine_names()[index]

    def __iter__(self):
        return iter(engine_names())

    def __contains__(self, name):
        return name in engine_names()

    def __repr__(self):
        return repr(engine_names())

    def __eq__(self, other):
        if isinstance(other, (tuple, list, MethodsView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


#: The public method list (`repro.METHODS`), derived from the registry.
METHODS = MethodsView()
