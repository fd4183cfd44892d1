"""Name -> backend registry behind ``run_model(..., backend="analog")``.

Backends self-register at import time with the :func:`register_backend`
decorator; the engine resolves names through :func:`create_backend`.  The
registry is intentionally tiny — a dict plus validation — so growing the
system (a sharded backend, an async backend, a new number format) is one
decorated class away.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Type, TypeVar

from repro.exec.backend import ExecutionBackend

_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}

_Registered = TypeVar("_Registered")


def resolve_registered(registry: Mapping[str, _Registered], name: str,
                       what: str) -> _Registered:
    """Look ``name`` up in a name registry, failing self-documentingly.

    The repo's registries (execution backends here, characterization
    sweeps) share the same contract: an unknown name
    raises a ``KeyError`` whose message lists every registered name, so a
    typo on a CLI flag or in a config file is immediately actionable.
    """
    try:
        return registry[name]
    except KeyError:
        raise KeyError(
            f"unknown {what} {name!r}; "
            f"registered {what}s: {', '.join(sorted(registry))}"
        ) from None


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator registering an :class:`ExecutionBackend` by its name."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"{cls.__name__} must define a concrete `name`")
    if name in _BACKENDS and _BACKENDS[name] is not cls:
        raise ValueError(f"backend name {name!r} is already registered")
    _BACKENDS[name] = cls
    return cls


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_BACKENDS)


def get_backend_class(name: str) -> Type[ExecutionBackend]:
    """Resolve a backend name to its class.

    Raises
    ------
    KeyError
        If no backend of that name is registered; the message lists every
        registered name so a typo on a CLI flag or a service config is
        immediately actionable.
    """
    return resolve_registered(_BACKENDS, name, "execution backend")


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate a registered backend by name."""
    return get_backend_class(name)()
