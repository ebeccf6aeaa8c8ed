"""Config-driven scheme registry.

Schemes register themselves with the :func:`register_scheme` decorator::

    @register_scheme("bcc")
    class BCCScheme(Scheme):
        ...

and become nameable everywhere a configuration is accepted — the
:class:`~repro.api.JobSpec` front door, the sweep engine, and the CLI::

    scheme_from_config("uncoded")
    scheme_from_config({"name": "bcc", "load": 10})
    scheme_from_config({"name": "generalized-bcc"}, cluster=my_cluster)

Construction goes through :meth:`Scheme.from_config`, which validates every
key against the scheme's constructor (inapplicable parameters raise
:class:`~repro.exceptions.ConfigurationError` rather than being silently
dropped) and injects the ambient cluster into the heterogeneous schemes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Type, Union

from repro.exceptions import ConfigurationError
from repro.schemes.base import Scheme

__all__ = [
    "register_scheme",
    "available_schemes",
    "get_scheme_class",
    "scheme_accepts",
    "scheme_from_config",
]

#: A value that can be resolved into a scheme: an instance, a registered
#: name, or a config mapping with a ``name`` key plus constructor kwargs.
SchemeLike = Union[Scheme, str, Mapping[str, object]]

_REGISTRY: Dict[str, Type[Scheme]] = {}


def register_scheme(
    name: Optional[str] = None,
) -> Callable[[Type[Scheme]], Type[Scheme]]:
    """Class decorator registering a :class:`Scheme` under ``name``.

    ``name`` defaults to the class's ``name`` attribute. Registering two
    different classes under one name is a configuration error; re-decorating
    the same class (e.g. on module reload) is harmless.
    """

    def decorator(cls: Type[Scheme]) -> Type[Scheme]:
        key = name if name is not None else cls.name
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"scheme name {key!r} is already registered to "
                f"{existing.__name__}"
            )
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return decorator


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme (homogeneous and heterogeneous)."""
    return sorted(_REGISTRY)


def get_scheme_class(name: str) -> Type[Scheme]:
    """Look up a registered scheme class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None


def scheme_accepts(name: str, parameter: str) -> bool:
    """Whether the named scheme's constructor takes ``parameter``."""
    return parameter in get_scheme_class(name).constructor_parameters()


def scheme_from_config(
    config: SchemeLike,
    *,
    cluster: Optional[object] = None,
    **kwargs: object,
) -> Scheme:
    """Resolve a scheme instance from a name, config mapping, or instance.

    Parameters
    ----------
    config:
        A :class:`Scheme` instance (returned unchanged), a registered scheme
        name, or a mapping with a ``name`` key whose remaining keys are
        constructor arguments.
    cluster:
        Ambient cluster, forwarded to :meth:`Scheme.from_config` so the
        heterogeneous schemes (``generalized-bcc``, ``load-balanced``) can
        derive their per-worker loads from it.
    kwargs:
        Extra constructor arguments merged over the config mapping.
    """
    if isinstance(config, Scheme):
        if kwargs:
            raise ConfigurationError(
                "cannot apply configuration overrides to an already-built "
                f"scheme instance {config!r}"
            )
        return config
    if isinstance(config, str):
        return get_scheme_class(config).from_config(kwargs, cluster=cluster)
    if isinstance(config, Mapping):
        options = dict(config)
        name = options.pop("name", None)
        if not isinstance(name, str):
            raise ConfigurationError(
                "a scheme config mapping needs a string 'name' key; got "
                f"{config!r}"
            )
        options.update(kwargs)
        return get_scheme_class(name).from_config(options, cluster=cluster)
    raise ConfigurationError(
        f"cannot build a scheme from {type(config).__name__}; expected a "
        "Scheme, a registered name, or a config mapping"
    )
