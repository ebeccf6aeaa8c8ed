"""Canonical content fingerprints — the result cache's keying contract.

A fingerprint is a SHA-256 digest over a *canonical form* of a job spec
(plus the backend that will execute it): a recursively normalised,
JSON-serialisable structure in which equal configurations encode equally
regardless of construction order, container identity, or interpreter
session. The contract, enforced here and linted by CACHE002:

* **Content only.** Nothing identity-derived ever enters a key — no
  ``id()``, no ``hash()``, no ``repr()`` of live objects. Two specs built
  independently from the same configuration fingerprint identically, in
  this process or any other.
* **Total or loud.** Every value either canonicalises completely or raises
  :class:`~repro.exceptions.FingerprintError` naming the offending piece.
  Live generators (``np.random.Generator``), callables, and objects whose
  state is not recoverable are *uncacheable by design* — silently keying
  them on identity would serve wrong results.
* **Round-trip stable.** The canonical form survives
  ``json.loads(json.dumps(...))`` unchanged, so a fingerprint computed
  from a config that went through serialisation matches the original.

Mappings are key-sorted; arrays encode as dtype/shape/content digests;
seeds encode by entropy and spawn key (the values that determine every
draw); dataclasses and plain model objects encode as their class path plus
canonicalised constructor state.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import types
from collections.abc import Mapping
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, cast

import numpy as np

from repro.exceptions import FingerprintError

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.api.backends import Backend
    from repro.api.spec import JobSpec

__all__ = ["canonical_value", "canonical_text", "backend_identity", "fingerprint_spec"]

#: Types that are already canonical (and JSON-stable) as-is.
_ATOMIC = (type(None), bool, int, float, str)

#: Callable flavours that carry code, not configuration — never canonical.
_CALLABLE_TYPES = (
    types.FunctionType,
    types.LambdaType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
)

#: The clusters a keying pass has met, each with the JSON text of its
#: canonical form, as ``(cluster, text)`` pairs matched by ``is`` (see
#: :func:`canonical_text`).
ClusterForms = List[Tuple[object, str]]

#: Stands in for the cluster's form while :func:`canonical_text` encodes the
#: rest of a spec; the cluster's text replaces its JSON encoding.
_CLUSTER_SLOT = "\x00cluster-form\x00"
_CLUSTER_SLOT_TEXT = json.dumps(_CLUSTER_SLOT)

#: Mapping keys whose raw order is their JSON-quoted order: characters from
#: ``#`` to ``~`` bar the backslash, none of which JSON escapes and all of
#: which sort after the closing quote.
_PLAIN_KEYS = re.compile(r"[\x23-\x5b\x5d-\x7e]*")

#: Each class's canonicaliser, chosen the first time :func:`canonical_value`
#: meets the class. Past ``_HANDLER_LIMIT`` classes (classes made at run
#: time), a new class is classified on every call instead.
_HANDLERS: Dict[type, Callable[[object], object]] = {}
_HANDLER_LIMIT = 4096

_first = itemgetter(0)


def _class_path(cls: type) -> str:
    """The importable ``module.QualName`` path of a class."""
    return f"{cls.__module__}.{cls.__qualname__}"


def _sort_key(item: Tuple[object, object]) -> str:
    """Deterministic ordering for canonicalised mapping items."""
    return json.dumps(item[0], sort_keys=True, default=str)


def _dumps(value: object) -> str:
    """The canonical JSON text of a canonical form: the bytes a key digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_value(value: object) -> object:
    """Recursively normalise a value into its canonical, JSON-stable form.

    Dispatch is on the exact class, through a table that the first value
    of each class fills by testing, in order: the atomic JSON types (so
    ``np.float64``, a ``float``, stays as it is), callables, live
    generators, ``SeedSequence``, arrays, NumPy scalars, mappings, lists and
    tuples, sets, dataclasses, and objects with a ``__dict__``. A class
    registered with an ABC (``Mapping.register``) after its first
    canonicalisation keeps its first handler.

    Raises
    ------
    FingerprintError
        If the value (or anything it contains) has no canonical form —
        live random generators, callables, or objects whose state cannot
        be recovered from attributes.
    """
    handler = _HANDLERS.get(type(value))
    if handler is None:
        handler = _handler_for(type(value))
    return handler(value)


def _handler_for(cls: type) -> Callable[[object], object]:
    """Pick (and remember) the canonicaliser of ``cls``'s instances.

    Earlier tests win: a ``float`` subclass such as ``np.float64`` is atomic,
    and a mapping dataclass is a mapping.
    """
    handler: Callable[[object], object]
    if issubclass(cls, _ATOMIC):
        handler = _atomic
    elif issubclass(cls, _CALLABLE_TYPES):
        handler = _refuse_callable
    elif issubclass(cls, (np.random.Generator, np.random.BitGenerator)):
        handler = _refuse_generator
    elif issubclass(cls, np.random.SeedSequence):
        handler = _seed_sequence
    elif issubclass(cls, np.ndarray):
        handler = _array
    elif issubclass(cls, np.generic):
        handler = _numpy_scalar
    elif issubclass(cls, Mapping):
        handler = _mapping
    elif issubclass(cls, (list, tuple)):
        handler = _sequence
    elif issubclass(cls, (set, frozenset)):
        handler = _set
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        names = tuple(spec_field.name for spec_field in dataclasses.fields(cls))
        handler = functools.partial(_dataclass, _class_path(cls), names)
    else:
        handler = _object
    if len(_HANDLERS) < _HANDLER_LIMIT:
        _HANDLERS[cls] = handler
    return handler


def _atomic(value: object) -> object:
    return value


def _refuse_callable(value: object) -> object:
    raise FingerprintError(
        f"cannot fingerprint the callable {getattr(value, '__qualname__', value)!r}: "
        "functions carry code, not configuration; give the cache a "
        "named backend and config-form scheme instead"
    )


def _refuse_generator(value: object) -> object:
    raise FingerprintError(
        "cannot fingerprint a live random generator: its state mutates "
        "with every draw, so no stable content key exists; seed the "
        "spec with an int or SeedSequence to make it cacheable"
    )


def _seed_sequence(value: Any) -> object:
    entropy = value.entropy
    return {
        "__seedseq__": canonical_value(
            list(entropy) if isinstance(entropy, (list, tuple)) else entropy
        ),
        "spawn_key": [int(key) for key in value.spawn_key],
        "pool_size": int(value.pool_size),
    }


def _array(value: Any) -> object:
    contiguous = np.ascontiguousarray(value)
    return {
        "__ndarray__": hashlib.sha256(contiguous.tobytes()).hexdigest(),
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
    }


def _numpy_scalar(value: Any) -> object:
    return {"__npscalar__": value.item(), "dtype": str(value.dtype)}


def _mapping(value: Any) -> object:
    items = [[canonical_value(key), canonical_value(entry)] for key, entry in value.items()]
    keys = [key for key, _ in items]
    plain = all(type(key) is str for key in keys)
    if plain and _PLAIN_KEYS.fullmatch("".join(cast(List[str], keys))):
        items.sort(key=_first)
    else:
        items.sort(key=_sort_key)
    return {"__map__": items}


def _sequence(value: Any) -> object:
    return [canonical_value(entry) for entry in value]


def _set(value: Any) -> object:
    members = [canonical_value(entry) for entry in value]
    members.sort(key=lambda entry: json.dumps(entry, sort_keys=True, default=str))
    return {"__set__": members}


def _dataclass(path: str, names: Tuple[str, ...], value: object) -> object:
    fields = {name: canonical_value(getattr(value, name)) for name in names}
    return {"__dataclass__": path, "fields": fields}


def _object(value: object) -> object:
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {"__object__": _class_path(type(value)), "state": canonical_value(state)}
    raise FingerprintError(
        f"cannot fingerprint {_class_path(type(value))} instance: it exposes no "
        "recoverable constructor state (no dataclass fields, no __dict__)"
    )


def canonical_text(
    spec: "JobSpec",
    fields: Dict[str, object],
    clusters: Optional[ClusterForms] = None,
) -> str:
    """The canonical JSON text of ``{"spec": canonical_value(spec), **fields}``.

    ``fields`` must already be canonical. ``clusters`` is one keying pass's
    memo. A spec whose cluster *is* one the pass has met (matched by
    ``is``, never ``id()``) reuses that cluster's encoded form; a new
    cluster is canonicalised, encoded and added. The rest of the spec is
    canonicalised without its cluster and encoded with a slot string in the
    cluster's field, and the cluster's text is spliced into the slot, so the
    text equals the unspliced encoding byte for byte. When the slot's text
    occurs more than once (the spec or ``fields`` contain the slot string),
    the plain encoding is used.
    """
    if clusters is None:
        return _dumps({**fields, "spec": canonical_value(spec)})
    cluster = spec.cluster
    for seen, text in clusters:
        if seen is cluster:
            break
    else:
        text = _dumps(canonical_value(cluster))
        clusters.append((cluster, text))
    canonical = cast(Dict[str, Dict[str, object]], canonical_value(spec.replace(cluster=None)))
    canonical["fields"]["cluster"] = _CLUSTER_SLOT
    parts = _dumps({**fields, "spec": canonical}).split(_CLUSTER_SLOT_TEXT)
    if len(parts) == 2:
        return text.join(parts)
    return _dumps({**fields, "spec": canonical_value(spec)})


def backend_identity(backend: "Backend") -> object:
    """The canonical identity of a backend: class path plus configuration.

    Two backend instances with the same class and the same configured
    state (engine, quantiles, ...) are interchangeable for caching; two
    different engines are not, because their results may differ bit-wise.
    Callable-wrapped backends (custom runners) raise
    :class:`~repro.exceptions.FingerprintError` — their behaviour lives in
    code the fingerprint cannot see.
    """
    return {"__backend__": _class_path(type(backend)), "state": canonical_value(vars(backend))}


def fingerprint_spec(spec: "JobSpec", *, backend: Optional["Backend"] = None) -> str:
    """SHA-256 content fingerprint of a spec (and optionally its backend).

    The digest covers the spec's full configuration — scheme, cluster,
    workload, iteration budget, and seed — and, when given, the executing
    backend's identity (class + engine/configuration). Equal configurations
    produce equal digests across processes and sessions.
    """
    fields: Dict[str, object] = {}
    if backend is not None:
        fields["backend"] = backend_identity(backend)
    return hashlib.sha256(canonical_text(spec, fields).encode("utf-8")).hexdigest()
