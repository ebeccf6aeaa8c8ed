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
import hashlib
import json
import types
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, cast

import numpy as np

from repro.exceptions import FingerprintError

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.api.backends import Backend
    from repro.api.spec import JobSpec

__all__ = ["canonical_value", "canonical_spec", "backend_identity", "fingerprint_spec"]

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

#: The canonical forms of the clusters a keying pass has met, as
#: ``(cluster, form)`` pairs matched by ``is`` (see :func:`canonical_spec`).
ClusterForms = List[Tuple[object, object]]


def _class_path(value: object) -> str:
    """The importable ``module.QualName`` path of a value's class."""
    cls = type(value)
    return f"{cls.__module__}.{cls.__qualname__}"


def _sort_key(item: Tuple[object, object]) -> str:
    """Deterministic ordering for canonicalised mapping items."""
    return json.dumps(item[0], sort_keys=True, default=str)


def canonical_value(value: object) -> object:
    """Recursively normalise a value into its canonical, JSON-stable form.

    Raises
    ------
    FingerprintError
        If the value (or anything it contains) has no canonical form —
        live random generators, callables, or objects whose state cannot
        be recovered from attributes.
    """
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, _CALLABLE_TYPES):
        raise FingerprintError(
            f"cannot fingerprint the callable {getattr(value, '__qualname__', value)!r}: "
            "functions carry code, not configuration; give the cache a "
            "named backend and config-form scheme instead"
        )
    if isinstance(value, (np.random.Generator, np.random.BitGenerator)):
        raise FingerprintError(
            "cannot fingerprint a live random generator: its state mutates "
            "with every draw, so no stable content key exists; seed the "
            "spec with an int or SeedSequence to make it cacheable"
        )
    if isinstance(value, np.random.SeedSequence):
        entropy = value.entropy
        return {
            "__seedseq__": canonical_value(
                list(entropy) if isinstance(entropy, (list, tuple)) else entropy
            ),
            "spawn_key": [int(key) for key in value.spawn_key],
            "pool_size": int(value.pool_size),
        }
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            "__ndarray__": hashlib.sha256(contiguous.tobytes()).hexdigest(),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(value, np.generic):
        return {"__npscalar__": value.item(), "dtype": str(value.dtype)}
    if isinstance(value, Mapping):
        items = [
            [canonical_value(key), canonical_value(entry)]
            for key, entry in value.items()
        ]
        items.sort(key=_sort_key)
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [canonical_value(entry) for entry in value]
    if isinstance(value, (set, frozenset)):
        members = [canonical_value(entry) for entry in value]
        members.sort(key=lambda entry: json.dumps(entry, sort_keys=True, default=str))
        return {"__set__": members}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            spec_field.name: canonical_value(getattr(value, spec_field.name))
            for spec_field in dataclasses.fields(value)
        }
        return {"__dataclass__": _class_path(value), "fields": fields}
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {
            "__object__": _class_path(value),
            "state": canonical_value(state),
        }
    raise FingerprintError(
        f"cannot fingerprint {_class_path(value)} instance: it exposes no "
        "recoverable constructor state (no dataclass fields, no __dict__)"
    )


def canonical_spec(spec: "JobSpec", clusters: Optional[ClusterForms] = None) -> object:
    """``canonical_value(spec)``, reusing the cluster forms in ``clusters``.

    ``clusters`` is one keying pass's memo. A spec whose cluster *is* one the
    pass has met (matched by ``is``, never ``id()``) takes its stored form; a
    new cluster is canonicalised and added. The rest of the spec is
    canonicalised without its cluster and the form put in the cluster's
    field, so the result equals ``canonical_value(spec)`` exactly.
    """
    if clusters is None:
        return canonical_value(spec)
    cluster = spec.cluster
    for seen, form in clusters:
        if seen is cluster:
            break
    else:
        form = canonical_value(cluster)
        clusters.append((cluster, form))
    canonical = cast(Dict[str, Dict[str, object]], canonical_value(spec.replace(cluster=None)))
    canonical["fields"]["cluster"] = form
    return canonical


def backend_identity(backend: "Backend") -> object:
    """The canonical identity of a backend: class path plus configuration.

    Two backend instances with the same class and the same configured
    state (engine, quantiles, ...) are interchangeable for caching; two
    different engines are not, because their results may differ bit-wise.
    Callable-wrapped backends (custom runners) raise
    :class:`~repro.exceptions.FingerprintError` — their behaviour lives in
    code the fingerprint cannot see.
    """
    return {"__backend__": _class_path(backend), "state": canonical_value(vars(backend))}


def fingerprint_spec(spec: "JobSpec", *, backend: Optional["Backend"] = None) -> str:
    """SHA-256 content fingerprint of a spec (and optionally its backend).

    The digest covers the spec's full configuration — scheme, cluster,
    workload, iteration budget, and seed — and, when given, the executing
    backend's identity (class + engine/configuration). Equal configurations
    produce equal digests across processes and sessions.
    """
    payload: Dict[str, object] = {"spec": canonical_value(spec)}
    if backend is not None:
        payload["backend"] = backend_identity(backend)
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
