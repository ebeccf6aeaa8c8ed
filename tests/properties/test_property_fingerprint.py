"""Property-based tests: ``canonical_value`` keys every value as it always has.

``canonical_value`` dispatches on each value's exact class through a
handler table, sorts plain string keys by their raw text, and caches each
dataclass's field names. Keys on disk stay valid only while every canonical
form is unchanged, so the reference below is the ``isinstance`` chain the
table replaced, copied verbatim, and the suite draws nested values — odd
mapping keys, NumPy scalars and arrays, seeds, dataclasses, plain and
``__slots__`` objects, an ABC-registered mapping, callables and live
generators — and requires the same form, the same JSON text and the same
:class:`~repro.exceptions.FingerprintError` message from both.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from collections.abc import Mapping as AbcMapping
from typing import Mapping

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api.fingerprint import canonical_value
from repro.exceptions import FingerprintError

# ---------------------------------------------------------------------- #
# The reference: canonical_value as an isinstance chain
# ---------------------------------------------------------------------- #
_ATOMIC = (type(None), bool, int, float, str)
_CALLABLE_TYPES = (
    types.FunctionType,
    types.LambdaType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
)


def _class_path(value):
    cls = type(value)
    return f"{cls.__module__}.{cls.__qualname__}"


def _sort_key(item):
    return json.dumps(item[0], sort_keys=True, default=str)


def reference_canonical_value(value):
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
            "__seedseq__": reference_canonical_value(
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
            [reference_canonical_value(key), reference_canonical_value(entry)]
            for key, entry in value.items()
        ]
        items.sort(key=_sort_key)
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [reference_canonical_value(entry) for entry in value]
    if isinstance(value, (set, frozenset)):
        members = [reference_canonical_value(entry) for entry in value]
        members.sort(key=lambda entry: json.dumps(entry, sort_keys=True, default=str))
        return {"__set__": members}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            spec_field.name: reference_canonical_value(getattr(value, spec_field.name))
            for spec_field in dataclasses.fields(value)
        }
        return {"__dataclass__": _class_path(value), "fields": fields}
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {
            "__object__": _class_path(value),
            "state": reference_canonical_value(state),
        }
    raise FingerprintError(
        f"cannot fingerprint {_class_path(value)} instance: it exposes no "
        "recoverable constructor state (no dataclass fields, no __dict__)"
    )


# ---------------------------------------------------------------------- #
# Value classes
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Point:
    x: object
    y: object = None


class Plain:
    """A configuration object whose state is its ``__dict__``."""

    def __init__(self, state):
        self.__dict__.update(state)


class Slotted:
    """No ``__dict__``, no dataclass fields: it has no canonical form."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Registered:
    """A mapping by ABC registration only, not by inheritance."""

    def __init__(self, items):
        self._items = dict(items)

    def items(self):
        return self._items.items()

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


AbcMapping.register(Registered)


class ReversedStr(str):
    """A string key whose own ordering is reversed."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
#: Characters around JSON's escapes and the quote: space, ``!``, ``"``,
#: ``#``, backslash, control characters, DEL and ``~``.
EDGE_CHARACTERS = ' !"#\\\x00\x1f\x7f~]a'
edge_keys = st.text(alphabet=st.sampled_from(EDGE_CHARACTERS), max_size=3)
text_keys = (
    edge_keys
    | st.text(alphabet=st.sampled_from(EDGE_CHARACTERS + "é☃"), max_size=4)
    | st.text(max_size=4)
)
plain_keys = st.text(alphabet=st.characters(min_codepoint=0x23, max_codepoint=0x7E), max_size=4)
finite_floats = st.floats(allow_nan=False)
hashables = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | finite_floats
    | text_keys
    | finite_floats.map(np.float64)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
mapping_keys = (
    plain_keys
    | text_keys
    | hashables
    | st.tuples(hashables, hashables)
    | st.text(max_size=3).map(ReversedStr)
)
seeds = st.builds(
    lambda entropy, spawn: np.random.SeedSequence(entropy).spawn(spawn + 1)[spawn],
    st.integers(min_value=0, max_value=2**80)
    | st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
)
arrays = st.sampled_from([np.float64, np.int32, np.bool_]).flatmap(
    lambda dtype: st.lists(st.integers(-3, 3), max_size=6).map(
        lambda items: np.asarray(items, dtype=dtype)
    )
)
uncanonical = st.sampled_from(
    [lambda: None, print, np.random.default_rng(0), np.random.PCG64(0), Slotted(1)]
)
leaves = hashables | seeds | arrays
values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.sets(hashables, max_size=3)
        | st.frozensets(hashables, max_size=3)
        | st.dictionaries(mapping_keys, children, max_size=4)
        | st.dictionaries(plain_keys, children, max_size=4)
        | st.dictionaries(edge_keys, children, max_size=4)
        | st.builds(Point, children, children)
        | st.dictionaries(plain_keys, children, max_size=3).map(Plain)
        | st.dictionaries(mapping_keys, children, max_size=3).map(Registered)
    ),
    max_leaves=10,
)


def outcome(canonicalise, value):
    try:
        form = canonicalise(value)
    except FingerprintError as error:
        return "error", str(error)
    return "form", form, json.dumps(form, sort_keys=True, separators=(",", ":"))


@given(value=values)
@example(value={key: 0 for key in ["a", "a!", 'a"', "a#", "a\\", "a ", "é", "\x7f", "~", ""]})
@example(value={"b": 1, "a": 2, "a~": 3, "ab": 4})
@example(value={"a": 0, "a b": 1})
@example(value={"a": 0, "a!": 1})
@example(value={"~": 0, "\x7f": 1})
@example(value={ReversedStr("a"): 0, ReversedStr("b"): 1})
@example(value=[np.float64(0.5), np.int64(3), np.bool_(True), (1, 2), {3}, frozenset({4})])
@example(value=Registered({"z": np.arange(3), "y": np.random.SeedSequence(1)}))
def test_canonical_forms_match_the_isinstance_chain(value):
    assert outcome(canonical_value, value) == outcome(reference_canonical_value, value)


@given(value=values, bad=uncanonical, where=st.integers(min_value=0, max_value=3))
def test_uncanonical_values_raise_the_same_error(value, bad, where):
    nested = [
        [value, bad],
        {"key": value, "bad": bad},
        Point(value, bad),
        Plain({"state": [value, bad]}),
    ][where]
    expected = outcome(reference_canonical_value, nested)
    assert expected[0] == "error"
    assert outcome(canonical_value, nested) == expected
