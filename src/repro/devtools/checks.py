"""The initial ``reprolint`` rule catalogue.

Each rule machine-enforces one invariant the repo's correctness story rests
on — invariants that were previously guarded only by convention and by
whichever tests happened to exercise the path. See ``docs/contracts.rst``
for the full catalogue with rationale and the pragma escape hatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.context import ModuleContext, ProjectModel
from repro.devtools.findings import Finding, Severity
from repro.devtools.rules import Rule, register_rule

__all__ = [
    "GlobalRandomnessRule",
    "BatchPathParityRule",
    "BareBuiltinRaiseRule",
    "SchedulerCatchAllRule",
    "SchemeAnalyticObligationRule",
    "WallClockRule",
    "LenKeyedCacheRule",
    "IdentityKeyedCacheRule",
    "PublicDocstringRule",
    "StrictCoreAnnotationRule",
    "BuiltinSumRule",
]


def _dotted(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _ImportMap:
    """Which local names refer to ``numpy``, ``numpy.random``, ``random``, ..."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy_aliases: Set[str] = set()
        self.numpy_random_aliases: Set[str] = set()
        self.stdlib_random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_module_aliases: Set[str] = set()
        self.datetime_class_aliases: Set[str] = set()
        self.date_class_aliases: Set[str] = set()
        # name -> original, for ``from numpy.random import default_rng as x``
        self.from_numpy_random: Dict[str, str] = {}
        self.from_stdlib_random: Dict[str, str] = {}
        self.from_time: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_aliases.add(alias.asname)
                        else:
                            self.numpy_aliases.add("numpy")
                    elif alias.name == "random":
                        self.stdlib_random_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_module_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        self.numpy_random_aliases.add(local)
                    elif node.module == "numpy.random":
                        self.from_numpy_random[local] = alias.name
                    elif node.module == "random":
                        self.from_stdlib_random[local] = alias.name
                    elif node.module == "time":
                        self.from_time[local] = alias.name
                    elif node.module == "datetime":
                        if alias.name == "datetime":
                            self.datetime_class_aliases.add(local)
                        elif alias.name == "date":
                            self.date_class_aliases.add(local)

    def numpy_random_tail(self, chain: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
        """The attribute path after ``numpy.random``, or ``None``."""
        if len(chain) >= 2 and chain[0] in self.numpy_aliases and chain[1] == "random":
            return chain[2:]
        if len(chain) >= 1 and chain[0] in self.numpy_random_aliases:
            return chain[1:]
        return None


@register_rule
class GlobalRandomnessRule(Rule):
    """RNG001 — all randomness flows through explicit, injected generators."""

    id = "RNG001"
    title = "no global-state or re-seeded randomness outside repro.utils.rng"
    severity = Severity.ERROR
    rationale = (
        "Bit-identical loop==vectorized==batched execution requires every "
        "draw to come from an explicitly passed generator seeded by the "
        "documented SeedSequence spawn strategy. A np.random.default_rng() "
        "with a literal or implicit seed (or any legacy np.random.* / "
        "stdlib random.* global-state call) creates a hidden stream that "
        "silently breaks replay and parity."
    )

    _EXEMPT_MODULES = ("repro.utils.rng",)

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None or module.module in self._EXEMPT_MODULES:
            return
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            tail = imports.numpy_random_tail(chain)
            if tail is None and len(chain) == 1:
                origin = imports.from_numpy_random.get(chain[0])
                if origin is not None:
                    tail = (origin,)
                elif chain[0] in imports.from_stdlib_random:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"call to stdlib random.{imports.from_stdlib_random[chain[0]]}"
                        " uses global random state; draw from an injected"
                        " numpy Generator (see repro.utils.rng)",
                        column=node.col_offset,
                    )
                    continue
            if tail is not None:
                yield from self._check_numpy_random(module, node, tail)
                continue
            if len(chain) == 2 and chain[0] in imports.stdlib_random_aliases:
                yield self.finding(
                    module,
                    node.lineno,
                    f"call to stdlib random.{chain[1]} uses global random state;"
                    " draw from an injected numpy Generator (see repro.utils.rng)",
                    column=node.col_offset,
                )

    def _check_numpy_random(
        self, module: ModuleContext, node: ast.Call, tail: Tuple[str, ...]
    ) -> Iterator[Finding]:
        if not tail or tail[0] == "SeedSequence":
            # Constructing a SeedSequence is deterministic bookkeeping, and a
            # bare ``np.random`` reference is not a draw.
            return
        if tail == ("default_rng",):
            # Passing a seed *variable* through is the sanctioned conversion
            # (repro.utils.rng.as_generator does exactly this); a literal,
            # computed, or missing seed pins a hidden stream.
            if (
                len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], (ast.Name, ast.Attribute))
            ):
                return
            yield self.finding(
                module,
                node.lineno,
                "np.random.default_rng with a literal, computed, or implicit"
                " seed creates a hidden RNG stream; accept a RandomState and"
                " route it through repro.utils.rng.as_generator",
                column=node.col_offset,
            )
            return
        yield self.finding(
            module,
            node.lineno,
            f"np.random.{'.'.join(tail)} uses numpy's global random state;"
            " draw from an injected Generator instead",
            column=node.col_offset,
        )


@register_rule
class BatchPathParityRule(Rule):
    """RNG002 — scalar-sampler overrides must address the batch paths."""

    id = "RNG002"
    title = "sample() overrides must provide (or pragma-inherit) the batch paths"
    severity = Severity.ERROR
    rationale = (
        "The vectorized and trial-batched engines reach delay models through "
        "sample_grid and communication models through sample_batch (or draw "
        "a model's values themselves from its exponential_form, which "
        "answers None for any class that overrides sample()). sample_grid "
        "dispatches as a *classmethod*, so a subclass that changes sample() "
        "while silently inheriting an ancestor's vectorized grid formula "
        "diverges from the loop engine without any test necessarily "
        "noticing. Each override must either implement the batch path or "
        "carry an explicit pragma documenting why the inherited path is "
        "bit-exact for it."
    )

    # The batch path each contract root's engines call, per sample() override.
    _ROOTS: Dict[str, Set[str]] = {
        "DelayModel": {"sample_grid"},
        "CommunicationModel": {"sample_batch"},
    }

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name in self._ROOTS:
                continue
            info = project.lookup(node.name, near=module.module)
            if info is None or info.lineno != node.lineno:
                continue
            required: Optional[Set[str]] = None
            for root, paths in self._ROOTS.items():
                if project.is_subclass_of(info, (root,)):
                    required = paths
                    break
            if required is None or "sample" not in info.methods:
                continue
            missing = sorted(required - info.methods)
            if missing:
                yield self.finding(
                    module,
                    node.lineno,
                    f"{node.name} overrides sample() but not "
                    f"{', '.join(missing)}; implement them or pragma-inherit"
                    " with a reason explaining why the inherited path stays"
                    " bit-exact",
                    column=node.col_offset,
                )


@register_rule
class BareBuiltinRaiseRule(Rule):
    """EXC001 — library errors come from the repro.exceptions hierarchy."""

    id = "EXC001"
    title = "no bare builtin exceptions raised from library code"
    severity = Severity.ERROR
    rationale = (
        "Callers are promised they can catch ReproError for every failure "
        "the library raises intentionally while programming errors propagate "
        "unchanged. A bare ValueError/RuntimeError/TypeError breaks that "
        "contract; use ConfigurationError (which keeps ValueError as a base "
        "for backwards compatibility) or a more specific subclass."
    )

    _BUILTIN = {"ValueError", "RuntimeError", "TypeError", "Exception"}

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in self._BUILTIN:
                yield self.finding(
                    module,
                    node.lineno,
                    f"raise of bare builtin {exc.id}; raise a repro.exceptions"
                    " type instead (ConfigurationError subclasses ValueError"
                    " for backwards compatibility)",
                    column=node.col_offset,
                )


@register_rule
class SchedulerCatchAllRule(Rule):
    """EXC002 — the scheduler core and service never swallow blindly."""

    id = "EXC002"
    title = "no catch-all exception handlers in repro.scheduling / repro.service"
    severity = Severity.ERROR
    rationale = (
        "The scheduling core decides, per cell, whether to batch trials "
        "or serve from cache; a bare `except:` or "
        "`except Exception:` there turns programming errors into silent "
        "wrong decisions (the pre-refactor plan probe swallowed every "
        "failure this way). Scheduler and service code must catch the "
        "repro exception hierarchy — or narrower — so real bugs propagate."
    )

    _SCOPE = ("repro.scheduling", "repro.service")
    _CATCH_ALL = {"Exception", "BaseException"}

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None or not module.in_package(*self._SCOPE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._catch_all_name(node.type)
            if caught is None:
                continue
            label = "bare `except:`" if caught == "" else f"`except {caught}`"
            yield self.finding(
                module,
                node.lineno,
                f"catch-all {label} in scheduler/service code;"
                " catch ReproError (or a narrower repro.exceptions type) so"
                " programming errors propagate instead of becoming silent"
                " scheduling decisions",
                column=node.col_offset,
            )

    @classmethod
    def _catch_all_name(cls, node: Optional[ast.expr]) -> Optional[str]:
        """The offending name when a handler catches everything, else None."""
        if node is None:
            return ""  # a bare ``except:``
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                name = cls._catch_all_name(element)
                if name:
                    return name
            return None
        chain = _dotted(node)
        if chain and chain[-1] in cls._CATCH_ALL:
            return chain[-1]
        return None


@register_rule
class SchemeAnalyticObligationRule(Rule):
    """SCHEME001 — registered schemes must take a stance on analytics."""

    id = "SCHEME001"
    title = "@register_scheme classes must define analytic_runtime"
    severity = Severity.ERROR
    rationale = (
        "AnalyticBackend promises every registered scheme either a "
        "closed-form expected runtime or a typed AnalyticIntractableError "
        "naming the missing piece. A scheme registered without its own "
        "analytic_runtime (or one inherited from a non-root ancestor) "
        "silently falls through to the abstract default and erodes that "
        "contract."
    )

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorated = any(
                self._is_register_scheme(decorator) for decorator in node.decorator_list
            )
            if not decorated:
                continue
            info = project.lookup(node.name, near=module.module)
            if info is None:
                continue
            if not project.defines_in_ancestry(
                info, "analytic_runtime", stop_at=("Scheme",)
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    f"{node.name} is registered but neither defines"
                    " analytic_runtime nor inherits one from a concrete"
                    " ancestor; implement it (raising"
                    " AnalyticIntractableError is an acceptable"
                    " implementation) so AnalyticBackend keeps its"
                    " every-scheme obligation",
                    column=node.col_offset,
                )

    @staticmethod
    def _is_register_scheme(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain = _dotted(target)
        return bool(chain) and chain[-1] == "register_scheme"


@register_rule
class WallClockRule(Rule):
    """TIME001 — simulated time never reads the wall clock."""

    id = "TIME001"
    title = "no wall-clock reads in simulation or analysis code"
    severity = Severity.ERROR
    rationale = (
        "Simulation and analysis results are pure functions of (spec, seed); "
        "a time.time()/datetime.now() read makes output depend on the host "
        "clock and breaks replay, caching, and cross-backend validation. "
        "Real elapsed time belongs to repro.runtime and the sanctioned "
        "repro.utils.timing clocks only."
    )

    _TIME_CALLS = {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
    _DATETIME_CALLS = {"now", "utcnow", "today"}
    _EXEMPT_PACKAGES = ("repro.runtime",)
    _EXEMPT_MODULES = ("repro.utils.timing",)

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        if module.in_package(*self._EXEMPT_PACKAGES):
            return
        if module.module in self._EXEMPT_MODULES:
            return
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            if (
                len(chain) == 2
                and chain[0] in imports.time_aliases
                and chain[1] in self._TIME_CALLS
            ):
                name = f"time.{chain[1]}"
            elif (
                len(chain) == 1
                and imports.from_time.get(chain[0]) in self._TIME_CALLS
            ):
                name = f"time.{imports.from_time[chain[0]]}"
            elif (
                len(chain) == 3
                and chain[0] in imports.datetime_module_aliases
                and chain[1] in ("datetime", "date")
                and chain[2] in self._DATETIME_CALLS
            ):
                name = f"datetime.{chain[1]}.{chain[2]}"
            elif (
                len(chain) == 2
                and chain[0] in (imports.datetime_class_aliases | imports.date_class_aliases)
                and chain[1] in self._DATETIME_CALLS
            ):
                name = f"{chain[0]}.{chain[1]}"
            else:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"wall-clock read {name}() in simulation/analysis code;"
                " simulated time must come from the event clock, real"
                " timing from repro.utils.timing / repro.runtime",
                column=node.col_offset,
            )


@register_rule
class LenKeyedCacheRule(Rule):
    """CACHE001 — caches key on mutation counters, never on len()."""

    id = "CACHE001"
    title = "no len()-keyed caches; key on a mutation counter or cache an immutable value"
    severity = Severity.ERROR
    rationale = (
        "A cache keyed on a container's length serves stale values after "
        "same-length replacement — the JobResult stale-aggregate bug "
        "class. Key a cache on a mutation counter bumped on every write, "
        "or cache on an immutable object, whose values cannot go stale."
    )

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        flagged: Set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Compare)):
                continue
            if node.lineno in flagged:
                continue
            if self._mentions_cache(node) and self._keys_on_foreign_len(node):
                flagged.add(node.lineno)
                yield self.finding(
                    module,
                    node.lineno,
                    "cache state derived from len(); key the cache on a"
                    " mutation counter so same-length replacement"
                    " invalidates it, or cache on an immutable object",
                    column=node.col_offset,
                )

    @staticmethod
    def _mentions_cache(node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and "cache" in child.id.lower():
                return True
            if isinstance(child, ast.Attribute) and "cache" in child.attr.lower():
                return True
        return False

    @classmethod
    def _keys_on_foreign_len(cls, node: ast.AST) -> bool:
        """A ``len()`` of something that is *not* the cache itself.

        ``len(self._cache) > BOUND`` merely measures the cache for size
        bounding and is fine; ``cache_key = (..., len(self.records), ...)``
        derives cache state from another container's length — the stale-key
        hazard this rule exists for.
        """
        return any(
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "len"
            and not any(cls._mentions_cache(argument) for argument in child.args)
            for child in ast.walk(node)
        )


@register_rule
class IdentityKeyedCacheRule(Rule):
    """CACHE002 — cache keys come from content, never from identity."""

    id = "CACHE002"
    title = "no cache keys derived from id()/hash()/repr()"
    severity = Severity.ERROR
    rationale = (
        "The result cache's contract is content addressing: equal "
        "configurations key equally across processes and sessions. id() is "
        "an address (reused after garbage collection, different every run), "
        "hash() is salted per-process for strings and falls back to id() "
        "for plain objects, and repr() of most objects embeds id(). A key "
        "touched by any of them serves wrong results or never hits; build "
        "keys from canonical fingerprints (repro.api.fingerprint) instead."
    )

    _IDENTITY_CALLS = {"id", "hash", "repr"}

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        flagged: Set[Tuple[int, int]] = set()
        #: Return statements inside a cache/fingerprint-named function are
        #: key constructions even when the statement itself names nothing.
        keying_returns: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name.lower()
                if "cache" in name or "fingerprint" in name or "key" in name:
                    keying_returns.update(
                        child.lineno
                        for child in ast.walk(node)
                        if isinstance(child, ast.Return)
                    )
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Expr)
            ):
                continue
            # Key *construction* sites accept the broader key-name
            # vocabulary; bare expression statements (e.g. a display call
            # that happens to use repr() next to a loop variable named
            # ``key``) must name the cache itself to count.
            implicated = isinstance(node, ast.Return) and node.lineno in keying_returns
            if not implicated and not self._touches_cache_key(
                node, key_names=not isinstance(node, ast.Expr)
            ):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in self._IDENTITY_CALLS
                    and (call.lineno, call.col_offset) not in flagged
                ):
                    flagged.add((call.lineno, call.col_offset))
                    yield self.finding(
                        module,
                        call.lineno,
                        f"cache key derived from {call.func.id}(): identity is"
                        " not content — it changes across processes and GC"
                        " cycles; fingerprint the configuration instead"
                        " (repro.api.fingerprint)",
                        column=call.col_offset,
                    )

    @staticmethod
    def _touches_cache_key(node: ast.AST, *, key_names: bool) -> bool:
        """Whether a statement involves cache/fingerprint key state.

        Matches identifiers mentioning a cache or fingerprint, and — when
        ``key_names`` — ``*key``/``key*`` names (``cache_key``,
        ``task_key``, ``keys``), the vocabulary cache keying actually
        uses, while ignoring unrelated ``id``/``hash``/``repr`` calls.
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                name = child.id.lower()
            elif isinstance(child, ast.Attribute):
                name = child.attr.lower()
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name.lower()
            else:
                continue
            if "cache" in name or "fingerprint" in name:
                return True
            if key_names and (name.startswith("key") or name.endswith("key")):
                return True
        return False


@register_rule
class PublicDocstringRule(Rule):
    """DOC001 — the public API surface documents itself."""

    id = "DOC001"
    title = "public names in repro.api carry docstrings"
    severity = Severity.WARNING
    rationale = (
        "repro.api is the library's front door and is rendered by the "
        "Sphinx site via autodoc; an undocumented public function or class "
        "there ships an empty reference page."
    )

    _SCOPE = ("repro.api",)
    _SKIP_DECORATORS = {"setter", "deleter", "overload"}

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None or not module.in_package(*self._SCOPE):
            return
        yield from self._check_body(module, module.tree.body, qualifier="")

    def _check_body(
        self, module: ModuleContext, body: Sequence[ast.stmt], qualifier: str
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if not ast.get_docstring(node):
                    yield self._missing(module, node, f"class {qualifier}{node.name}")
                yield from self._check_body(
                    module, node.body, qualifier=f"{node.name}."
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                tails = {
                    _dotted(d.func if isinstance(d, ast.Call) else d)[-1]
                    for d in node.decorator_list
                    if _dotted(d.func if isinstance(d, ast.Call) else d)
                }
                if tails & self._SKIP_DECORATORS:
                    continue
                if not ast.get_docstring(node):
                    kind = "method" if qualifier else "function"
                    yield self._missing(
                        module, node, f"{kind} {qualifier}{node.name}"
                    )

    def _missing(self, module: ModuleContext, node: ast.stmt, what: str) -> Finding:
        return self.finding(
            module,
            node.lineno,
            f"public {what} has no docstring; repro.api is the documented"
            " surface (rendered by Sphinx autodoc)",
            column=node.col_offset,
        )


@register_rule
class StrictCoreAnnotationRule(Rule):
    """TYPE001 — the strict-typed core stays fully annotated."""

    id = "TYPE001"
    title = "public defs in the strict core carry complete type annotations"
    severity = Severity.ERROR
    rationale = (
        "repro.api, repro.simulation, and repro.schemes are mypy-strict "
        "(disallow_untyped_defs); this rule is the in-repo, "
        "dependency-free proxy so the annotation contract is enforced even "
        "where mypy is not installed."
    )

    _SCOPE = ("repro.api", "repro.simulation", "repro.schemes")

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None or not module.in_package(*self._SCOPE):
            return
        yield from self._check_body(module, module.tree.body, in_class=False)

    def _check_body(
        self, module: ModuleContext, body: Sequence[ast.stmt], in_class: bool
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(module, node.body, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                missing = self._missing_annotations(node, in_class=in_class)
                if missing:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{node.name} is missing annotations for"
                        f" {', '.join(missing)}; the strict core is typed"
                        " (mypy disallow_untyped_defs)",
                        column=node.col_offset,
                    )

    @staticmethod
    def _missing_annotations(
        node: "ast.FunctionDef | ast.AsyncFunctionDef", *, in_class: bool
    ) -> List[str]:
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if in_class and args and not any(
            _dotted(d) and _dotted(d)[-1] == "staticmethod"
            for d in node.decorator_list
        ):
            args = args[1:]  # self / cls
        missing = [a.arg for a in args if a.annotation is None]
        if node.args.vararg is not None and node.args.vararg.annotation is None:
            missing.append("*" + node.args.vararg.arg)
        if node.args.kwarg is not None and node.args.kwarg.annotation is None:
            missing.append("**" + node.args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        return missing


@register_rule
class BuiltinSumRule(Rule):
    """SUM001 — no built-in ``sum()``: its float order depends on the interpreter."""

    id = "SUM001"
    title = "no built-in sum(); reduce floats in an explicit order"
    severity = Severity.ERROR
    rationale = (
        "Python 3.12's built-in sum() compensates float sums (sum([0.1] * 10) "
        "is 1.0 there, 0.9999999999999999 on 3.11) and CI tests 3.10-3.12, so "
        "a float sum() makes results depend on the interpreter. Reduce floats "
        "with the left-to-right helpers repro.simulation.job._sequential_sum "
        "and repro.analysis.analytic._sum_in_order, or with np.sum; an integer "
        "sum() carries a pragma saying so."
    )

    def check(self, module: ModuleContext, project: ProjectModel) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    "built-in sum() adds floats in an interpreter-dependent"
                    " order (Python 3.12 compensates); use"
                    " simulation.job._sequential_sum or"
                    " analysis.analytic._sum_in_order (left to right), or"
                    " np.sum",
                    column=node.col_offset,
                )
