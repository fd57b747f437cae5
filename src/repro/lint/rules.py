"""The repo-specific rule suite (REP001–REP007).

Each rule machine-enforces one of the contracts the reproduction's
correctness rests on; ``docs/lint.md`` states the invariant behind each
one and links back to ROADMAP's standing-invariants item and the seed
schedules in ``docs/seed-schedules.md``.  Rules are deliberately syntactic
and conservative: they flag the patterns that have actually bitten (or
nearly bitten) this code base, and the ``# repro-lint: allow[...]``
comment plus the committed baseline absorb the documented exceptions.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    ModuleSource,
    Rule,
    ancestors,
    dotted_name,
    enclosing_class,
    enclosing_function,
    is_docstring,
    parent_of,
)

__all__ = ["DEFAULT_RULES", "rule_by_id"]


def _logical(path: str) -> str:
    """Normalise ``src/repro/...`` and ``repro/...`` to the latter."""
    return path[4:] if path.startswith("src/") else path


def _under(path: str, prefixes: Sequence[str]) -> bool:
    logical = _logical(path)
    return any(logical.startswith(prefix) for prefix in prefixes)


# --------------------------------------------------------------------- #
# REP001 — determinism
# --------------------------------------------------------------------- #

#: Packages whose code feeds seeded executions; everything here must draw
#: randomness from an explicitly seeded generator and never read the clock.
_DETERMINISM_SCOPE = (
    "repro/local/",
    "repro/algorithms/",
    "repro/graphs/",
    "repro/core/",
)

#: RNG constructors that take their seed as the first argument / ``seed=``.
_SEEDED_CONSTRUCTORS = {"Random", "PCG64", "default_rng", "SeedSequence"}

#: Wall-clock reads (monotonic timers like ``perf_counter`` stay legal:
#: they time phases, they never influence a result).
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


class DeterminismRule(Rule):
    """REP001: no unseeded randomness or wall-clock reads in seeded code."""

    id = "REP001"
    title = "determinism: unseeded randomness / wall-clock read in seeded code"
    interests = (ast.Call,)

    def applies_to(self, logical_path: str) -> bool:
        return _under(logical_path, _DETERMINISM_SCOPE)

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        last = parts[-1]

        # random.shuffle(...) / random.random() / ... — process-global RNG.
        if len(parts) == 2 and parts[0] == "random" and last not in (
            _SEEDED_CONSTRUCTORS
        ):
            yield module.finding(
                node,
                self.id,
                f"random.{last}() draws from the process-global RNG; build a "
                "seeded random.Random(seed) (see the documented seed schedules)",
            )
            return

        # Random()/PCG64()/default_rng()/SeedSequence() without a seed.
        if last in _SEEDED_CONSTRUCTORS and self._seedless(node):
            yield module.finding(
                node,
                self.id,
                f"{last}() without an explicit seed pulls OS entropy; pass the "
                "seed from the documented schedule (block-PCG64 helpers are "
                "allow-listed where sanctioned)",
            )
            return

        # time.time() / datetime.now() — wall clock influencing seeded code.
        if len(parts) >= 2 and (parts[-2], last) in _WALL_CLOCK:
            yield module.finding(
                node,
                self.id,
                f"{name}() reads the wall clock inside seeded code; use a "
                "monotonic timer for phase timings and never let time reach "
                "a result",
            )

    @staticmethod
    def _seedless(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in node.keywords:
            if keyword.arg == "seed":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is None
        return True  # only non-seed keywords were given


# --------------------------------------------------------------------- #
# REP002 — hot-path purity
# --------------------------------------------------------------------- #

#: Modules on the per-round/per-trial hot path: one Python object per edge
#: here undoes the array-engine speedups.
_HOT_PATH_MODULES = {
    "repro/local/network.py",
    "repro/local/engine.py",
    "repro/local/runner.py",
    "repro/local/faults.py",
    "repro/core/metrics.py",
    "repro/core/trace.py",
    "repro/core/problems.py",
    "repro/graphs/edgelist.py",
    "repro/algorithms/selfstab.py",
    "repro/algorithms/mis/luby.py",
    "repro/algorithms/matching/randomized.py",
}

#: Calls that materialise a Python object per edge (or the nx graph).
_MATERIALISERS = {"to_networkx", "as_pairs"}

#: Builtins that copy their argument into a container, one entry per edge.
_COPIES = {"list", "tuple", "sorted", "set"}

#: Builtins that iterate their arguments element by element.
_WRAPPERS = {"enumerate", "zip", "reversed"}


def _names_bound_before(
    node: ast.AST, binds: Callable[[ast.AST, bool, Set[str]], bool]
) -> Set[str]:
    """Names in ``node``'s function whose latest assignment ending before
    ``node`` binds what ``binds(value, unpacked, names)`` accepts: ``value``
    is the assigned expression, ``unpacked`` whether the name is an element
    of a tuple or list target, and ``names`` the names bound so far.  In
    source order, so a rebinding to anything else clears the name."""
    function = enclosing_function(node)
    if function is None:
        return set()
    here = (node.lineno, node.col_offset)
    assignments = sorted(
        (
            stmt
            for stmt in ast.walk(function)
            if isinstance(stmt, ast.Assign)
            and (stmt.end_lineno, stmt.end_col_offset) <= here
        ),
        key=lambda stmt: (stmt.lineno, stmt.col_offset),
    )
    names: Set[str] = set()
    for stmt in assignments:
        for target in stmt.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                unpacked, elements = True, target.elts
            else:
                unpacked, elements = False, [target]
            bound = binds(stmt.value, unpacked, names)
            for element in elements:
                if isinstance(element, ast.Name):
                    (names.add if bound else names.discard)(element.id)
    return names


class HotPathRule(Rule):
    """REP002: no tuple-edge materialisation or per-edge loops on hot paths."""

    id = "REP002"
    title = "hot-path purity: per-edge Python work in a hot-path module"
    interests = (
        ast.Call,
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    def applies_to(self, logical_path: str) -> bool:
        return _logical(logical_path) in _HOT_PATH_MODULES

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MATERIALISERS
            ):
                yield module.finding(
                    node,
                    self.id,
                    f".{node.func.attr}() materialises a Python object per "
                    "edge; hot paths must stay on the endpoint arrays",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _COPIES
                and len(node.args) == 1
                and self._is_edge_view(node.args[0], self._edge_names(node))
            ):
                yield module.finding(
                    node,
                    self.id,
                    f"{node.func.id}(…edges) materialises the tuple edge "
                    "view; use Network.edge_endpoints() arrays instead",
                )
        elif isinstance(node, ast.For):
            if self._iterates_edges(node.iter, self._edge_names(node)):
                yield module.finding(
                    node,
                    self.id,
                    "per-edge Python for-loop over edges; vectorise over "
                    "edge_endpoints() arrays instead",
                )
        else:  # comprehensions
            names = self._edge_names(node)
            for generator in node.generators:  # type: ignore[union-attr]
                if self._iterates_edges(generator.iter, names):
                    yield module.finding(
                        node,
                        self.id,
                        "per-edge comprehension over edges; vectorise over "
                        "edge_endpoints() arrays instead",
                    )
                    break

    @staticmethod
    def _is_edge_view(node: ast.AST, names: Set[str]) -> bool:
        """``x.edges()`` (networkx), the ``Network.edges`` tuple property, or
        a local name in ``names`` (bound to one of those)."""
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Call):
            node = node.func
        return isinstance(node, ast.Attribute) and node.attr == "edges"

    @classmethod
    def _iterates_edges(cls, node: ast.AST, names: Set[str]) -> bool:
        """An edge view, bare or inside ``enumerate``/``zip``/``reversed``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _WRAPPERS
        ):
            return any(cls._is_edge_view(arg, names) for arg in node.args)
        return cls._is_edge_view(node, names)

    @classmethod
    def _edge_names(cls, node: ast.AST) -> Set[str]:
        """Names whose latest binding before ``node`` is an edge view
        (``pairs = graph.edges()``, or an alias of such a name)."""
        return _names_bound_before(
            node,
            lambda value, unpacked, names: not unpacked
            and cls._is_edge_view(value, names),
        )


# --------------------------------------------------------------------- #
# REP003 — array-algorithm protocol conformance
# --------------------------------------------------------------------- #

_PROTOCOL = ("init_batch", "step_batch", "batch_complete")


class ProtocolRule(Rule):
    """REP003: array-algorithm twins implement the full protocol.

    The engine duck-types (:class:`repro.local.engine.ArrayAlgorithm` is a
    Protocol), so a half-implemented twin only explodes at run time, deep
    in a sweep.  Two conformance checks, both syntactic:

    * the protocol is all-or-nothing: any of
      ``init_batch``/``step_batch``/``batch_complete`` requires all three;
    * a class whose ``as_array_algorithm`` returns an instance of a class
      defined in the same module requires that class to implement all
      three (returning ``None`` — coroutine-only — is always legal).
    """

    id = "REP003"
    title = "protocol conformance: incomplete array-algorithm implementation"

    def applies_to(self, logical_path: str) -> bool:
        return _under(logical_path, ("repro/",))

    def finish(self, module: ModuleSource) -> Iterator[Finding]:
        if module.tree is None:
            return
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            methods = self._methods(cls, classes)
            own = {
                stmt.name
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            present = [name for name in _PROTOCOL if name in methods]
            if present and len(present) < len(_PROTOCOL):
                missing = sorted(set(_PROTOCOL) - set(present))
                yield module.finding(
                    cls,
                    self.id,
                    f"class {cls.name} defines {'/'.join(present)} but "
                    f"not {'/'.join(missing)}; the array protocol is "
                    "all-or-nothing",
                )
            if "as_array_algorithm" in own:
                yield from self._check_advertisement(cls, classes, module)

    def _check_advertisement(
        self,
        cls: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        module: ModuleSource,
    ) -> Iterator[Finding]:
        advert = next(
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "as_array_algorithm"
        )
        for node in ast.walk(advert):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Constant) and value.value is None:
                continue  # coroutine-only algorithms opt out with None
            target: Optional[str] = None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                target = value.func.id
            elif isinstance(value, ast.Name):
                target = value.id
            if target is None or target not in classes:
                continue  # imported twin — out of this module's sight
            twin_methods = self._methods(classes[target], classes)
            missing = sorted(set(_PROTOCOL) - twin_methods)
            if missing:
                yield module.finding(
                    node,
                    self.id,
                    f"{cls.name}.as_array_algorithm() advertises {target}, "
                    f"which lacks {'/'.join(missing)}",
                )

    @staticmethod
    def _methods(
        cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]
    ) -> Set[str]:
        """Method names of ``cls`` including same-module base classes."""
        names: Set[str] = set()
        seen: Set[str] = set()
        stack: List[ast.ClassDef] = [cls]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            for stmt in current.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
            for base in current.bases:
                if isinstance(base, ast.Name) and base.id in classes:
                    stack.append(classes[base.id])
        return names


# --------------------------------------------------------------------- #
# REP004 — schema literals
# --------------------------------------------------------------------- #

_SCHEMA_LITERAL = re.compile(r"[a-z][a-z0-9_-]*/v[0-9]+")

#: The one module allowed to spell schema strings out.
_SCHEMAS_MODULE = "repro/core/schemas.py"


class SchemaLiteralRule(Rule):
    """REP004: ``name/vN`` schema strings live only in repro.core.schemas."""

    id = "REP004"
    title = "schema literal outside repro.core.schemas"
    interests = (ast.Constant,)

    def applies_to(self, logical_path: str) -> bool:
        return (
            _under(logical_path, ("repro/",))
            and _logical(logical_path) != _SCHEMAS_MODULE
        )

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
            return
        if not _SCHEMA_LITERAL.fullmatch(node.value):
            return
        if is_docstring(node):
            return
        yield module.finding(
            node,
            self.id,
            f"schema literal {node.value!r} must come from repro.core.schemas "
            "so readers and writers can never drift",
        )


# --------------------------------------------------------------------- #
# REP005 — resource hygiene
# --------------------------------------------------------------------- #

_RESOURCE_SCOPE = ("repro/service/", "repro/analysis/")


class ResourceRule(Rule):
    """REP005: sqlite/SharedMemory/file handles are closed on all paths.

    Flow-insensitive approximation of "closed on all paths": a risky
    acquisition is clean when it is (a) the context expression of a
    ``with``, (b) assigned to ``self.X`` on a class that defines ``close``
    or ``__exit__``, or (c) assigned to a local whose ``.close()`` /
    ``.unlink()`` runs inside a ``finally`` block or ``except`` handler of
    the same function.  Ownership transfers (returning the live handle)
    need an ``allow`` comment naming the releasing site.
    """

    id = "REP005"
    title = "resource hygiene: handle not provably closed on all paths"
    interests = (ast.Call,)

    def applies_to(self, logical_path: str) -> bool:
        return _under(logical_path, _RESOURCE_SCOPE)

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        resource = self._resource_kind(node)
        if resource is None:
            return
        parent = parent_of(node)
        if isinstance(parent, ast.withitem) and parent.context_expr is node:
            return
        while isinstance(parent, ast.IfExp):  # x = a if cond else open(...)
            parent = parent_of(parent)
        if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls = enclosing_class(node)
                    if cls is not None and self._has_releaser(cls):
                        return
                    yield module.finding(
                        node,
                        self.id,
                        f"{resource} stored on self in a class without "
                        "close()/__exit__(); the handle outlives every scope "
                        "that could release it",
                    )
                    return
                if isinstance(target, ast.Name):
                    scope = enclosing_function(node) or module.tree
                    if scope is not None and self._cleaned_up(
                        scope, target.id
                    ):
                        return
                    yield module.finding(
                        node,
                        self.id,
                        f"{resource} assigned to {target.id!r} with no "
                        ".close()/.unlink() in a finally/except of this "
                        "function; an error path leaks the handle",
                    )
                    return
            return
        yield module.finding(
            node,
            self.id,
            f"{resource} acquired without a with-statement or owning "
            "variable; nothing can close it on an error path",
        )

    @staticmethod
    def _resource_kind(node: ast.Call) -> Optional[str]:
        name = dotted_name(node.func)
        if name == "sqlite3.connect":
            return "sqlite3.connect()"
        if name is not None and name.split(".")[-1] == "SharedMemory":
            return "SharedMemory()"
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return "open()"
        return None

    @staticmethod
    def _has_releaser(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in {"close", "__exit__", "__del__"}
            for stmt in cls.body
        )

    @staticmethod
    def _cleaned_up(scope: ast.AST, name: str) -> bool:
        """Whether ``name`` is entered as a ``with`` context or has
        ``.close()``/``.unlink()`` run in a finally/except."""
        for with_node in ast.walk(scope):
            if isinstance(with_node, (ast.With, ast.AsyncWith)) and any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id == name
                for item in with_node.items
            ):
                return True
        for try_node in ast.walk(scope):
            if not isinstance(try_node, ast.Try):
                continue
            regions: List[ast.AST] = list(try_node.finalbody)
            for handler in try_node.handlers:
                regions.extend(handler.body)
            for region in regions:
                for sub in ast.walk(region):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in {"close", "unlink"}
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == name
                    ):
                        return True
        return False


# --------------------------------------------------------------------- #
# REP006 — error taxonomy
# --------------------------------------------------------------------- #


class ErrorTaxonomyRule(Rule):
    """REP006: runtime failures raise repro.core.errors kinds, not
    ``raise Exception``/``assert``."""

    id = "REP006"
    title = "error taxonomy: bare Exception/assert for a runtime failure"
    interests = (ast.Raise, ast.Assert)

    def applies_to(self, logical_path: str) -> bool:
        return _under(logical_path, ("repro/",))

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if isinstance(node, ast.Raise):
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(target, ast.Name) and target.id in {
                "Exception",
                "BaseException",
            }:
                yield module.finding(
                    node,
                    self.id,
                    f"raise {target.id} defeats classify_failure()'s "
                    "structured failure rows; raise a repro.core.errors kind "
                    "(or at least a typed exception)",
                )
        elif isinstance(node, ast.Assert):
            yield module.finding(
                node,
                self.id,
                "assert vanishes under python -O and raises an untyped "
                "AssertionError; raise a repro.core.errors kind (or "
                "ValidationFailed) for runtime failures",
            )


# --------------------------------------------------------------------- #
# REP007 — buffered out=
# --------------------------------------------------------------------- #

#: ``take`` modes under which numpy writes straight into ``out``; with
#: ``mode="raise"`` (the default, and the only mode ``compress`` has) it
#: fills a temporary and copies it into ``out`` afterwards.
_UNBUFFERED_TAKE_MODES = {"clip", "wrap"}


def _is_endpoints_call(node: ast.AST) -> bool:
    """``<x>.edge_endpoints()``: the network's read-only endpoint arrays."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "edge_endpoints"
    )


def _binds_an_endpoint_array(value: ast.AST, unpacked: bool, names: Set[str]) -> bool:
    """``us, vs = <x>.edge_endpoints()`` or ``us = <x>.edge_endpoints()[k]``."""
    if unpacked:
        return _is_endpoints_call(value)
    return isinstance(value, ast.Subscript) and _is_endpoints_call(value.value)


class BufferedOutRule(Rule):
    """REP007: no ``compress``/``take`` output that numpy buffers anyway,
    and no ``take`` through a read-only index array, which numpy copies."""

    id = "REP007"
    title = "buffered out=: compress/take fills a temporary, then copies it"
    interests = (ast.Call,)

    def applies_to(self, logical_path: str) -> bool:
        return _logical(logical_path) in _HOT_PATH_MODULES

    def visit(self, node: ast.AST, module: ModuleSource) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("compress", "take"):
            return
        # np.take(a, indices, axis, out, mode) / a.take(indices, axis, out,
        # mode): the module form has the array as one extra leading argument.
        shift = 1 if dotted_name(func.value) in ("np", "numpy") else 0
        if func.attr == "take" and self._read_only_index(
            self._argument(node, "indices", shift), node
        ):
            yield module.finding(
                node,
                self.id,
                "take() through the network's read-only edge_endpoints() "
                "copies the index array first; gather through a writable "
                "copy made once",
            )
        out = self._argument(node, "out", 2 + shift)
        if out is None or (isinstance(out, ast.Constant) and out.value is None):
            return
        if func.attr == "compress":
            yield module.finding(
                node,
                self.id,
                "compress(out=...) always buffers its output (mode='raise'); "
                "use np.flatnonzero plus np.take(..., mode='clip', out=...)",
            )
            return
        mode = self._argument(node, "mode", 3 + shift)
        if isinstance(mode, ast.Constant) and mode.value in _UNBUFFERED_TAKE_MODES:
            return
        yield module.finding(
            node,
            self.id,
            "take(out=...) without mode='clip' or 'wrap' fills a temporary "
            "and copies it into out; pass mode='clip' for in-range indices",
        )

    @staticmethod
    def _read_only_index(indices: Optional[ast.AST], node: ast.AST) -> bool:
        """``<x>.edge_endpoints()[k]``, or a name whose latest binding
        unpacked or subscripted ``<x>.edge_endpoints()``."""
        if isinstance(indices, ast.Subscript):
            return _is_endpoints_call(indices.value)
        return isinstance(indices, ast.Name) and indices.id in _names_bound_before(
            node, _binds_an_endpoint_array
        )

    @staticmethod
    def _argument(node: ast.Call, name: str, position: int) -> Optional[ast.AST]:
        """The expression passed as ``name``, by keyword or at ``position``."""
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        if position < len(node.args):
            return node.args[position]
        return None


DEFAULT_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    HotPathRule(),
    ProtocolRule(),
    SchemaLiteralRule(),
    ResourceRule(),
    ErrorTaxonomyRule(),
    BufferedOutRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    """The default-suite rule with ``rule_id`` (KeyError when unknown)."""
    for rule in DEFAULT_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)
