"""The built-in rules: one class per determinism/concurrency discipline.

Each rule documents, in ``guarantee``, the replay invariant it protects
— the linter is the executable form of the contracts scattered through
docstrings (``core/runs.py``'s fsum bracket, the job pools' serial ==
process results, the ledger's grant-for-grant recovery).  Scoping is
by module path: e.g. wall-clock reads are the *product* in
``repro/analysis/`` and ``benchmarks/`` but a replay hazard inside the
deterministic compute packages.

A deliberate exception is annotated in place::

    started = time.perf_counter()  # repro: noqa REP002 -- profiling only

and the justification travels with the waiver (see
:mod:`repro.devtools.suppressions`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .base import Finding, LintContext, Rule, register_rule

__all__ = [
    "UnseededRng",
    "WallClock",
    "UnsortedSetIteration",
    "BuiltinSumOverRates",
    "UnpicklableRegistryEntry",
    "UnfinalizedSharedMemory",
    "WorkerGlobalMutation",
    "OverbroadExcept",
]

#: Deterministic compute packages: everything whose outputs are pinned
#: bit-identical across serial/thread/process replay.  ``analysis``,
#: ``experiments``, ``benchmarks`` and the CLI may read clocks — they
#: *measure* — so they are deliberately outside this list.
_DETERMINISTIC_PACKAGES = (
    "repro/core/",
    "repro/algorithms/",
    "repro/flows/",
    "repro/planning/",
    "repro/simulation/",
    "repro/estimation/",
    "repro/instances/",
    "repro/runtime/",
    "repro/sessions/",
    "repro/service/",
)

#: Name-keyed factory registries whose entries cross process boundaries
#: inside picklable job specs (spawned by name in workers).
_REGISTRIES = frozenset({
    "CONTROLLERS", "PLANNERS", "BROKERS", "ADMISSIONS", "BACKENDS",
    "SCENARIOS", "REQUESTS", "DISTRIBUTIONS", "RULES",
})


@register_rule
class MetaRule(Rule):
    """Runner-emitted diagnostics: unused suppressions, unparsable files.

    Never yields findings itself — the runner raises REP000 when a
    ``# repro: noqa`` waiver matched no finding (stale waivers must rot
    out, not lie armed) or when a file cannot be parsed at all.  REP000
    cannot be suppressed.
    """

    code = "REP000"
    name = "lint-meta"
    summary = "unused suppression or unparsable file (runner-emitted)"
    guarantee = ("the lint gate itself: every waiver is live and every "
                 "file is actually analyzed")
    include: Optional[Tuple[str, ...]] = None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())


@register_rule
class UnseededRng(Rule):
    """REP001 — module-level / unseeded RNG in deterministic code.

    ``np.random.rand`` & friends draw from the process-global
    ``RandomState``; ``random.random`` from the module singleton; a
    ``default_rng()`` / ``random.Random()`` with no arguments seeds from
    OS entropy.  All three make a run unreproducible and break
    serial == thread == process bit-identity (workers would observe
    different global streams).  The discipline: construct
    ``random.Random(seed)`` / ``np.random.default_rng(seed)`` at the
    boundary and thread the generator through.
    """

    code = "REP001"
    name = "unseeded-rng"
    summary = "module-level or unseeded RNG (np.random.*, random.random, default_rng())"
    guarantee = "seed-reproducible runs; serial == thread == process bit-identity"
    include = ("repro/",)

    _STDLIB_SAMPLERS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "lognormvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "triangular", "getrandbits",
        "randbytes", "seed", "binomialvariate",
    })
    #: numpy.random constructors that are fine *with* a seed argument
    _NP_CONSTRUCTORS = frozenset({
        "default_rng", "Generator", "SeedSequence", "RandomState",
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified_name(node.func)
            if qual is None:
                continue
            if qual.startswith("numpy.random."):
                attr = qual.rsplit(".", 1)[1]
                if attr in self._NP_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield ctx.finding(
                            node, self.code,
                            f"{attr}() without a seed draws from OS "
                            f"entropy — pass an explicit seed",
                        )
                else:
                    yield ctx.finding(
                        node, self.code,
                        f"np.random.{attr}() uses the process-global "
                        f"RandomState — construct np.random.default_rng("
                        f"seed) and thread it through",
                    )
            elif qual == "random.Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        node, self.code,
                        "random.Random() without a seed draws from OS "
                        "entropy — pass an explicit seed",
                    )
            elif (
                qual.startswith("random.")
                and qual.count(".") == 1
                and qual.rsplit(".", 1)[1] in self._STDLIB_SAMPLERS
            ):
                attr = qual.rsplit(".", 1)[1]
                yield ctx.finding(
                    node, self.code,
                    f"random.{attr}() uses the module-global RNG — "
                    f"construct random.Random(seed) and thread it through",
                )


@register_rule
class WallClock(Rule):
    """REP002 — wall-clock reads inside deterministic compute modules.

    A clock read that leaks into any decision (cache eviction, epoch
    boundary, tie-break) makes replay diverge run-to-run.  Timing is
    the *product* in ``repro/analysis/``, ``repro/experiments/`` and
    ``benchmarks/`` — those paths are outside this rule's scope.
    Inside the deterministic packages, profiling-only reads carry a
    ``# repro: noqa REP002 -- ...`` justification stating that the
    value feeds telemetry, never control flow.
    """

    code = "REP002"
    name = "wall-clock"
    summary = "wall-clock read (time.time/perf_counter/datetime.now) in deterministic module"
    guarantee = "replayed runs take identical decisions regardless of host speed"
    include = _DETERMINISTIC_PACKAGES

    _CLOCKS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified_name(node.func)
            if qual in self._CLOCKS:
                yield ctx.finding(
                    node, self.code,
                    f"{qual}() read inside a deterministic compute module "
                    f"— wall time must never feed replayed decisions "
                    f"(suppress with a justification if telemetry-only)",
                )


class _SetProvenance(ast.NodeVisitor):
    """Track names bound to set values inside one scope (no recursion
    into nested function scopes — each gets its own pass)."""

    def __init__(self, ctx: LintContext, scope: ast.AST):
        self.ctx = ctx
        self.scope = scope
        self.set_names: Set[str] = set()
        # annotated parameters: `failed: set[int]` counts as set-valued
        args = getattr(scope, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                ann = arg.annotation
                if ann is not None and re.search(
                    r"\b(set|frozenset|Set|FrozenSet|AbstractSet)\b",
                    ast.unparse(ann),
                ):
                    self.set_names.add(arg.arg)

    def is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference", "copy",
            ):
                return self.is_setish(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_setish(node.left) or self.is_setish(node.right)
        return False

    def learn(self, stmt: ast.stmt) -> None:
        """Update name provenance from one assignment statement."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if self.is_setish(stmt.value):
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.value is not None and self.is_setish(stmt.value):
                self.set_names.add(stmt.target.id)


@register_rule
class UnsortedSetIteration(Rule):
    """REP003 — iterating a set into ordered work without ``sorted()``.

    Set iteration order is a function of hash values and insertion
    history; for str keys it changes per process (hash randomization),
    and even for ints it shifts with resize history.  Any float
    accumulation, list/table construction, or emitted output fed from a
    raw set iteration can differ between the serial path and a
    process-pool replay.  The discipline (followed everywhere from
    ``planning/batching.py`` to ``estimation/online.py``): ``sorted()``
    before ordered consumption.  Set *comprehensions* over sets are
    exempt — an unordered result cannot leak order.

    Dict iteration is insertion-ordered in CPython and therefore not
    flagged: the hazard there is nondeterministic *insertion*, which is
    what this rule catches at the set that usually feeds it.
    """

    code = "REP003"
    name = "unsorted-set-iteration"
    summary = "for-loop/comprehension iterates a set without sorted()"
    guarantee = "ordered outputs and float accumulations are replay-stable"
    include = ("repro/",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            prov = _SetProvenance(ctx, scope)
            body = getattr(scope, "body", [])
            for stmt in body:
                # Nested defs are their own scope pass; skipping them
                # here keeps each statement visited exactly once.
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in self._walk_scope(stmt):
                    if isinstance(node, ast.stmt):
                        prov.learn(node)
                    yield from self._check_node(ctx, prov, node)

    def _walk_scope(self, root: ast.AST) -> Iterator[ast.AST]:
        """Walk without descending into nested function scopes."""
        yield root
        for child in ast.iter_child_nodes(root):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield from self._walk_scope(child)

    def _check_node(
        self, ctx: LintContext, prov: _SetProvenance, node: ast.AST
    ) -> Iterator[Finding]:
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if prov.is_setish(it):
                seg = ctx.segment(it)
                seg = seg if len(seg) <= 40 else seg[:37] + "..."
                yield ctx.finding(
                    it, self.code,
                    f"iteration over set {seg!r} feeds ordered work — "
                    f"wrap in sorted() (set order is hash/insertion "
                    f"dependent)",
                )


#: snake_case identifier parts that mark a float aggregate as a rate
_RATEY_PARTS = frozenset({
    "rate", "rates", "bandwidth", "bandwidths", "bw", "bws", "goodput",
    "goodputs", "grant", "grants", "granted", "throughput", "uplink",
    "upload",
})
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@register_rule
class BuiltinSumOverRates(Rule):
    """REP004 — builtin ``sum()`` over rate/bandwidth aggregates.

    ``core/runs.py`` pins the collapsed-planner bit-identity contract
    on ``math.fsum``: it is correctly rounded, hence independent of
    summation order — the only way a sum over class-collapsed,
    re-sharded, or set-derived operands can equal the per-node serial
    sum to the last bit.  Builtin ``sum`` accumulates left-to-right and
    drifts with operand order.  Any aggregation of rates, bandwidths,
    grants or goodputs must use ``math.fsum``.  Integer counting sums
    (``sum(1 for ...)``, ``sum(e.slots ...)``) are not flagged.
    """

    code = "REP004"
    name = "fsum-discipline"
    summary = "builtin sum() over a rate/bandwidth float aggregate (use math.fsum)"
    guarantee = "rate aggregates are order-independent to the last bit (runs.py contract)"
    include = ("repro/",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and "sum" not in ctx.imports  # shadowed: not the builtin
            ):
                continue
            if self._is_counting(node.args[0]):
                continue
            words = self._context_words(ctx, node)
            if words & _RATEY_PARTS:
                hint = ", ".join(sorted(words & _RATEY_PARTS))
                yield ctx.finding(
                    node, self.code,
                    f"builtin sum() over rate aggregate ({hint}) — use "
                    f"math.fsum for order-independent correctly-rounded "
                    f"accumulation",
                )

    @staticmethod
    def _is_counting(arg: ast.AST) -> bool:
        """``sum(1 for ...)`` / ``sum(len(x) ...)``-style integer counts."""
        elt = getattr(arg, "elt", arg)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
            return True
        if (
            isinstance(elt, ast.Call)
            and isinstance(elt.func, ast.Name)
            and elt.func.id == "len"
        ):
            return True
        return False

    def _context_words(
        self, ctx: LintContext, call: ast.Call
    ) -> Set[str]:
        """Identifier parts inside the call plus its naming context
        (assignment target, keyword name, dict key, enclosing def on a
        bare return) — how ``mean_goodput=sum(values)/len(values)``
        gets caught even though ``values`` itself is anonymous."""
        text = [ctx.segment(call)]
        node: ast.AST = call
        parent = ctx.parents.get(node)
        while parent is not None and not isinstance(parent, ast.stmt):
            if isinstance(parent, ast.keyword) and parent.arg:
                text.append(parent.arg)
            if isinstance(parent, ast.Dict):
                for key, value in zip(parent.keys, parent.values):
                    if value is node and isinstance(key, ast.Constant):
                        text.append(str(key.value))
            node = parent
            parent = ctx.parents.get(node)
        if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                parent.targets if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            text.extend(ast.unparse(t) for t in targets)
        elif isinstance(parent, ast.Return):
            func = ctx.enclosing_function(parent)
            if func is not None:
                text.append(func.name)
        words: Set[str] = set()
        for chunk in text:
            for ident in _IDENT.findall(chunk):
                words.update(part.lower() for part in ident.split("_") if part)
        return words


@register_rule
class UnpicklableRegistryEntry(Rule):
    """REP005 — non-module-level callables in the name registries.

    CONTROLLERS / PLANNERS / BROKERS / ADMISSIONS / BACKENDS entries are
    spawned *by name* inside process-pool workers: the child imports the
    module and looks the name up.  A lambda or a function defined inside
    another function either fails to pickle (when a spec carries the
    callable) or simply does not exist in the child's registry (when
    registration ran only in the parent).  Registry values must be
    module-level ``def``/``class`` objects, registered at import time.
    """

    code = "REP005"
    name = "registry-picklable"
    summary = "lambda/closure/local def registered into CONTROLLERS/PLANNERS/BROKERS/..."
    guarantee = "by-name registry dispatch works identically inside pool workers"
    include = None  # test plugins get flagged too: suppress deliberately

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        module_defs = {
            n.name for n in ctx.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assign(ctx, node, module_defs)
            elif isinstance(node, ast.Call):
                yield from self._check_register_call(ctx, node)

    def _registry_of(self, target: ast.AST) -> Optional[str]:
        """Registry name when ``target`` is ``REG[...]`` or ``REG``."""
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            if target.value.id in _REGISTRIES:
                return target.value.id
        if isinstance(target, ast.Name) and target.id in _REGISTRIES:
            return target.id
        return None

    def _check_assign(
        self,
        ctx: LintContext,
        node: Union[ast.Assign, ast.AnnAssign],
        module_defs: Set[str],
    ) -> Iterator[Finding]:
        # The registries themselves are declared as annotated assigns
        # (``BROKERS: Dict[str, ...] = {...}``), so both forms matter.
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return
            targets: List[ast.AST] = [node.target]
        else:
            targets = list(node.targets)
        for target in targets:
            registry = self._registry_of(target)
            if registry is None:
                continue
            values: List[ast.AST]
            if isinstance(target, ast.Name) and isinstance(
                node.value, ast.Dict
            ):
                values = list(node.value.values)
            else:
                values = [node.value]
            in_function = ctx.enclosing_function(node)
            # A registration *helper* assigning its own parameter
            # (``RULES[cls.code] = cls`` inside register_rule) is the
            # sanctioned idiom: the hazard lives at the call site, which
            # _check_register_call covers.
            params: Set[str] = set()
            if in_function is not None:
                args = in_function.args
                params = {
                    a.arg
                    for a in (
                        list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)
                    )
                }
            for value in values:
                if isinstance(value, ast.Lambda):
                    yield ctx.finding(
                        value, self.code,
                        f"lambda registered into {registry} — lambdas "
                        f"never pickle into pool job specs; use a "
                        f"module-level def",
                    )
                elif (
                    in_function is not None
                    and isinstance(value, ast.Name)
                    and value.id not in module_defs
                    and value.id not in ctx.imports
                    and value.id not in params
                ):
                    yield ctx.finding(
                        value, self.code,
                        f"{value.id!r} registered into {registry} from "
                        f"inside {in_function.name}() — a local/closure "
                        f"callable does not exist in pool workers; "
                        f"register a module-level def at import time",
                    )

    def _check_register_call(
        self, ctx: LintContext, node: ast.Call
    ) -> Iterator[Finding]:
        func_name = ""
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if not func_name.startswith("register"):
            return
        enclosing = ctx.enclosing_function(node)
        local_defs: Set[str] = set()
        if enclosing is not None:
            local_defs = {
                n.name for n in ast.walk(enclosing)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and n is not enclosing
            }
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                yield ctx.finding(
                    arg, self.code,
                    f"lambda passed to {func_name}() — registry entries "
                    f"must be module-level callables",
                )
            elif isinstance(arg, ast.Name) and arg.id in local_defs:
                yield ctx.finding(
                    arg, self.code,
                    f"locally-defined {arg.id!r} passed to {func_name}() "
                    f"— does not exist in pool workers; move it to "
                    f"module level",
                )


@register_rule
class UnfinalizedSharedMemory(Rule):
    """REP006 — ``SharedMemory`` without visible teardown.

    A created segment outlives the process unless someone calls
    ``close()``/``unlink()``; the discipline pairs creation with a
    ``weakref.finalize`` that closes *and* unlinks.  The check is
    module-scoped: creation in one helper with the finalizer installed
    by its caller is fine, a module that creates segments and never
    tears any down is not.
    """

    code = "REP006"
    name = "shared-memory-finalize"
    summary = "SharedMemory created without close/unlink/weakref.finalize in module"
    guarantee = "no leaked /dev/shm segments across runs and test processes"
    include = None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified_name(node.func)
            if qual != "multiprocessing.shared_memory.SharedMemory":
                continue
            func = ctx.enclosing_function(node)
            scope_src = ctx.segment(func) if func is not None else ""
            if self._has_teardown(scope_src) or self._has_teardown(
                ctx.source
            ):
                continue
            yield ctx.finding(
                node, self.code,
                "SharedMemory created but no close()/unlink()/"
                "weakref.finalize teardown is visible in this module — "
                "leaked segments persist in /dev/shm",
            )

    @staticmethod
    def _has_teardown(source: str) -> bool:
        return bool(re.search(r"\.close\(|\.unlink\(|finalize\(", source))


@register_rule
class WorkerGlobalMutation(Rule):
    """REP007 — pool-dispatched functions mutating module-level state.

    A function submitted to an executor runs in a thread (shared
    globals, racy) or a forked/spawned process (copied globals, parent
    never sees the write).  Either way, mutating module-level mutable
    state from a pool target silently diverges from the serial path.
    State crossing a pool boundary must be passed explicitly (args /
    return values) or live behind an explicitly fork-shared mechanism
    (``multiprocessing.shared_memory`` + a registry populated *before*
    the fork — with a suppression on any deliberate exception).
    """

    code = "REP007"
    name = "worker-global-mutation"
    summary = "pool-dispatched function mutates module-level mutable state"
    guarantee = "serial == thread == process: workers leak no hidden state"
    include = None

    _DISPATCH_ATTRS = frozenset({
        "submit", "map", "imap", "imap_unordered", "starmap", "map_async",
        "apply_async",
    })
    _MUTATORS = frozenset({
        "append", "add", "update", "pop", "popitem", "clear", "extend",
        "remove", "insert", "setdefault", "discard",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        mutables = {
            t.id
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name) and self._is_mutable(stmt.value)
        }
        if not mutables:
            return
        targets = self._pool_targets(ctx)
        for stmt in ctx.tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in targets
            ):
                yield from self._check_body(ctx, stmt, mutables)
        for lam in targets_lambdas(ctx, self._DISPATCH_ATTRS):
            yield from self._check_body(ctx, lam, mutables)

    @staticmethod
    def _is_mutable(value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in (
                "dict", "list", "set", "defaultdict", "OrderedDict",
                "Counter", "deque",
            )
        )

    def _pool_targets(self, ctx: LintContext) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._DISPATCH_ATTRS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                names.add(node.args[0].id)
        return names

    def _check_body(
        self, ctx: LintContext, func: ast.AST, mutables: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            name: Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    root = self._subscript_root(t)
                    if root in mutables:
                        name = root
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    root = self._subscript_root(t)
                    if root in mutables:
                        name = root
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                root = self._name_root(node.func.value)
                if root in mutables:
                    name = root
            if name is not None:
                label = getattr(func, "name", "<lambda>")
                yield ctx.finding(
                    node, self.code,
                    f"{label}() is dispatched to a worker pool but "
                    f"mutates module-level {name!r} — the write is racy "
                    f"in threads and invisible to the parent in "
                    f"processes; pass state explicitly",
                )

    @staticmethod
    def _subscript_root(node: ast.AST) -> Optional[str]:
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    @staticmethod
    def _name_root(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None


def targets_lambdas(
    ctx: LintContext, dispatch_attrs: frozenset
) -> List[ast.Lambda]:
    """Lambdas passed directly as pool targets (``pool.map(lambda ...)``)."""
    out: List[ast.Lambda] = []
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in dispatch_attrs
            and node.args
            and isinstance(node.args[0], ast.Lambda)
        ):
            out.append(node.args[0])
    return out


@register_rule
class OverbroadExcept(Rule):
    """REP008 — bare/overbroad ``except`` in ledger, recovery, and
    plan-validation paths.

    ``ControlPlane.recover`` must raise on the first diverging grant —
    an ``except Exception`` around replay turns a detected divergence
    into silent corruption; the same goes for plan validation and
    ledger append paths.  Catch the specific exceptions the contract
    names (``OSError``, ``ValueError``, ``json.JSONDecodeError``, ...)
    and let everything else surface.
    """

    code = "REP008"
    name = "overbroad-except"
    summary = "bare or except-Exception in ledger/recovery/plan-validation paths"
    guarantee = "replay divergence and validation failures raise, never vanish"
    include = ("repro/service/", "repro/planning/", "repro/core/scheme.py")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    node, self.code,
                    "bare except in a replay-critical path swallows "
                    "divergence — name the exceptions the contract "
                    "allows",
                )
                continue
            names = (
                node.type.elts if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for name in names:
                if (
                    isinstance(name, ast.Name)
                    and name.id in ("Exception", "BaseException")
                ):
                    yield ctx.finding(
                        node, self.code,
                        f"except {name.id} in a replay-critical path "
                        f"swallows divergence — name the exceptions the "
                        f"contract allows",
                    )
