"""Per-layer call counts and times, gathered by wrapping module attributes.

Each wrapped function is replaced at the module attribute its caller looks
it up in (``cologic.engine.unify_atoms`` for the engine's calls,
``cologic.cli.ind_semantics`` for the command line's, ...). A wrapper
keeps no record per call: it adds its count, inclusive time and self time
to one row per (parent span, span) pair, where the parent is the nearest
enclosing wrapped call. Self time is inclusive time minus the inclusive
time of wrapped calls made inside it.

``engine`` is the time spent inside ``next()`` on a ``solve`` iterator; its
self time is the resolver's own loop and generator nesting. Head
unifications are told apart from hypothesis re-unifications by identity:
a head unification's second argument is the head of the clause that
``fresh_rename`` returned last.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

HARNESS = "harness"
HEAD = "engine.head"

# (module, attribute, span name); the same span name may be installed at
# several modules when more than one caller looks the function up.
FUNCTIONS = (
    ("cologic", "parse_program", "parser"),
    ("cologic", "parse_query", "parser"),
    ("cologic.cli", "parse_program", "parser"),
    ("cologic.cli", "parse_query", "parser"),
    ("cologic.engine", "fresh_rename", "terms.fresh_rename"),
    ("cologic.engine", "unify_atoms", "unify.unify_atoms"),
    ("cologic.engine", "extract_answer", "unify.extract_answer"),
    ("cologic.engine", "hyp_lookup", "engine.hyp_lookup"),
    ("cologic.engine", "eval_builtin", "engine.eval_builtin"),
    ("cologic.engine", "is_builtin", "engine.is_builtin"),
    ("cologic.cli", "format_answer", "cli.format_answer"),
    ("cologic.cli", "universe_for", "oracle.universe_for"),
    ("cologic.cli", "ind_semantics", "oracle.ind_semantics"),
    ("cologic.cli", "coind_semantics", "oracle.coind_semantics"),
    ("cologic.cli", "generated_semantics", "oracle.generated_semantics"),
    ("cologic.oracle", "ind_semantics", "oracle.ind_semantics"),
    ("cologic.oracle", "ground_instances", "oracle.ground_instances"),
    ("cologic.oracle", "op_step", "oracle.op_step"),
    ("cologic.oracle", "herbrand_base", "oracle.herbrand_base"),
)
METHODS = (("cologic.engine", "LfpCounts", "lookup", "engine.lfp_lookup"),)
GENERATORS = (("cologic", "solve", "engine"),)


def _row() -> list:
    return [0, 0.0, 0.0, 0]  # calls, inclusive_s, self_s, truthy results


class Tracer:
    """Aggregates spans per query; :meth:`end_query` folds a query into the totals."""

    def __init__(self):
        self._rows: dict[tuple[str, str], list] = defaultdict(_row)  # current query
        self.rows: dict[tuple[str, str], list] = defaultdict(_row)  # all finished queries
        self.per_query: list[dict[tuple[str, str], int]] = []  # call counts of each query
        self.parser_bytes = 0
        self._names = [HARNESS]
        self._child = [0.0]
        self._last_head = None
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping

    def _enter(self, name: str) -> float:
        self._names.append(name)
        self._child.append(0.0)
        return perf_counter()

    def _leave(self, start: float, truthy: bool, parent_override: str | None = None) -> None:
        elapsed = perf_counter() - start
        child = self._child.pop()
        name = self._names.pop()
        parent = parent_override or self._names[-1]
        row = self._rows[(parent, name)]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - child
        row[3] += truthy
        self._child[-1] += elapsed

    # -- wrappers

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._leave
        if name == "unify.unify_atoms":

            def unify_wrapper(a, b, store):
                override = HEAD if (b is self._last_head and self._names[-1] == "engine") else None
                start = enter(name)
                ok = False
                try:
                    ok = fn(a, b, store)
                    return ok
                finally:
                    leave(start, ok, override)

            return unify_wrapper
        if name == "terms.fresh_rename":

            def rename_wrapper(clause, source):
                start = enter(name)
                try:
                    renamed = fn(clause, source)
                    self._last_head = renamed.head
                    return renamed
                finally:
                    leave(start, True)

            return rename_wrapper
        if name == "parser":

            def parse_wrapper(src, *args, **kwargs):
                self.parser_bytes += len(getattr(src, "text", src).encode("utf-8"))
                start = enter(name)
                try:
                    return fn(src, *args, **kwargs)
                finally:
                    leave(start, True)

            return parse_wrapper

        def wrapper(*args, **kwargs):
            start = enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(start, bool(result))

        return wrapper

    def _wrap_generator(self, fn, name: str):
        enter, leave = self._enter, self._leave

        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(start, True)
                yield item

        return generator_wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for module, attr, name in FUNCTIONS:
            owner = importlib.import_module(module)
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name))
        for module, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name))
        for module, attr, name in GENERATORS:
            owner = importlib.import_module(module)
            self._replace(owner, attr, self._wrap_generator(getattr(owner, attr), name))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        if self._rows:
            self.end_query()

    def end_query(self) -> None:
        self.per_query.append({key: row[0] for key, row in self._rows.items()})
        for key, row in self._rows.items():
            total = self.rows[key]
            for i, value in enumerate(row):
                total[i] += value
        self._rows.clear()
        # No span is open between queries. A RecursionError can strike a
        # wrapper's own bookkeeping while the stack unwinds; start clean.
        self._names, self._child = [HARNESS], [0.0]

    # -- reading the totals

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(r[0] for (p, n), r in self.rows.items() if n == name and parent in (None, p))

    def total(self, name: str, column: int, parent: str | None = None):
        return sum(r[column] for (p, n), r in self.rows.items() if n == name and parent in (None, p))

    def self_s(self, name: str, parent: str | None = None) -> float:
        return self.total(name, 2, parent)

    def breakdown(self) -> list[tuple[str, str, int, float, float]]:
        """Rows sorted by self time: (parent, name, calls, self_s, share of all self time)."""
        total = sum(r[2] for r in self.rows.values()) or 1.0
        out = [(p, n, r[0], r[2], r[2] / total) for (p, n), r in self.rows.items()]
        return sorted(out, key=lambda row: -row[3])


class MissingLayer(RuntimeError):
    """A layer the workload must exercise recorded no calls under the tracer."""


def check_required(tracer: Tracer, required: tuple[tuple[str, str | None], ...]) -> None:
    """Raise unless every ``(span, parent)`` pair (parent ``None``: any) has calls."""
    missing = [
        f"{name} under {parent}" if parent else name
        for name, parent in required
        if tracer.calls(name, parent) == 0
    ]
    if missing:
        raise MissingLayer(
            "wrapped layers recorded zero calls: " + ", ".join(missing)
            + "; the code under test no longer calls them through the wrapped module attribute"
        )
