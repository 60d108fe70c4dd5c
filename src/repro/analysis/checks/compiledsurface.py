"""REP015 — compiled-surface purity for the engine allowlist.

The simulation hot core (``simmachine/engine.py``, ``memory.py``,
``network.py`` and ``simmpi/comm.py``) is eligible for ahead-of-time
compilation: the C engine mirrors ``engine.py`` class for class, and the
other three are kept fit for the same treatment.  Compiled modules
resolve attributes at build time, so the dynamics CPython happily
tolerates become silent divergence there:

* a module-level ``__getattr__`` intercepts lookups the compiled module
  resolves statically — the hook simply never fires after compilation;
* mutating ``globals()`` rebinds names the compiled code already closed
  over, so interpreted and compiled runs read different objects;
* monkeypatch-style attribute assignment on a class defined in the module
  (``Simulator.step = fast_step`` / ``setattr(Event, ...)``) does not
  affect compiled method calls, which bypass the class dict.

Any of these would make the pure and compiled backends drift apart while
both "work", defeating the bit-identity contract the backend matrix
tests pin.  So the surface is kept statically resolvable, structurally,
like REP009 keeps it observability-free.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import FileContext, Rule, register

__all__ = ["CompiledSurfaceRule"]

#: Files eligible for compilation, keyed by the package directory that
#: must appear somewhere on their path.
SIMMACHINE_FILES = frozenset({"engine.py", "memory.py", "network.py"})
SIMMPI_FILES = frozenset({"comm.py"})

#: ``globals().<method>(...)`` calls that mutate the module namespace.
_GLOBALS_MUTATORS = frozenset(
    {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}
)


def on_compiled_surface(path: str) -> bool:
    parts = path.split("/")
    name = parts[-1]
    if name in SIMMACHINE_FILES:
        return "simmachine" in parts[:-1]
    if name in SIMMPI_FILES:
        return "simmpi" in parts[:-1]
    return False


def _is_globals_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "globals"
        and not node.args
        and not node.keywords
    )


@register
class CompiledSurfaceRule(Rule):
    rule_id = "REP015"
    name = "compiled-surface"
    description = (
        "modules on the compiled-engine allowlist (simmachine/engine.py, "
        "memory.py, network.py, simmpi/comm.py) must stay statically "
        "resolvable: no module-level __getattr__, no globals() mutation, "
        "no monkeypatch-style attribute assignment on their classes"
    )
    node_types = (
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.Assign,
        ast.AnnAssign,
        ast.AugAssign,
        ast.Delete,
        ast.Call,
    )

    def __init__(self) -> None:
        self._classes: set[str] = set()

    def applies_to(self, path: str) -> bool:
        return on_compiled_surface(path)

    def start_file(self, ctx: FileContext) -> None:
        self._classes = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.ClassDef)
        }

    def _at_module_level(self, ctx: FileContext) -> bool:
        return not any(
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            for node in ctx.ancestors
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__getattr__" and self._at_module_level(ctx):
                ctx.report(
                    self, node,
                    "module-level __getattr__ on the compiled surface; "
                    "compiled modules resolve attributes at build time and "
                    "never call the hook — export names statically",
                )
            return

        if isinstance(node, ast.Call):
            self._check_call(node, ctx)
            return

        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_globals_call(
                    target.value
                ):
                    ctx.report(
                        self, node,
                        "del through globals() on the compiled surface; "
                        "compiled code closes over module globals at build "
                        "time, so namespace mutation silently diverges",
                    )
            return

        # Assign / AnnAssign / AugAssign
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        for target in targets:
            self._check_bind_target(target, node, ctx)

    def _check_bind_target(
        self, target: ast.AST, node: ast.AST, ctx: FileContext
    ) -> None:
        if isinstance(target, ast.Subscript) and _is_globals_call(
            target.value
        ):
            ctx.report(
                self, node,
                "assignment through globals() on the compiled surface; "
                "compiled code closes over module globals at build time, "
                "so namespace mutation silently diverges",
            )
            return
        if (
            isinstance(target, ast.Name)
            and target.id == "__getattr__"
            and self._at_module_level(ctx)
        ):
            ctx.report(
                self, node,
                "module-level __getattr__ on the compiled surface; "
                "compiled modules resolve attributes at build time and "
                "never call the hook — export names statically",
            )
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in self._classes
        ):
            ctx.report(
                self, node,
                f"attribute assigned on class {target.value.id} outside "
                "its body; compiled method calls bypass the class dict, "
                "so monkeypatching diverges from the compiled backend",
            )

    def _check_call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and _is_globals_call(func.value)
            and func.attr in _GLOBALS_MUTATORS
        ):
            ctx.report(
                self, node,
                f"globals().{func.attr}(...) on the compiled surface; "
                "compiled code closes over module globals at build time, "
                "so namespace mutation silently diverges",
            )
            return
        if (
            isinstance(func, ast.Name)
            and func.id in ("setattr", "delattr")
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in self._classes
        ):
            ctx.report(
                self, node,
                f"{func.id}() on class {node.args[0].id}; compiled method "
                "calls bypass the class dict, so monkeypatching diverges "
                "from the compiled backend",
            )
