"""Secflow pass: statically verify the core-gap isolation contract.

The runtime auditor (``repro.security.audit``) proves, per simulated
schedule, that no two distrusting domains shared core-local state.
This pass proves the *code* can't quietly build such sharing in the
first place, using the declarative tables in
``[tool.repro.lint.domains]`` (:mod:`repro.lint.domains`):

* **SEC001** — direct attribute access (load, store, or method call)
  on another domain's tagged state outside a sanctioned crossing.
  Receivers are resolved best-effort but *precisely*: imported
  symbols/modules, names with cross-domain type annotations, and
  locals assigned from a cross-domain constructor.  Anything the pass
  cannot resolve statically is left to the runtime auditor — a
  finding here is always a real cross-domain touch.
* **SEC002** — a core-local µarch structure in ``repro.hw`` (any class
  exposing the auditor's ``domains_present`` duck type) missing from
  the ``structures`` declaration table: undeclared structures are
  invisible to both this pass and DESIGN.md's Table 1 mapping.
* **SEC003** — a closure/callback handed to an engine registration
  sink (``schedule``, ``spawn``, ``call_soon``, ``add_waiter``, ...)
  that captures a cross-domain object: the callback will run later,
  in whatever domain context the engine happens to be dispatching,
  with a live reference across the boundary.
* **SEC004** — a public package ``__init__`` re-exporting (via
  ``__all__``) a symbol whose *defining* module belongs to another
  domain — laundering a domain-private name through a public surface.
  Re-export chains are chased transitively across the linted tree, so
  an intermediate shim module does not hide the origin (tree-level:
  see :func:`check_reexports`).

Sanctioned crossings are exactly the audited surfaces: symbols of a
``crossing-surfaces`` module (RMI, RPC ports, SMC) may be touched from
anywhere, and ``crossing-roots`` modules (experiment harnesses, the
security auditor itself) may touch anything.  Files outside the
``repro`` package (benchmarks, tests, examples) are composition roots
by nature and are skipped.
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Dict, List, Optional, Set, Tuple

from .contract import LintContract
from .domains import SHARED, DomainContract
from .findings import Finding, SourceFile
from .layering import _resolve_relative

__all__ = ["check_secflow", "extract_facts", "check_reexports"]

#: engine/event registration methods that defer a callable (SEC003)
_CALLBACK_SINKS = {
    "schedule",
    "call_soon",
    "spawn",
    "add_waiter",
    "subscribe",
    "register",
    "register_callback",
}

_BUILTIN_NAMES = frozenset(dir(builtins))

#: CONSTANT_CASE imports (VTIMER_VIRQ, HOST_KICK_SGI, ...) are immutable
#: ABI values shared by construction, not live domain state — touching
#: or capturing one crosses no boundary
_CONSTANT_NAME = re.compile(r"^[A-Z][A-Z0-9_]*$")


def _dotted(node: ast.AST) -> Optional[str]:
    """Reconstruct ``a.b.c`` from an attribute/name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


class _ImportMap:
    """Local alias -> absolute dotted origin, relative imports included."""

    def __init__(self, source: SourceFile):
        self.aliases: Dict[str, str] = {}
        self.lines: Dict[str, int] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._bind(local, target, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(source, node)
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._bind(local, f"{base}.{alias.name}", node.lineno)

    def _bind(self, local: str, target: str, line: int) -> None:
        self.aliases[local] = target
        self.lines[local] = line

    def resolve(self, dotted: str) -> str:
        head, sep, rest = dotted.partition(".")
        real = self.aliases.get(head, head)
        return real + sep + rest if rest else real


def _annotation_target(node: Optional[ast.AST]) -> Optional[str]:
    """Dotted name at the core of a type annotation (unwraps
    ``Optional[X]``, ``X | None``, subscripts and string forms)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # "HostKernel" (string annotation): a bare dotted name only
        text = node.value.strip()
        if all(part.isidentifier() for part in text.split(".")) and text:
            return text
        return None
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X]: check the subscript argument(s) too —
        # a container of cross-domain objects is still cross-domain,
        # but the *receiver* type is the container; keep the outer name
        inner = node.slice
        outer = _annotation_target(node.value)
        if outer in ("Optional", "typing.Optional"):
            return _annotation_target(inner)
        return outer
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_target(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_target(node.right)
    name = _dotted(node)
    return name


def _in_repro_tree(module: Optional[str]) -> bool:
    return module is not None and (
        module == "repro" or module.startswith("repro.")
    )


def _foreign_origin(
    origin: str,
    my_domain: Optional[str],
    domains: DomainContract,
) -> Optional[Tuple[str, str]]:
    """``(origin, owning_domain)`` when touching ``origin`` from a
    module owned by ``my_domain`` crosses a domain boundary."""
    if not origin.startswith("repro"):
        return None
    if domains.is_crossing_surface(origin):
        return None
    owner = domains.domain_of(origin)
    if owner is None or owner == SHARED:
        return None
    if owner == my_domain:
        return None
    return origin, owner


class _ForeignNames:
    """Names in one file that statically resolve to cross-domain state."""

    def __init__(
        self,
        source: SourceFile,
        imports: _ImportMap,
        my_domain: Optional[str],
        domains: DomainContract,
    ):
        #: local name -> (origin dotted, owning domain)
        self.names: Dict[str, Tuple[str, str]] = {}
        self._imports = imports
        self._my_domain = my_domain
        self._domains = domains

        for local, target in sorted(imports.aliases.items()):
            if _CONSTANT_NAME.match(local):
                continue
            foreign = _foreign_origin(target, my_domain, domains)
            if foreign is not None:
                self.names[local] = foreign

        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = list(node.args.args) + list(node.args.kwonlyargs)
                if node.args.vararg:
                    args.append(node.args.vararg)
                if node.args.kwarg:
                    args.append(node.args.kwarg)
                for arg in args:
                    self._bind_annotation(arg.arg, arg.annotation)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    self._bind_annotation(node.target.id, node.annotation)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = _dotted(node.value.func)
                if ctor is None:
                    continue
                foreign = _foreign_origin(
                    self._imports.resolve(ctor), my_domain, domains
                )
                if foreign is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.names[target.id] = foreign

    def _bind_annotation(
        self, name: str, annotation: Optional[ast.AST]
    ) -> None:
        target = _annotation_target(annotation)
        if target is None:
            return
        foreign = _foreign_origin(
            self._imports.resolve(target), self._my_domain, self._domains
        )
        if foreign is not None:
            self.names[name] = foreign

    def lookup(self, name: str) -> Optional[Tuple[str, str]]:
        return self.names.get(name)


def _free_names(func: ast.AST) -> Set[str]:
    """Names a nested function/lambda reads but does not bind itself."""
    if isinstance(func, ast.Lambda):
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        body: List[ast.AST] = [func.body]
    else:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        if func.args.vararg:
            params.add(func.args.vararg.arg)
        if func.args.kwarg:
            params.add(func.args.kwarg.arg)
        body = list(func.body)
    bound = set(params)
    loaded: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    bound.add(node.id)
                else:
                    loaded.add(node.id)
    return loaded - bound - _BUILTIN_NAMES


def check_secflow(
    source: SourceFile, contract: LintContract
) -> List[Finding]:
    domains = contract.domains
    module = source.module
    path = str(source.path)
    findings: List[Finding] = []

    def report(line: int, rule: str, message: str) -> None:
        if not source.suppressed(line, rule):
            findings.append(Finding(path, line, rule, message))

    # ------------------------------------------------------------------
    # SEC002: µarch structures must be declared (checked even inside
    # crossing roots — the table is about repro.hw, which never is one)
    # ------------------------------------------------------------------
    if module is not None and (
        module == "repro.hw" or module.startswith("repro.hw.")
    ):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            has_domains = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "domains_present"
                for item in node.body
            )
            if has_domains and domains.structure_domain(
                module, node.name
            ) is None:
                report(
                    node.lineno,
                    "SEC002",
                    f"µarch structure {module}:{node.name} (has "
                    "domains_present) is not declared in "
                    "[tool.repro.lint.domains.structures]",
                )

    if not _in_repro_tree(module):
        return findings
    if domains.is_crossing_root(module):  # type: ignore[arg-type]
        return findings

    my_domain = domains.domain_of(module)  # type: ignore[arg-type]
    imports = _ImportMap(source)
    foreign = _ForeignNames(source, imports, my_domain, domains)

    # ------------------------------------------------------------------
    # SEC001: attribute access on cross-domain state
    # ------------------------------------------------------------------
    seen: Set[Tuple[int, str]] = set()

    def flag_access(line: int, root: str, origin: str, owner: str) -> None:
        key = (line, root)
        if key in seen:
            return
        seen.add(key)
        whose = f"{owner!r}-domain"
        report(
            line,
            "SEC001",
            f"direct access to {whose} state via {root!r} (origin "
            f"{origin}); only the audited crossing surfaces "
            "(rmi/rpc/smc) may cross domains",
        )

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name):
            hit = foreign.lookup(receiver.id)
            if hit is not None:
                origin, owner = hit
                flag_access(node.lineno, receiver.id, origin, owner)
            continue
        # dotted chains rooted at an imported module:
        # repro.host.kernel.SOMETHING, pkg_alias.kernel.X, ...
        chain = _dotted(receiver)
        if chain is None:
            continue
        resolved = imports.resolve(chain)
        hit2 = _foreign_origin(resolved, my_domain, domains)
        if hit2 is not None:
            # one finding per (line, chain root): a.b.c.d visits every
            # intermediate Attribute, which would otherwise multi-flag
            root = chain.split(".")[0]
            key = (node.lineno, root)
            if key not in seen:
                seen.add(key)
                flag_access(node.lineno, chain, hit2[0], hit2[1])

    # ------------------------------------------------------------------
    # SEC003: cross-domain capture in engine callbacks
    # ------------------------------------------------------------------
    local_defs: Dict[str, ast.AST] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_defs[node.name] = node

    def captured_foreign(func_node: ast.AST) -> List[Tuple[str, str, str]]:
        out = []
        for name in sorted(_free_names(func_node)):
            hit = foreign.lookup(name)
            if hit is not None:
                out.append((name, hit[0], hit[1]))
        return out

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in _CALLBACK_SINKS:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            candidates: List[Tuple[str, str, str]] = []
            if isinstance(arg, ast.Lambda):
                candidates = captured_foreign(arg)
            elif isinstance(arg, ast.Name):
                if arg.id in local_defs:
                    candidates = captured_foreign(local_defs[arg.id])
                else:
                    hit = foreign.lookup(arg.id)
                    if hit is not None:
                        candidates = [(arg.id, hit[0], hit[1])]
            for name, origin, owner in candidates:
                report(
                    node.lineno,
                    "SEC003",
                    f"callback registered via .{node.func.attr}() "
                    f"captures {owner!r}-domain object {name!r} "
                    f"(origin {origin}); pass domain state through the "
                    "audited crossing surfaces instead",
                )
    return findings


# ----------------------------------------------------------------------
# SEC004: re-export chains (tree-level)
# ----------------------------------------------------------------------


def extract_facts(source: SourceFile) -> Dict[str, object]:
    """Per-file facts for the tree-level passes (plain JSON-style data).

    * ``module`` / ``is_package``
    * ``defined`` — names defined at module top level
    * ``imports`` — local name -> [origin dotted, line]
    * ``exports`` — names listed in ``__all__`` (when statically a
      list/tuple of string constants)
    * ``allow`` — pragma-suppressed line -> rule ids (tree passes run
      after per-file suppression state is gone)
    """
    defined: List[str] = []
    exports: List[str] = []
    imports: Dict[str, List[object]] = {}
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.append(target.id)
                    if target.id == "__all__" and isinstance(
                        node.value, (ast.List, ast.Tuple)
                    ):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                exports.append(elt.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            defined.append(node.target.id)
    imap = _ImportMap(source)
    for local, target in sorted(imap.aliases.items()):
        imports[local] = [target, imap.lines.get(local, 1)]
    return {
        "module": source.module,
        "path": str(source.path),
        "is_package": source.is_package,
        "defined": sorted(set(defined)),
        "exports": exports,
        "imports": imports,
        "allow": {
            str(line): sorted(rules)
            for line, rules in sorted(source.allow.items())
        },
    }


def _defining_module(
    symbol_origin: str,
    facts_by_module: Dict[str, Dict[str, object]],
) -> str:
    """Chase re-export chains to the module that defines a symbol.

    ``symbol_origin`` is ``"some.module.Symbol"``.  If ``some.module``
    was linted and merely re-imports ``Symbol``, follow the chain
    (bounded, cycle-safe).  Returns the deepest resolvable dotted
    module (without the symbol name).
    """
    visited: Set[str] = set()
    origin = symbol_origin
    for _ in range(16):
        module, _, symbol = origin.rpartition(".")
        if not module or module in visited:
            return module or origin
        visited.add(module)
        facts = facts_by_module.get(module)
        if facts is None:
            # maybe `module` is itself "pkg.submodule" where the symbol
            # origin was recorded one level too deep (from pkg import sub)
            return module
        if symbol in facts["defined"]:  # type: ignore[index]
            return module
        imports = facts["imports"]  # type: ignore[assignment]
        if symbol in imports:  # type: ignore[operator]
            origin = imports[symbol][0]  # type: ignore[index]
            continue
        return module
    return origin.rpartition(".")[0]


def check_reexports(
    facts_list: List[Dict[str, object]],
    contract: LintContract,
) -> List[Finding]:
    """SEC004 over the whole linted tree (call once, after per-file
    analysis; ``facts_list`` comes from :func:`extract_facts`)."""
    domains = contract.domains
    facts_by_module: Dict[str, Dict[str, object]] = {
        str(f["module"]): f for f in facts_list if f.get("module")
    }
    findings: List[Finding] = []
    for facts in facts_list:
        module = facts.get("module")
        if not facts.get("is_package") or not _in_repro_tree(
            module  # type: ignore[arg-type]
        ):
            continue
        if domains.is_crossing_root(str(module)):
            continue
        pkg_domain = domains.domain_of(str(module))
        allow: Dict[str, List[str]] = facts.get("allow", {})  # type: ignore[assignment]
        imports: Dict[str, List[object]] = facts.get("imports", {})  # type: ignore[assignment]
        for name in facts.get("exports", []):  # type: ignore[union-attr]
            entry = imports.get(str(name))
            if entry is None:
                continue  # defined locally (or star-imported: unresolvable)
            origin, line = str(entry[0]), int(entry[1])
            definer = _defining_module(origin, facts_by_module)
            foreign = _foreign_origin(definer, pkg_domain, domains)
            if foreign is None:
                continue
            if "SEC004" in allow.get(str(line), []):
                continue
            findings.append(
                Finding(
                    str(facts["path"]),
                    line,
                    "SEC004",
                    f"public __init__ of {module} re-exports {name!r}, "
                    f"defined in {foreign[1]!r}-domain module "
                    f"{definer}; domain-private symbols must not "
                    "escape through a public package surface",
                )
            )
    return findings
