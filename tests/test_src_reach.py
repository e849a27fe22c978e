"""Every public name in ``src/repro`` is reached by the program itself.

An ``ast`` sweep: each public top-level function or class must be reached
by another ``src`` module, or named by its own module outside its
definition. Names resolve by module: another module reaches
``pkg.mod.f`` by importing it (through any package re-export, though a
package ``__init__`` re-export alone does not count) or by an attribute
``m.f`` where an import binds ``m`` to ``pkg.mod``. An ``.f`` on any
other object (``history.accuracy``) reaches nothing. A name that only
tests name belongs under ``tests/`` as an oracle or tool, or nowhere.
The allow-list holds the public API that, by design, only callers
outside ``src`` reach (CLI-less entry points, bench-only attackers).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: name -> why it may be reached from outside ``src`` only
ALLOWED = {
    # operator and analysis API, reached from the shell, benches or notebooks
    "run_replay": "service API: the replay harness the overhead bench drives",
    "audit_reputation": "ledger API: re-derive one worker's reputation trail",
    "collect_decisions": "audit API: decision records from a list of events",
    "encode_decision": "audit API: the canonical bytes of one decision record",
    "decode_event": "telemetry API: the inverse of encode_event",
    "register_worker_role": "extension API: a custom worker class as a role",
    "split_gradient": "protocol API: a flat gradient cut into server slices",
    "build_mlp": "the MLP factory perfbench and the benches federate",
    "PerLinkLatency": "sim API: a latency table per (src, dst) link",
    "softmax": "nn primitive beside log_softmax, for probabilities",
    # the paper's quantities, read by the paper-claims benches and tests
    "utility": "the paper's data utility Ψ(n) = log(1 + n) (S5.1)",
    "fairness_coefficient": "the paper's fairness coefficient (S4.4)",
    "theorem1_fixed_point": "the paper's Theorem 1 reputation fixed point",
    "share_entropy": "metrics API: entropy of a reward-share vector",
    "gini": "metrics API: Gini coefficient of a reward vector",
    # bench-only comparisons the paper-claims benches run
    "LossBasedDetector": "exact loss-based detection, the S4.1 ablation bench",
    "trimmed_mean": "robust-aggregation comparison beside median and Krum",
    "centralized_topology": "comm topology factory (paper S3.2 architectures)",
    "polycentric_topology": "comm topology factory (paper S3.2 architectures)",
    "decentralized_topology": "comm topology factory (paper S3.2 architectures)",
    "link_count": "comm topology size, for the S3.2 comparison",
    "validate_roles": "comm topology check for hand-built role maps",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _public_defs(tree):
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _existing(target: Path) -> Path | None:
    """The module file for a dotted target: ``pkg/__init__.py`` or ``mod.py``."""
    if target.is_dir():
        return target / "__init__.py"
    if target.with_suffix(".py").is_file():
        return target.with_suffix(".py")
    return None


def _module_path(path: Path, node: ast.ImportFrom) -> Path | None:
    """The ``src`` module a ``from … import`` in ``path`` reads from."""
    if node.level:
        base = path.parents[node.level - 1]
    elif (node.module or "").split(".")[0] == SRC.name:
        base = SRC.parent
    else:
        return None  # outside src
    return _existing(base.joinpath(*(node.module or "").split(".")) if node.module else base)


def _submodule(module: Path, name: str) -> Path | None:
    """``module.name`` when that is itself a ``src`` module."""
    if module.name != "__init__.py":
        return None
    return _existing(module.parent / name)


class _Bindings:
    """What each top-level name of one module is bound to by its imports:
    a ``src`` module, or a name imported from one."""

    def __init__(self, path: Path, tree: ast.Module):
        self.modules: dict[str, Path] = {}
        self.names: dict[str, tuple[Path, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] != SRC.name:
                        continue
                    if alias.asname:
                        target = _existing(SRC.parent.joinpath(*alias.name.split(".")))
                        if target is not None:
                            self.modules[alias.asname] = target
                    else:
                        self.modules[SRC.name] = SRC / "__init__.py"
            elif isinstance(node, ast.ImportFrom):
                source = _module_path(path, node)
                if source is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    sub = _submodule(source, alias.name)
                    if sub is not None:
                        self.modules[bound] = sub
                    else:
                        self.names[bound] = (source, alias.name)


def _reaches(modules):
    """Every ``(module, name)`` another module reaches by an import or by
    an attribute of an imported ``src`` module, resolved through
    re-exports to the module that defines the name."""
    bindings = {path: _Bindings(path, tree) for path, tree in modules}

    def resolve(module: Path, name: str, seen=()) -> tuple[Path, str]:
        imported = bindings[module].names.get(name) if module in bindings else None
        if imported is None or (module, name) in seen:
            return module, name
        return resolve(*imported, seen=(*seen, (module, name)))

    def module_of(expr, b: _Bindings) -> Path | None:
        if isinstance(expr, ast.Name):
            return b.modules.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = module_of(expr.value, b)
            return None if base is None else _submodule(base, expr.attr)
        return None

    reached: dict[Path, set[tuple[Path, str]]] = {}
    for path, tree in modules:
        b = bindings[path]
        out = reached.setdefault(path, set())
        if path.name != "__init__.py":  # a package re-export does not count
            out |= {resolve(*src) for src in b.names.values()}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = module_of(node.value, b)
                if base is not None:
                    out.add(resolve(base, node.attr))
    return reached


def _own_names(tree, skip):
    """Identifiers a module loads in code outside the lines ``skip``."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and getattr(node, "lineno", 0) not in skip
    }


def unreached():
    modules = list(_modules())
    reached = _reaches(modules)
    missing = []
    for path, tree in modules:
        others = set().union(*(r for p, r in reached.items() if p != path))
        for node in _public_defs(tree):
            if (path, node.name) in others:
                continue
            inside = set(range(node.lineno, node.end_lineno + 1))
            if node.name in _own_names(tree, inside):
                continue
            missing.append(f"{path.relative_to(SRC.parent)}::{node.name}")
    return missing


def test_every_public_src_name_is_reached():
    missing = [m for m in unreached() if m.split("::")[1] not in ALLOWED]
    assert missing == [], (
        "public names no src module reaches (delete them, move them under "
        f"tests/, or allow-list them with a reason): {missing}"
    )


def test_allow_list_has_no_stale_entries():
    defined = {
        node.name for _, tree in _modules() for node in _public_defs(tree)
    }
    reached_anyway = set(ALLOWED) - {m.split("::")[1] for m in unreached()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    assert reached_anyway == set(), sorted(reached_anyway)
