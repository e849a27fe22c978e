"""Every public name in ``src/repro`` is reached by the program itself.

An ``ast`` sweep: each public top-level function or class must be named
by another ``src`` module (a package ``__init__`` re-export does not
count), or by its own module outside its definition. A name that only
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


def _names(tree, skip=None):
    """Identifiers a module names in code: loads, attributes, imports."""
    out = set()
    for node in ast.walk(tree):
        if skip is not None and getattr(node, "lineno", 0) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree):
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unreached():
    modules = list(_modules())
    elsewhere = {}
    for path, tree in modules:
        names = _names(tree)
        if path.name != "__init__.py":
            names |= _imported(tree)
        elsewhere[path] = names
    missing = []
    for path, tree in modules:
        others = set().union(*(n for p, n in elsewhere.items() if p != path))
        for node in _public_defs(tree):
            if node.name in others:
                continue
            inside = set(range(node.lineno, node.end_lineno + 1))
            if node.name in _names(tree, skip=inside):
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
