"""Every public name in driftcal has a caller in the package or the benchmark."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "driftcal").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# Paper API that waits for the feedback engine and the run reports.  The
# list may only shrink: a name that gains a caller must leave it.
AWAITING_ENGINE = {
    "autocorrelation_sum", "duty_cycle", "entanglement_infidelity", "exact_gain_schedule",
    "gxgy_family", "optimal_gain", "summarize_scalar", "EVENT_GAIN", "EVENT_REPS",
    "EVENT_SKIP", "RECORD_COLUMNS",
}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _loaded(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _public_and_used() -> tuple[set[str], set[str]]:
    """Public top-level names of the package, and the names loaded anywhere in
    the callers outside the statement that defines them."""
    public, used = set(), set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined(stmt)
            used |= _loaded(stmt) - set(defined)
            if path in PACKAGE:
                public |= {n for n in defined if not n.startswith("_")}
    return public, used


def test_every_public_name_has_a_caller():
    public, used = _public_and_used()
    assert AWAITING_ENGINE <= public, "allowlisted names that no longer exist"
    assert sorted(public - used - AWAITING_ENGINE) == []
    assert sorted(AWAITING_ENGINE & used) == [], "names that gained a caller leave the list"
