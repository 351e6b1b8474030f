"""Every public name in driftcal, and every public member of its top-level
classes, has a caller in the package or the benchmark."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "driftcal").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# Paper API that waits for the feedback engine and the run reports; members
# are written "Class.member".  The list may only shrink: a name that gains a
# caller must leave it.
AWAITING_ENGINE = {
    "autocorrelation_sum", "duty_cycle", "entanglement_infidelity", "exact_gain_schedule",
    "gxgy_family", "optimal_gain", "RECORD_COLUMNS", "TrajectoryRecord.rows",
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


def _attributes_and_keywords(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def _member(stmt: ast.stmt) -> str | None:
    """The name a class-body statement defines: a method, property or
    annotated field."""
    if isinstance(stmt, ast.FunctionDef):
        return stmt.name
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


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


def _public_members_and_called() -> tuple[set[str], set[str]]:
    """Public members of the package's top-level classes as "Class.member",
    and those whose name is loaded as an attribute, or passed as a keyword,
    anywhere in the callers outside the member's own definition."""
    members, used = {}, set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                used |= _attributes_and_keywords(stmt)
                continue
            for node in stmt.decorator_list + stmt.bases:
                used |= _attributes_and_keywords(node)
            for part in stmt.body:
                name = _member(part)
                used |= _attributes_and_keywords(part) - {name}
                if path in PACKAGE and name and not name.startswith("_"):
                    members[f"{stmt.name}.{name}"] = name
    return set(members), {q for q, name in members.items() if name in used}


def test_every_public_name_has_a_caller():
    public, used = _public_and_used()
    awaiting = {n for n in AWAITING_ENGINE if "." not in n}
    assert awaiting <= public, "allowlisted names that no longer exist"
    assert sorted(public - used - awaiting) == []
    assert sorted(awaiting & used) == [], "names that gained a caller leave the list"


def test_every_public_member_has_a_caller():
    members, called = _public_members_and_called()
    awaiting = {n for n in AWAITING_ENGINE if "." in n}
    assert awaiting <= members, "allowlisted members that no longer exist"
    assert sorted(members - called - awaiting) == []
    assert sorted(awaiting & called) == [], "members that gained a caller leave the list"


def test_conftest_oracles_import_nothing_from_the_package():
    """The independent oracles in tests/conftest.py stay independent of driftcal."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "driftcal"]
