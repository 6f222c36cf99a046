import ast
import os
import subprocess
import sys
from pathlib import Path

import corepath


def test_star_import_binds_every_listed_module():
    ns: dict = {}
    exec("from corepath import *", ns)
    assert [name for name in corepath.__all__ if name not in ns] == []


def _bare_asserts(tree: ast.AST, where: str) -> list:
    """assert statements and raised AssertionErrors."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"{where}:{node.lineno} assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append(f"{where}:{node.lineno} raise AssertionError")
    return out


def test_guards_raise_named_errors():
    # python -O strips assert statements, so a guard that protects an
    # answer raises a named error, and so do the check* audits
    # (graph_core.require raises InvariantBroken)
    src = Path(corepath.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _bare_asserts(ast.parse(path.read_text()), path.name)
    assert found == []


def test_sssp_imports_only_the_es_family():
    """At module level sssp.py imports no corepath module besides
    graph_core and es_tree; heavy_side is imported in the scale build,
    and only when tau is set."""
    src = Path(corepath.__file__).parent / "sssp.py"
    found = set()
    for node in ast.parse(src.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # an absolute import of the package counts whatever it names
            mods = [node.module] if isinstance(node, ast.ImportFrom) else \
                [alias.name for alias in node.names]
            found.update(m for m in mods if m.split(".")[0] == "corepath")
    assert found <= {"graph_core", "es_tree"}, found


def test_no_module_draws_random_numbers():
    """No corepath module imports random, and no expander_tools function
    takes an rng: the sampled cut family is a function of the piece."""
    src = Path(corepath.__file__).parent
    imports = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for m in mods
                        if m.split(".")[0] == "random"]
    assert imports == []
    tree = ast.parse((src / "expander_tools.py").read_text())
    takes_rng = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and any(isinstance(a, ast.arg) and a.arg == "rng"
                         for a in ast.walk(node.args))]
    assert takes_rng == []


def test_no_module_orders_by_repr():
    """Vertices are ints ordered by value: no corepath module passes
    key=repr, and repr() is called only inside a message (a raise
    statement or an f-string)."""
    src = Path(corepath.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_message = {id(sub) for node in ast.walk(tree)
                      if isinstance(node, (ast.Raise, ast.JoinedStr))
                      for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "key" and \
                    isinstance(node.value, ast.Name) and node.value.id == "repr":
                found.append(f"{path.name}:{node.value.lineno} key=repr")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "repr" and id(node) not in in_message:
                found.append(f"{path.name}:{node.lineno} repr()")
    assert found == []


def _es_tree_misuse(tree: ast.AST, where: str) -> list:
    """EsTree(...) calls that pass vertices=, or a tuple or a negative
    literal as a vertex: as the source or as an end of an edge, looked up
    through the names the module binds (by =, += or .append)."""
    bound: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    bound.setdefault(t.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Name):
            bound.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.Call) and node.args and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "append" and \
                isinstance(node.func.value, ast.Name):
            bound.setdefault(node.func.value.id, []).append(
                ast.List(elts=node.args))

    def values(node, seen=()):
        """node, and every value a name in it is bound to."""
        if isinstance(node, ast.BinOp):
            return values(node.left, seen) + values(node.right, seen)
        if not isinstance(node, ast.Name) or node.id in seen:
            return [node]
        return [node] + [x for v in bound.get(node.id, ())
                         for x in values(v, seen + (node.id,))]

    def ends(edges):
        for v in values(edges):
            rows = [v.elt] if isinstance(v, ast.ListComp) else \
                v.elts if isinstance(v, (ast.List, ast.Tuple)) else []
            for e in rows:
                if isinstance(e, ast.Tuple):
                    yield from e.elts[:2]

    def bad(vertex):
        return any(isinstance(v, ast.Tuple) or (
            isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.USub)
            and isinstance(v.operand, ast.Constant)) for v in values(vertex))

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and
                getattr(node.func, "id", None) == "EsTree"):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        args = node.args + [kw.get(a) for a in ("source", "depth", "edges")
                            if a in kw]
        if "vertices" in kw:
            found.append(f"{where}:{node.lineno} vertices=")
        if args and bad(args[0]):
            found.append(f"{where}:{node.lineno} source")
        if len(args) > 2 and any(bad(x) for x in ends(args[2])):
            found.append(f"{where}:{node.lineno} edge end")
    return found


def test_es_trees_take_int_ids():
    """Every EsTree in corepath holds the ids 0..N-1: no call passes
    vertices=, and none passes a tuple or a negative literal as a vertex;
    a virtual vertex is an id past the graph's."""
    src = Path(corepath.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _es_tree_misuse(ast.parse(path.read_text()), path.name)
    assert found == []


def _depth_knobs(tree: ast.AST, where: str) -> list:
    """Parameters named q, and attributes or class fields named q."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "q":
            found.append(f"{where}:{node.lineno} parameter q")
        elif isinstance(node, ast.Attribute) and node.attr == "q" and \
                isinstance(node.ctx, ast.Store):
            found.append(f"{where}:{node.lineno} attribute q")
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                found += [f"{where}:{stmt.lineno} field q" for t in targets
                          if isinstance(t, ast.Name) and t.id == "q"]
    return found


def test_oracle_depth_is_no_knob():
    """The short-path oracle is built at one depth, two levels: no
    function takes a depth q, and no class keeps one."""
    src = Path(corepath.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _depth_knobs(ast.parse(path.read_text()), path.name)
    assert found == []


def test_audits_raise_under_python_O():
    """The drift tests of the ES, LCD, near-tree and oracle audits pass
    under python -O, which strips assert statements: the audits raise
    InvariantBroken through graph_core.require instead."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_es_tree.py") + "::TestAuditCatchesDrift",
         str(tests / "test_lcd.py") + "::TestAuditCatchesDrift",
         str(tests / "test_sssp.py") + "::TestNearTreeDrift",
         str(tests / "test_expander_oracle.py") + "::TestAuditCatchesDrift"],
        env=env, cwd=tests.parent, capture_output=True, text=True,
        timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "11 passed" in run.stdout, run.stdout
