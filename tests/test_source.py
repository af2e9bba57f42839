"""Rules on the library's source that hold in every module."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import darmoncheck

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_in_library():
    # python -O strips assert statements; the library raises instead
    found = []
    for path in sorted(Path(darmoncheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_kolysys_imports_only_groupring_and_nt():
    # darmon imports kolysys for its local-model protocol, so an import of
    # darmon (or of a module that imports it) from kolysys would be circular
    path = Path(darmoncheck.__file__).parent / "kolysys.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if not node.level:
                if module[0] != "darmoncheck":
                    continue
                module = module[1:]
            used.update(module[:1] if module and module[0]
                        else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            used.update(alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("darmoncheck."))
    assert used <= {"groupring", "nt"}, used


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names; a refactor that drops one
    # fails here rather than in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, modname, attr in tracing.TRACED:
        module = importlib.import_module(f"darmoncheck.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            ok = inspect.isclass(cls) and inspect.isfunction(vars(cls).get(meth))
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(name)
    assert not missing, missing


def test_benchmark_operations_pass_their_checks(workloads):
    # one operation of each kind the benchmark runs, through its own runner
    # and checks, so that a change to the library's surface that breaks
    # perfbench/ fails here
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    Op = workloads.Op
    ops = [Op("verify", (2, 21)), Op("preks", (13, 3, 3)), Op("det", (15,)),
           Op("det", (210,)), Op("trial", ((5, 13), (), 1, 6, 2, 3))]
    for op in ops:
        assert checks.check(op, workloads.run_op(op)) == [], op


def test_every_cache_is_cleared_by_the_benchmark(workloads):
    # the benchmark times each operation cold by clearing MODULE_CACHES; a
    # cache it does not know would carry work from one operation to the next
    cleared = {id(c) for c in workloads.MODULE_CACHES}
    found, missing = [], []
    for path in sorted(Path(darmoncheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and any(ast.unparse(getattr(d, "func", d)).split(".")[-1] in ("lru_cache", "cache")
                         for d in node.decorator_list)]
        if names:
            module = importlib.import_module(f"darmoncheck.{path.stem}")
            found += names
            missing += [f"{path.name}:{name}" for name in names
                        if id(getattr(module, name, None)) not in cleared]
    assert found and not missing, missing
