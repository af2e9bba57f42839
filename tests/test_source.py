"""Rules on the library's source that hold in every module."""

import ast
import importlib
import importlib.util
import inspect
import re
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


def test_every_import_is_read():
    # a name imported but never read is dead weight, and no linter is
    # installed to catch it; no module here re-exports what it imports
    found = []
    for path in sorted([*Path(darmoncheck.__file__).parent.glob("*.py"),
                        *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                          for name in (alias.asname or alias.name.split(".")[0]
                                       for alias in node.names) if name not in read]
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


# reference implementations that only tests read, each with the test that
# reads it; every other library name has a caller in src/ or perfbench/
TEST_ONLY = {
    "cyclo_to_quad": "test_cyclo.py::test_quad_cyclo_roundtrip",
    "CycloNum.zeta": "test_cyclo.py::test_field_arithmetic",
    "ThetaElt.coefficient": "test_cyclo.py::test_theta_coefficient_reduction_consistency",
    "prop94_residual": "test_darmon.py::test_prop94_levels",
    "subgroup_order": "test_acceptance.py::test_criterion_3_augmentation_structure",
    "AugQuot.lift": "test_groupring.py::test_lift_then_class_with_three_components",
    "cyclic_model": "test_kolysys.py::test_cyclic_model_checkers_run",
    "zero_collection": "test_kolysys.py::test_zero_collection_passes",
    "lemma58_extend": "test_kolysys.py::test_lemma58_extension",
    "lemma58_sum_check": "test_kolysys.py::test_lemma58_extension",
    "multiplicative_order": "test_nt.py::test_primitive_root_orders",
    "lambda_generator": "test_quadfield.py::test_lambda_generator_examples",
    "ideal_of": "test_quadfield.py::test_lambda_generator_examples",
    "prime_ideal": "test_quadfield.py::test_lambda_generator_examples",
    "QuadIdeal.contains_num": "test_quadfield.py::test_ord_at_against_ideal_powers",
    "QuadIdeal.pow": "test_quadfield.py::test_ord_at_against_ideal_powers",
}


def _references(paths):
    """(identifier, path, line, kind) for every name the files use: kind
    "name" for a bare name or an import, "module" for an attribute of a
    `darmoncheck` module alias (in a dotted name in a string too, as
    perfbench/tracing.py names what it wraps), ("self", path, C) for an
    attribute of self inside class C, "attr" for any other attribute or
    word of a dotted name in a string."""
    modules = {p.stem for p in Path(darmoncheck.__file__).parent.glob("*.py")}
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level or node.module == "darmoncheck")
                   for alias in node.names if alias.name in modules}
        # ast.walk visits an outer class before the classes it nests
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "self"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, path, node.lineno, "name"))
            elif isinstance(node, ast.alias):
                out.append((node.name.split(".")[-1], path, node.lineno, "name"))
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in aliases
                kind = ("self", path, owner[id(node)]) if id(node) in owner else "attr"
                out.append((node.attr, path, node.lineno, "module" if on_module else kind))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.]+", node.value)):
                words = node.value.split(".")
                out += [(w, path, node.lineno, "module" if i and words[i - 1] in modules
                         else "attr") for i, w in enumerate(words)]
    return out


def _definitions(paths):
    """(label, name, path, node, kinds) for every module-level def or class
    and every public method.  A module-level name is called through a bare
    name, an import or its module; a method of class C through an attribute
    of anything but self, or of self inside C."""
    out = []
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((node.name, node.name, path, node, {"name", "module"}))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{m.name}", m.name, path, m,
                         {"attr", "module", ("self", path, node.name)})
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def _without_callers(library, callers):
    refs = _references(callers)
    unused = []
    for label, name, path, node, kinds in _definitions(library):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not any(r == name and kind in kinds
                   and not (p == path and first <= line <= node.end_lineno)
                   for r, p, line, kind in refs):
            unused.append(label)
    return unused


def test_library_names_have_callers():
    # a library name that only tests read is a second, unchecked
    # implementation; a reference implementation is listed with its test
    library = sorted(Path(darmoncheck.__file__).parent.glob("*.py"))
    callers = library + sorted((ROOT / "perfbench").glob("*.py"))
    unused = _without_callers(library, callers)
    assert sorted(set(unused) - set(TEST_ONLY)) == [], "no caller outside tests"
    assert sorted(set(TEST_ONLY) - set(unused)) == [], "listed, but has a caller"
    for label, where in TEST_ONLY.items():
        file, test = where.split("::")
        text = (ROOT / "tests" / file).read_text()
        body = [ast.get_source_segment(text, node) for node in ast.parse(text).body
                if isinstance(node, ast.FunctionDef) and node.name == test]
        assert body and label.split(".")[-1] in body[0], where
