"""The public surface: `volgap.__all__`, the names it no longer has, and
the rule that every public definition has a caller."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import volgap

SRC = Path(volgap.__file__).parent
ROOT = SRC.parent.parent
# besides the package itself, the acceptance gate and the benchmark count
# as callers; they are only read here
READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]

# removed with no runtime caller, each with the module it lived in
DELETED = [
    ("bounds", "Thm2Improvement"),
    ("bounds", "improvement_ratio_thm2"),
    ("bounds", "min_volume_ratio_from_multiplicity"),
    ("bounds", "correction_below_ell_log_margin"),
    ("bounds", "cheng_yang_bound"),
    ("bounds", "case1_correction_term"),
    ("bounds", "b_cly"),
    ("bounds", "correction_exponent"),
    ("solver", "ObjectiveProfile"),
    ("solver", "profile_f1"),
    ("solver", "g_log"),
    ("solver", "f1_from_excess"),
    ("tables", "format_ratio"),
    ("tables", "_checked_kernel"),
    ("bounds", "min_volume_excess_from_multiplicity"),
    ("solver", "g_prime_numerator"),
    ("specials", "log_upper_incomplete_gamma_at_one"),
    ("specials", "HalfInteger.from_int"),
    ("specials", "HalfInteger.half_of"),
    ("specials", "HalfInteger.is_integer"),
    ("specials", "HalfInteger.integer_value"),
    ("specials", "HalfInteger.value"),
    ("logdomain", "LogScalar.from_log"),
    ("logdomain", "LogScalar.signed_log10"),
    ("logdomain", "LogScalar._cmp"),
    ("logdomain", "LogScalar.__lt__"),
    ("logdomain", "LogScalar.__le__"),
    ("logdomain", "LogScalar.__gt__"),
    ("logdomain", "LogScalar.__ge__"),
    ("logdomain", "LogScalar.__neg__"),
    ("logdomain", "LogScalar.__abs__"),
    ("logdomain", "LogScalar.__add__"),
    ("logdomain", "LogScalar.__sub__"),
    ("logdomain", "ONE"),
    ("logdomain", "log_sum"),
    ("logdomain", "log_exp"),
    ("bounds", "BoundKernel.final_inequality_log_margin"),
    ("solver", "aux_root_tilde_gamma3"),
    ("solver", "phi3_threshold"),
    ("solver", "psi_log_value"),
    ("solver", "PsiCheck"),
    ("solver", "psi_decreasing_check"),
    ("bounds", "BoundKernel.log_case1_correction"),
    ("bounds", "BoundKernel.retuned"),
    ("tables", "_TableRows.__getitem__"),
    ("tables", "_blocks"),
    ("bounds", "_EllColumns.finite"),
    ("bounds", "_EllColumns.overflow"),
    ("bounds", "_EllColumns.log_ell"),
    ("claims", "_lem3_rows"),
    ("claims", "_leml_rows"),
    ("claims", "_BETAS"),
    ("solver", "_log_g"),
    ("solver", "_in_g_domain"),
    ("claims", "_ns"),
    ("claims", "_capped"),
    ("claims", "_gamman_note"),
    ("claims", "_Run.grid_note"),
    ("specials", "erf_series"),
    ("bounds", "_float_ell"),
    ("specials", "_float_dimension"),
    ("tables", "_Formatted"),
    ("tables", "_json_head"),
]


def test_star_import_binds_every_name():
    namespace = {}
    exec("from volgap import *", namespace)
    missing = [name for name in volgap.__all__ if name not in namespace]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(volgap.__all__) == len(set(volgap.__all__))


@pytest.mark.parametrize("module, name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_names_stay_deleted(module, name):
    assert name not in volgap.__all__
    assert not hasattr(volgap, name)
    owner = importlib.import_module(f"volgap.{module}")
    *path, name = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a class still inherits comparison slots from object; it must not define its own
    assert getattr(owner, name, None) is getattr(object, name, None)


def _names(node):
    """Every name that node reads: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_definition_has_a_caller():
    # __init__.py only re-exports, so its imports are not uses
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    used = Counter()
    for tree in [*modules.values(), *(ast.parse(path.read_text()) for path in READERS)]:
        used.update(_names(tree))
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = sum(1 for name in _names(node) if name == node.name)
                if used[node.name] == own:
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_every_import_is_read():
    # no linter runs on the package, so this is its unused-import check;
    # __init__.py only re-exports, and a line marked "# noqa: F401" keeps
    # an import that something outside its module reads
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.stem}: {name}")
    assert unread == []


def test_only_logdomain_spells_the_double_range():
    # the underflow and overflow logs are logdomain._UNDERFLOW_LOG and
    # _OVERFLOW_LOG; every other module reads those names
    limits = {745.0, 709.0}
    spelled = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float) and abs(node.value) in limits:
                spelled[path.stem, abs(node.value)] += 1
    assert spelled == {("logdomain", 745.0): 1, ("logdomain", 709.0): 1}


def test_only_bounds_spells_the_classical_tuning():
    # classical rows are at bounds._CLASSICAL, alpha = 2; tables reads that
    # name and never writes the alpha out
    tree = ast.parse((SRC / "tables.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 2.0] == []


def test_no_test_sets_the_global_mpmath_precision():
    # a precision assigned to mp.dps outlives its test and sets that of
    # every test that runs after it; mpmath.workdps holds it for one block
    assigned = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            assigned += [f"{path.name}:{node.lineno}" for target in targets
                         if isinstance(target, ast.Attribute) and target.attr in ("dps", "prec")]
    assert assigned == []
