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
