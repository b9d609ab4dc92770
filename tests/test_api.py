"""The public surface: `volgap.__all__`, the names it no longer has, and
the rule that every public definition has a caller."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import volgap
from volgap import bounds, solver, spectral

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
    ("claims", "SuiteConfig.tol"),
    ("solver", "_g_prime_numerator"),
    ("bounds", "_numerator"),
    ("specials", "_check_dimension"),
    ("bounds", "capped_kernels"),
    ("bounds", "_exceeds"),
    ("bounds", "_fits"),
    ("claims", "_Run._grid"),
    ("claims", "_Run.kernels"),
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


@pytest.mark.parametrize("record, fields", [
    (spectral.SpectralLevel, {"k": 2, "eigenvalue": 6, "multiplicity": 5}),
    (spectral.TraceResult, {"value": 1.5, "levels_used": 4, "tail_bound": 1e-16}),
    (solver.GPrimeSample, {"beta": 0.5, "in_domain": False, "sign": None}),
    (bounds.GapBound, {"params": None, "variant": "THM1", "denominator": 1.0, "excess": 2.0, "ratio_vs_cly": 3.0}),
], ids=["SpectralLevel", "TraceResult", "GPrimeSample", "GapBound"])
def test_a_plain_record_is_an_immutable_tuple_built_by_keyword(record, fields):
    r = record(**fields)
    assert r._asdict() == fields and tuple(r) == tuple(fields.values())
    assert r._replace(**{record._fields[0]: 0}) == (0, *tuple(r)[1:])
    with pytest.raises(AttributeError):
        setattr(r, record._fields[0], 0)
    with pytest.raises(AttributeError):
        r.extra = 0


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


def test_only_errors_naming_t_or_s_spell_their_own_overflow():
    # an overflow that names only n is logdomain._overflow; the heat trace,
    # the closed trace bound and Gamma(s, 1) name t or s as well
    spelled = Counter()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "OverflowError" and node.args:
                spelled[path.stem, owner] += 1
    assert spelled == {
        ("logdomain", "_overflow"): 1,
        ("specials", "upper_incomplete_gamma_at_one"): 1,
        ("spectral", "heat_trace"): 1,
        ("spectral", "trace_bound"): 1,
    }


def test_a_dataclass_checks_itself_and_no_module_imports_typing():
    # a record that only carries data is a namedtuple subclass; @dataclass
    # stays on the records that validate themselves in __post_init__
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any("dataclass" in _names(d) for d in node.decorator_list):
                if not any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body):
                    found.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "typing" for a in node.names):
                found.append(f"{path.stem}: typing")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "typing":
                found.append(f"{path.stem}: typing")
    assert found == []


def _owned_nodes(tree):
    """(name of the innermost function or class holding it, node) for every node of tree."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


def test_only_logdomain_spells_the_input_rules():
    # n >= 2, ell >= 1 and "positive and finite" are logdomain._check_int
    # and _check_positive, which every other module calls; any other
    # "must be positive" would be a second wording of the last
    words = ("must be an int", "must be at least", "must be positive")
    spelled = Counter()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                spelled.update((path.stem, owner, word) for word in words if word in node.value)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                spelled.update((path.stem, owner, "bool") for sub in ast.walk(node.args[1])
                               if isinstance(sub, ast.Name) and sub.id == "bool")
    assert spelled == {
        ("logdomain", "_check_int", "must be an int"): 1,
        ("logdomain", "_check_int", "must be at least"): 1,
        ("logdomain", "_check_int", "bool"): 1,
        ("logdomain", "_check_positive", "must be positive"): 1,
    }


def test_claims_decide_no_overflow_of_their_own():
    # each quantity a claim reads raises its own overflow, in bounds, solver
    # or spectral; claims only fold it into a cap
    tree = ast.parse((SRC / "claims.py").read_text())
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "OverflowError" or "_overflow" in _names(node.func))]
    assert found == []


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
