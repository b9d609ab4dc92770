"""The public surface: `volgap.__all__` and the names it no longer has."""

import importlib

import pytest

import volgap

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
    assert not hasattr(importlib.import_module(f"volgap.{module}"), name)
