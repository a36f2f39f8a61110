"""The package namespace exports each public name once, and every name
it exports exists."""

import qlucas


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(qlucas.__all__) == len(set(qlucas.__all__))
    missing = [n for n in qlucas.__all__ if not hasattr(qlucas, n)]
    assert not missing, missing


def test_star_import_runs():
    namespace = {}
    exec("from qlucas import *", namespace)
    assert set(qlucas.__all__) <= namespace.keys()
