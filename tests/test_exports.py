"""Every public name of the package resolves, so none is left dangling."""

import tevdeg


def test_every_name_in_all_resolves():
    assert [name for name in tevdeg.__all__ if not hasattr(tevdeg, name)] == []
    assert len(set(tevdeg.__all__)) == len(tevdeg.__all__)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from tevdeg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tevdeg.__all__)
