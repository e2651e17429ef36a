import types

import gradedrings


def test_all_lists_every_public_name_the_package_imports():
    public = {
        name
        for name, obj in vars(gradedrings).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert gradedrings.__all__ == sorted(public)
    assert {"GradedRing", "GroupSignature", "decompose", "load_ring"} <= public
    namespace = {}
    exec("from gradedrings import *", namespace)
    assert public <= namespace.keys()
