import importlib

import pytest

import turanshadow
from genutil import run_child


def test_import_loads_no_numpy_and_no_submodule():
    script = """
import sys
import turanshadow
loaded = [m for m in sys.modules
          if m == "numpy" or m.startswith(("numpy.", "turanshadow."))]
assert not loaded, loaded
"""
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_submodule_resolves_after_a_bare_import():
    script = """
import turanshadow
print(turanshadow.shadow.oriented_table.__module__)
"""
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "turanshadow.shadow\n"


def test_each_public_name_is_its_modules_object():
    assert len(turanshadow.__all__) == 25
    for name in turanshadow.__all__:
        module = importlib.import_module(
            f"turanshadow.{turanshadow._MODULE_OF[name]}")
        assert getattr(turanshadow, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from turanshadow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == turanshadow.__all__
    assert all(namespace[name] is getattr(turanshadow, name)
               for name in turanshadow.__all__)


def test_unknown_name_raises_attribute_error_naming_the_package():
    # the others were public names that no library code used
    for name in ("no_such_name", "induced_edge_count", "induced_subgraph",
                 "naive_kclique_count", "out_neighbors",
                 "induced_adjacency_matrix", "dump_shadow", "shadow_stats"):
        with pytest.raises(AttributeError, match=f"module 'turanshadow' has "
                                                 f"no attribute '{name}'"):
            getattr(turanshadow, name)


def test_dir_lists_public_names_and_submodules():
    listed = dir(turanshadow)
    assert set(turanshadow.__all__) <= set(listed)
    assert {"__version__", "baseline", "estimator", "graph", "oracle",
            "shadow"} <= set(listed)
