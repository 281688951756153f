"""Every name lives in one module, and is read from there.

colorhom._EXPORTS names, for each package export, the module that defines
it, so colorhom.X imports that module and reads X off it.  A module lists in
its __all__ only what it defines, and core and checks resolve no name
another module defines: a moved name is imported from its new home.
catalog.search_maps, the path the README gives for the search, is the one
name a module still resolves from another (colorhom.search).
"""

import colorhom
from colorhom import catalog, checks, core, linalg, search


def test_every_export_is_named_under_the_module_that_defines_it():
    for module, names in colorhom._EXPORTS.items():
        for name in names:
            assert getattr(colorhom, name).__module__ == f"colorhom.{module}", name


def test_core_and_checks_resolve_no_name_they_do_not_define():
    assert "__getattr__" not in vars(core) and "__getattr__" not in vars(checks)
    for module in (core, checks, linalg, search):
        assert all(name in vars(module) for name in module.__all__), module.__name__
    assert catalog.search_maps is search.search_maps
