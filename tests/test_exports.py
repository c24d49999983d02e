"""Public package surfaces: every ``__all__`` name resolves and star-imports."""
import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["singmin.exact", "singmin.proofs", "singmin.surfaces", "singmin.catenary"]
)
def test_star_import_binds_exactly_all(name):
    # a name in __all__ that does not resolve makes the star import raise
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(importlib.import_module(name).__all__)
