"""The public surface: every exported name resolves, and the routes that
exist only to cross-check the closed forms stay out of the package (they
live in ``tests/oracles.py``)."""

import importlib
import pkgutil

import pytest

import dsppcond
from dsppcond.dspp import DsppBlocks

SUBMODULES = [
    importlib.import_module(f"dsppcond.{info.name}")
    for info in pkgutil.iter_modules(dsppcond.__path__)
]

ORACLE_ONLY = (
    "definition_ratio",
    "extremal_direction",
    "first_order_delta",
    "first_order_residual",
    "FirstOrderCheck",
    "structure_basis",
    "StructureBasis",
)


@pytest.mark.parametrize("module", [dsppcond, *SUBMODULES], ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", [dsppcond, *SUBMODULES], ids=lambda m: m.__name__)
def test_oracle_only_routes_are_not_in_the_package(module):
    for name in (*ORACLE_ONLY, "pivoted_qr_diagonal"):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_binding_and_properties_are_gone():
    assert "dgeqp3" not in dsppcond.linalg._ROUTINES
    for name in ("b1", "b2", "b3"):
        assert not hasattr(DsppBlocks, name)

