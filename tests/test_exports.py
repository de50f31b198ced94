"""The package namespace is the union of the layer modules' ``__all__``."""

from __future__ import annotations

import importlib

import pytest

import homolattice

LAYERS = ("surface", "f2", "homology", "dual", "code", "arch", "svg", "errors")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_export_reaches_the_package(layer):
    module = importlib.import_module(f"homolattice.{layer}")
    for name in module.__all__:
        assert name in homolattice.__all__, name
        assert getattr(homolattice, name) is getattr(module, name), name


def test_package_exports_are_unique():
    assert len(homolattice.__all__) == len(set(homolattice.__all__))
