"""Tests for the package's top-level exports."""

import hetlink


def test_every_exported_name_resolves():
    missing = [name for name in hetlink.__all__ if not hasattr(hetlink, name)]
    assert missing == []
    assert len(set(hetlink.__all__)) == len(hetlink.__all__)
