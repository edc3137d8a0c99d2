"""The package's public names."""

import bodl


def test_every_exported_name_resolves():
    missing = [name for name in bodl.__all__ if not hasattr(bodl, name)]
    assert missing == []
    assert len(set(bodl.__all__)) == len(bodl.__all__)
