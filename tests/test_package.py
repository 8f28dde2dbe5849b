"""The package's public surface: every exported name exists."""

import shocklab


def test_all_names_resolve():
    # a stale name would break only `from shocklab import *`
    missing = [name for name in shocklab.__all__ if not hasattr(shocklab, name)]
    assert missing == []
    assert len(set(shocklab.__all__)) == len(shocklab.__all__)
