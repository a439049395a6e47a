"""The package's public names: every name in ``__all__`` resolves, once."""

import specdde


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in specdde.__all__ if not hasattr(specdde, name)]
    assert missing == []


def test_no_exported_name_appears_twice():
    assert len(set(specdde.__all__)) == len(specdde.__all__)
