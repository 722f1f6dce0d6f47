"""The package's public names."""

import zoft


def test_every_public_name_resolves():
    assert [name for name in zoft.__all__ if not hasattr(zoft, name)] == []
    assert len(set(zoft.__all__)) == len(zoft.__all__)


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from zoft import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(zoft.__all__)
