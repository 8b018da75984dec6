"""The package's public surface."""

import geogossip


def test_every_export_resolves():
    names = geogossip.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(geogossip, name)]
    assert missing == []
    namespace = {}
    exec("from geogossip import *", namespace)
    assert set(names) <= set(namespace)
