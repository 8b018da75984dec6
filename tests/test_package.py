"""The package's public surface."""

import geogossip
from geogossip import routing


def test_every_export_resolves():
    names = geogossip.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(geogossip, name)]
    assert missing == []
    namespace = {}
    exec("from geogossip import *", namespace)
    assert set(names) <= set(namespace)


def test_routing_wrappers_live_in_routing_only():
    # The benchmark reaches these as routing.<name>; the package root does
    # not re-export them.
    names = ("FloodResult", "RouteResult", "flood", "greedy_route",
             "route_to_position")
    for name in names:
        assert not hasattr(geogossip, name), name
        assert name not in geogossip.__all__
        assert hasattr(routing, name), name
