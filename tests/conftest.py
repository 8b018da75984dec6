"""Shared fixtures: small deterministic graphs and hand-built point sets."""

import numpy as np
import pytest

from geogossip import (PointSet, build_graph, build_hierarchy,
                       connectivity_radius, sample_points)

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# the largest double below 1: every pick made from it must be the last one
LAST = np.nextafter(1.0, 0.0)


class LastRows:
    """Stands in for a state's Generator; every uniform it returns is LAST.
    `drawn` counts the uniforms handed out."""

    drawn = 0

    def random(self, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return LAST if size is None else np.full(size, LAST)


def make_points(xy) -> PointSet:
    """Wrap explicit coordinates as a PointSet (seed -1 marks synthetic)."""
    arr = np.ascontiguousarray(xy, dtype=np.float64)
    return PointSet(xy=arr, n=arr.shape[0], seed=-1)


def grid_points(side: int) -> PointSet:
    """side x side points at cell centers (i+0.5)/side; fills every cell of
    any power-of-two partition evenly, so no cell is ever empty."""
    ticks = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    return make_points(np.column_stack([gx.ravel(), gy.ravel()]))


@pytest.fixture(scope="session")
def graph256():
    pts = sample_points(256, seed=11)
    return build_graph(pts, connectivity_radius(256, 2.0))


@pytest.fixture(scope="session")
def hier256():
    pts = sample_points(256, seed=11)
    return build_hierarchy(pts, threshold=16)


@pytest.fixture(scope="session")
def quad16():
    """4x4 point grid, threshold 4: four leaves of exactly four members."""
    pts = grid_points(4)
    graph = build_graph(pts, 1.5)
    hierarchy = build_hierarchy(pts, threshold=4)
    return graph, hierarchy
