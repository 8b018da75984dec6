"""Shared fixtures: small deterministic graphs and hand-built point sets."""

import numpy as np
import pytest
from hypothesis import strategies as st

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
    `drawn` counts the uniforms handed out, and stands in for the
    `bit_generator.state` that a bulk run saves and restores."""

    drawn = 0

    def random(self, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return LAST if size is None else np.full(size, LAST)

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.drawn

    @state.setter
    def state(self, drawn):
        self.drawn = drawn


def write_records(fh, records) -> None:
    """Write MetricsRecords as CSV rows, one line each, no header."""
    for rec in records:
        fh.write(rec.to_line() + "\n")


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


@st.composite
def small_graphs(draw):
    """Geometric graphs on 1 to 30 drawn points, repeats allowed, with a
    radius in [0.01, 0.8]: single nodes, isolated nodes and several
    components all come up."""
    coord = st.floats(0.0, 1.0)
    xy = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    return build_graph(make_points(xy), draw(st.floats(0.01, 0.8)))


# one node; three isolated nodes; two components of two nodes each
SMALL_GRAPHS = [
    build_graph(make_points([(0.5, 0.5)]), 0.1),
    build_graph(make_points([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)]), 0.1),
    build_graph(make_points([(0.1, 0.1), (0.15, 0.1),
                             (0.8, 0.8), (0.85, 0.8)]), 0.1),
]


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


@pytest.fixture(scope="session")
def straddler():
    """Node 2 has one graph neighbor (node 4) but it sits across the leaf
    boundary, so in-leaf exchanges and floods cannot reach node 2."""
    pts = make_points([(0.2, 0.2), (0.25, 0.2), (0.45, 0.45), (0.2, 0.8),
                       (0.52, 0.52), (0.8, 0.8), (0.8, 0.2)])
    graph = build_graph(pts, 0.1)
    hierarchy = build_hierarchy(pts, 2)
    return graph, hierarchy
