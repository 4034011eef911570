from __future__ import annotations

import pytest

from stellarpair import VertexLabel, from_facets, set_debug_validation


@pytest.fixture
def debug_validation():
    """Turn on the invariant re-checker for the duration of one test."""
    old = set_debug_validation(True)
    yield
    set_debug_validation(old)


@pytest.fixture
def triangle():
    return from_facets([[1, 2, 3]])


@pytest.fixture
def hollow_triangle():
    return from_facets([[1, 2], [2, 3], [1, 3]])


@pytest.fixture
def four_cycle():
    return from_facets([[1, 2], [2, 3], [3, 4], [1, 4]])


@pytest.fixture
def tetra_boundary():
    return from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


@pytest.fixture
def octahedron_boundary():
    # antipodal pairs (1,6), (2,5), (3,4)
    return from_facets(
        [
            [1, 2, 3],
            [1, 2, 4],
            [1, 5, 3],
            [1, 5, 4],
            [6, 2, 3],
            [6, 2, 4],
            [6, 5, 3],
            [6, 5, 4],
        ]
    )


@pytest.fixture
def barycenters_made(monkeypatch):
    """The faces `VertexLabel.barycenter` labels from here on, in call order."""
    made = []
    real = VertexLabel.barycenter

    def counting(cls, face, rnd):
        made.append(face)
        return real(face, rnd)

    monkeypatch.setattr(VertexLabel, "barycenter", classmethod(counting))
    return made
