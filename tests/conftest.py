from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest

from wooddesargues import ConfigurationSeed, build_configuration, verifier
from wooddesargues.configuration import derive_figures, derive_joins, derive_quadrangle_maps
from wooddesargues.kernel import Circle, Point, point


REFERENCE_SEED = ConfigurationSeed(F(0), F(1), F(-1), F(2), F(3), F(-3, 2))

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reference_config():
    return build_configuration(REFERENCE_SEED)


@pytest.fixture(scope="session")
def reference_derived(reference_config):
    return derive_figures(reference_config)


def run_check(name: str, config, derived=None, claim_set=verifier.ClaimSet):
    """The result of the one registered check ``name`` on ``config``, as
    ``verify_all`` names it, filling a ``claim_set``; ``derived`` defaults to
    the figures of ``config``.  As in ``verify_all``, the quadrangle maps and
    the pentagon joins are added where it has none."""
    if derived is None:
        derived = derive_figures(config)
    if derived.quadrangle_maps is None:
        derived = dataclasses.replace(derived, quadrangle_maps=derive_quadrangle_maps(config))
    if derived.joins is None:
        derived = dataclasses.replace(derived, joins=derive_joins(config, derived.pentagon))
    cs = claim_set()
    dict(verifier.CHECKS)[name](cs, config, derived)
    return cs.result(name)


def mutate_configuration(config, kind: str, label: str, axis: str, delta):
    """Return a copy of ``config`` with a single coordinate nudged by ``delta``."""
    delta = F(delta)

    def bump(p: Point) -> Point:
        return point(p.x + delta, p.y) if axis == "x" else point(p.x, p.y + delta)

    points = dict(config.points)
    centers = dict(config.centers)
    circles = dict(config.circles)
    j = config.j
    if kind == "point":
        points[label] = bump(points[label])
    elif kind == "center":
        centers[label] = bump(centers[label])
    elif kind == "circle":  # its stored centre, with its radius kept
        circles[label] = Circle(bump(circles[label].center), circles[label].radius_squared)
    elif kind == "j":
        j = bump(j)
    else:
        raise ValueError(kind)
    return dataclasses.replace(config, points=points, centers=centers, circles=circles, j=j)
