from __future__ import annotations

import copy
import pickle
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wooddesargues.kernel import (
    INFINITY,
    CoincidentPointsError,
    CollinearPointsError,
    DegenerateInputError,
    IdenticalCirclesError,
    NotIncidentError,
    ParallelLinesError,
    Circle,
    Line,
    ONE,
    ORIGIN,
    Point,
    Similarity,
    antipode,
    circle_through,
    decimal,
    distance_squared,
    incident,
    is_collinear,
    is_concyclic,
    line_through,
    meet,
    midpoint,
    orthocentre,
    parallel_through,
    perpendicular_at,
    perpendicular_bisector,
    point,
    point_on_unit_circle,
    rational_text,
    second_intersection_of_circles,
    second_intersection_with_line,
    similarity_between,
    tangent_at,
)

UNIT = Circle(ORIGIN, F(1))

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
points = st.builds(point, rationals, rationals)


# --- parametrization ---------------------------------------------------------

def test_unit_circle_parametrization():
    assert point_on_unit_circle(F(0)) == point(1, 0)
    assert point_on_unit_circle(F(1)) == point(0, 1)
    assert point_on_unit_circle(F(2)) == point(F(-3, 5), F(4, 5))
    assert point_on_unit_circle(INFINITY) == point(-1, 0)


@given(rationals)
def test_unit_circle_points_are_on_the_unit_circle(t):
    assert incident(UNIT, point_on_unit_circle(t))


@given(rationals, rationals)
def test_unit_circle_parametrization_is_injective(t1, t2):
    if t1 != t2:
        assert point_on_unit_circle(t1) != point_on_unit_circle(t2)


# --- lines -------------------------------------------------------------------

def test_line_through_examples():
    assert line_through(point(0, -1), point(0, 1)) == Line(1, 0, 0)
    assert line_through(point(F(17, 5), F(24, 5)), point(-2, 3)) == Line(1, -3, 11)
    assert line_through(point(0, 0), point(1, 1)) == Line(1, -1, 0)


def test_line_through_coincident_points_raises():
    with pytest.raises(CoincidentPointsError):
        line_through(point(1, 2), point(1, 2))


@given(points, points)
def test_line_normal_form_is_direction_independent(p, q):
    if p != q:
        line = line_through(p, q)
        assert line == line_through(q, p)
        assert line.evaluate(p) == 0 and line.evaluate(q) == 0


def test_meet_examples():
    assert meet(Line(5, -5, 7), Line(3, 1, -15)) == point(F(17, 5), F(24, 5))
    assert meet(Line(1, 0, 0), Line(0, 1, 0)) == ORIGIN
    with pytest.raises(ParallelLinesError):
        meet(Line(1, 0, 0), Line(1, 0, -1))
    with pytest.raises(ParallelLinesError):
        meet(Line(1, -1, 0), Line(1, -1, 0))


@given(points, points, points)
def test_meet_of_lines_through_a_common_point(p, q, r):
    if not is_collinear(p, q, r) and p != q and p != r:
        assert meet(line_through(p, q), line_through(p, r)) == p


def test_perpendicular_bisector_examples():
    assert perpendicular_bisector(point(0, 0), point(2, 0)) == Line(1, 0, -1)
    assert perpendicular_bisector(point(1, 0), point(F(-7, 5), F(2, 5))) == Line(30, -5, 7)
    assert perpendicular_bisector(point(0, -1), point(0, 3)) == Line(0, 1, -1)


@given(points, points, rationals)
def test_perpendicular_bisector_equidistance(p, q, t):
    if p == q:
        return
    bis = perpendicular_bisector(p, q)
    r = midpoint(p, q) + point(-bis.b, bis.a).scale(t)
    assert bis.evaluate(r) == 0
    assert distance_squared(r, p) == distance_squared(r, q)


def test_perpendicular_and_parallel_examples():
    assert perpendicular_at(point(0, 0), Line(0, 1, 0)) == Line(1, 0, 0)
    assert parallel_through(point(0, 1), Line(0, 1, 0)) == Line(0, 1, -1)
    assert perpendicular_at(point(1, 0), Line(1, -1, 0)) == Line(1, 1, -1)


@given(points, points, points)
def test_perpendicular_at_is_perpendicular(p, q, r):
    if q == r:
        return
    base = line_through(q, r)
    perp = perpendicular_at(p, base)
    assert perp.evaluate(p) == 0
    assert base.a * perp.a + base.b * perp.b == 0


# --- circles -----------------------------------------------------------------

def test_circle_through_examples():
    c = circle_through(point(1, 0), point(0, 1), point(-1, 0))
    assert c == Circle(ORIGIN, F(1))
    c = circle_through(point(0, -1), point(0, 3), point(-2, 3))
    assert c == Circle(point(-1, 1), F(5))
    c = circle_through(point(0, 0), point(2, 2), point(1, 0))
    assert c == Circle(point(F(1, 2), F(3, 2)), F(5, 2))


def test_circle_through_collinear_raises():
    with pytest.raises(CollinearPointsError):
        circle_through(point(0, 0), point(1, 1), point(2, 2))


@given(points, points, points)
def test_circle_through_contains_its_points(p, q, r):
    if p == q or q == r or p == r or is_collinear(p, q, r):
        return
    c = circle_through(p, q, r)
    assert incident(c, p) and incident(c, q) and incident(c, r)


def test_second_intersection_with_line_examples():
    assert second_intersection_with_line(UNIT, Line(1, 0, 0), point(0, 1)) == point(0, -1)

    c2 = Circle(point(2, 2), F(5))
    assert second_intersection_with_line(c2, Line(1, 0, 0), point(0, 1)) == point(0, 3)

    # y = x/3 + 1, Vieta second root
    assert (second_intersection_with_line(c2, Line(1, -3, 3), point(0, 1))
            == point(F(21, 5), F(12, 5)))


def test_second_intersection_tangency_and_errors():
    # the tangent y = 1 touches at the known point, which comes back
    assert second_intersection_with_line(UNIT, Line(0, 1, -1), point(0, 1)) == point(0, 1)
    with pytest.raises(NotIncidentError):
        second_intersection_with_line(UNIT, Line(1, 0, 0), point(1, 1))


@given(points, rationals, rationals)
def test_second_intersection_is_an_involution(center, t, u):
    known = point_on_unit_circle(t).scale(2) + center  # on circle of radius 2
    c = Circle(center, F(4))
    other = point_on_unit_circle(u).scale(2) + center
    if other == known:
        return
    line = line_through(known, other)
    got = second_intersection_with_line(c, line, known)
    assert got == other
    assert second_intersection_with_line(c, line, got) == known


def test_second_intersection_of_circles_examples():
    pentagon = Circle(point(F(1, 2), F(3, 2)), F(5, 2))
    assert second_intersection_of_circles(pentagon, UNIT, point(1, 0)) == point(F(-4, 5), F(3, 5))

    s3 = Circle(point(0, 1), F(2))
    s2 = Circle(point(F(3, 5), F(-4, 5)), F(4, 5))
    assert second_intersection_of_circles(s3, s2, point(1, 0)) == point(F(-1, 5), F(-2, 5))

    # externally tangent circles meet only at the known point
    c1 = Circle(point(-1, 0), F(1))
    c2 = Circle(point(1, 0), F(1))
    assert second_intersection_of_circles(c1, c2, ORIGIN) == ORIGIN

    with pytest.raises(IdenticalCirclesError):
        second_intersection_of_circles(UNIT, UNIT, point(1, 0))
    # on neither circle, on c1 only, on c2 only, on the radical axis x = 0 only
    for known in (point(5, 5), point(-2, 0), point(2, 0), point(0, 5)):
        with pytest.raises(NotIncidentError):
            second_intersection_of_circles(c1, c2, known)


def test_antipode_and_tangent_examples():
    assert antipode(UNIT, point(1, 0)) == point(-1, 0)
    assert tangent_at(UNIT, point(0, 1)) == Line(0, 1, -1)
    pentagon = Circle(point(F(1, 2), F(3, 2)), F(5, 2))
    assert antipode(pentagon, point(F(-4, 5), F(3, 5))) == point(F(9, 5), F(12, 5))
    with pytest.raises(NotIncidentError):
        antipode(UNIT, point(2, 0))
    with pytest.raises(NotIncidentError):
        tangent_at(UNIT, point(2, 0))


@given(rationals, rationals)
def test_tangent_meets_circle_only_at_the_point(t, u):
    p = point_on_unit_circle(t)
    tang = tangent_at(UNIT, p)
    assert second_intersection_with_line(UNIT, tang, p) == p
    q = point_on_unit_circle(u)
    if q != p:
        assert tang.evaluate(q) != 0


# --- orthocentre -------------------------------------------------------------

def test_orthocentre_examples():
    assert orthocentre(point(0, 0), point(1, 0), point(0, 1)) == ORIGIN
    assert orthocentre(point(0, -1), point(F(-3, 5), F(4, 5)),
                       point(F(-4, 5), F(3, 5))) == point(F(-7, 5), F(2, 5))
    assert orthocentre(point(0, 3), point(F(21, 5), F(12, 5)),
                       point(4, 3)) == point(F(21, 5), F(22, 5))
    with pytest.raises(CollinearPointsError):
        orthocentre(point(0, 0), point(1, 1), point(2, 2))


@given(points, points, points)
@settings(max_examples=30)
def test_orthocentre_is_symmetric_in_its_arguments(p, q, r):
    if p == q or q == r or p == r or is_collinear(p, q, r):
        return
    h = orthocentre(p, q, r)
    assert h == orthocentre(q, r, p) == orthocentre(r, p, q)
    assert h == orthocentre(q, p, r) == orthocentre(p, r, q) == orthocentre(r, q, p)


# --- predicates --------------------------------------------------------------

def test_collinearity_examples():
    assert is_collinear(point(F(17, 5), F(24, 5)), point(-2, 3), point(F(-7, 5), F(16, 5)))
    assert not is_collinear(point(0, 0), point(1, 0), point(0, 1))


def test_concyclicity_examples():
    assert is_concyclic(point(0, 0), point(2, 2), point(-1, 1), point(F(7, 5), F(14, 5)))
    assert not is_concyclic(point(0, 0), point(1, 0), point(0, 1), point(5, 5))
    # a collinear quadruple is not a circle
    assert not is_concyclic(point(0, 0), point(1, 1), point(2, 2), point(3, 3))


def test_incident_examples():
    assert incident(Line(1, -3, 11), point(F(2, 5), F(19, 5)))
    assert incident(UNIT, point(F(-3, 5), F(4, 5)))
    assert not incident(UNIT, point(1, 1))


# --- similarity --------------------------------------------------------------

def test_similarity_reference_triangles():
    src = [point(0, -1), point(F(-3, 5), F(4, 5)), point(F(-4, 5), F(3, 5))]
    dst = [point(0, 3), point(F(21, 5), F(12, 5)), point(4, 3)]
    sim = similarity_between(src, dst)
    assert sim is not None
    assert sim.alpha == point(-1, -2)
    assert sim.beta == point(2, 2)
    assert sim.fixed_point() == point(1, 0)
    assert sim.ratio_squared == 5


def test_similarity_quadrangle_instance():
    src = [point(F(-3, 5), F(4, 5)), point(F(21, 5), F(12, 5)),
           point(F(-7, 5), F(16, 5)), point(F(17, 5), F(24, 5))]
    dst = [point(0, 0), point(2, 2), point(-1, 1), point(1, 3)]
    sim = similarity_between(src, dst)
    assert sim is not None
    assert sim.alpha == point(F(1, 2), F(1, 4))
    assert sim.fixed_point() is not None


def test_similarity_identity_and_absence():
    pts = [point(0, 0), point(1, 0), point(0, 1)]
    sim = similarity_between(pts, pts)
    assert sim is not None and sim.alpha == ONE and sim.beta == ORIGIN
    assert sim.fixed_point() is None
    # breaking the third pair kills the map
    assert similarity_between(pts, [pts[0], pts[1], point(5, 5)]) is None
    with pytest.raises(DegenerateInputError):
        similarity_between([pts[0], pts[0]], [pts[1], pts[2]])


@given(points, points, points, points)
@settings(max_examples=30)
def test_similarity_composition_is_identity(a, b, c, d):
    if a == b or c == d:
        return
    fwd = similarity_between([a, b], [c, d])
    back = similarity_between([c, d], [a, b])
    assert fwd is not None and back is not None
    assert Similarity(back.alpha, ORIGIN).apply(fwd.alpha) == ONE
    assert back.apply(fwd.beta) == ORIGIN
    for p in (a, b):
        assert back.apply(fwd.apply(p)) == p


# --- value semantics ---------------------------------------------------------

VALUES = [
    (point(F(1, 2), 3), ("hom",)),
    (Line(1, -3, 11), ("a", "b", "c")),
    (Circle(point(1, 2), F(9, 4)), ("center", "radius_squared")),
    (Similarity(point(-1, -2), point(2, 2)), ("alpha", "beta")),
]


@pytest.mark.parametrize("value, fields", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_kernel_values_are_immutable_copyable_and_hashable(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and not twin != value
        assert hash(twin) == hash(value)
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))


def test_kernel_values_compare_by_type_and_fields():
    assert Point((1, 2, 3)) != Line(1, 2, 3)
    assert Line(1, 2, 3) != Point((1, 2, 3))
    assert Point((1, 2, 3)) != (1, 2, 3)
    assert Circle(ORIGIN, F(1)) == UNIT and Circle(ORIGIN, F(2)) != UNIT
    assert Similarity(ONE, ORIGIN) == Similarity(ONE, ORIGIN) != Similarity(ONE, ONE)
    assert len({point(1, 2), point(F(2, 2), 2), Line(1, 2, 3), Line(1, 2, 3)}) == 2


def test_degenerate_circle_and_similarity_raise():
    with pytest.raises(DegenerateInputError):
        Circle(ORIGIN, F(0))
    with pytest.raises(DegenerateInputError):
        Circle(ORIGIN, F(-1))
    with pytest.raises(DegenerateInputError):
        Similarity(ORIGIN, ONE)


# --- scalars -----------------------------------------------------------------

def test_scalar_canonical_form():
    x = F(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert F(2, 4) + F(1, 4) == F(3, 4)
    with pytest.raises(ZeroDivisionError):
        F(1, 0)


# --- decimal text ------------------------------------------------------------

def test_decimal_matches_str_past_the_digit_limit():
    rng = random.Random(7)
    values = [rng.randrange(10 ** (d - 1), 10 ** d) for d in (4301, 4302, 9000, 20000, 50000)]
    values += [-v for v in values[:3]]
    # either side of the digit limit, and of the bit splits inside the conversion
    values += [10 ** k + e for k in (4299, 4300, 4301, 12345) for e in (0, -1)]
    values += [(1 << k) + e for k in (8192, 16384, 16385, 65536) for e in (0, -1)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(values[0])  # so the values below take the long path
        got = [decimal(n) for n in values]
        sys.set_int_max_str_digits(0)
        assert got == [str(n) for n in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_text_and_reprs_match_str_past_the_digit_limit():
    big = 10 ** 5000 + 7
    values = [F(big), F(-big), F(1, 10 ** 5000), F(-3, 10 ** 4400 + 1), F(big, 3)]
    p = point(F(1, 10 ** 5000), F(-big))
    circle = Circle(p, F(big, 3))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(F(big))  # so the values below take the long path
        got = [rational_text(q) for q in values], repr(p), repr(circle)
        sys.set_int_max_str_digits(0)
        assert got == ([str(q) for q in values], f"({p.x}, {p.y})",
                       f"Circle(center=({p.x}, {p.y}), r2={circle.radius_squared})")
    finally:
        sys.set_int_max_str_digits(limit)
