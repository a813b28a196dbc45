"""The integer kernel against step-by-step Fraction formulas.

Every kernel construction and predicate works on integer homogeneous
coordinates.  The functions prefixed ``fraction_`` below compute the same
quantities with plain ``Fraction`` arithmetic, one operation at a time; they
are the oracle, kept here and not in the package.  Each property holds one
kernel function equal to its formula on rationals with unequal denominators,
negative values and 200-digit numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations
from math import gcd, isclose, lcm, sqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wooddesargues.kernel import (
    _equidistant,
    _on_altitudes_over,
    _reflected_meet,
    Circle,
    CoincidentPointsError,
    CollinearPointsError,
    GeometryError,
    IdenticalCirclesError,
    Line,
    ONE,
    Similarity,
    antipode,
    circle_through,
    circumcenter,
    collinearity_residual,
    concyclicity_determinant,
    distance_squared,
    euler_sum,
    float_point,
    float_sqrt,
    incident,
    is_collinear,
    line_through,
    meet,
    midpoint,
    orthocentre,
    parallel_through,
    perpendicular_at,
    perpendicular_bisector,
    point,
    point_on_unit_circle,
    radical_axis,
    ring_orthocentres,
    second_intersection_of_circles,
    second_intersection_with_line,
    tangent_at,
    to_float,
)

HUGE = 10 ** 200
small = st.fractions(min_value=-40, max_value=40, max_denominator=50)
huge = st.builds(F, st.integers(-HUGE, HUGE), st.integers(1, HUGE))
rationals = st.one_of(small, huge)
points = st.builds(point, rationals, rationals)
# a coarse grid, so that equal and collinear points come up often
grid = st.builds(point, st.fractions(-2, 2, max_denominator=2),
                 st.fractions(-2, 2, max_denominator=2))
lines = st.builds(Line, st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE),
                  st.integers(-HUGE, HUGE)).filter(lambda l: l.a or l.b)

EXAMPLES = settings(max_examples=60, deadline=None)


# --- the Fraction formulas ------------------------------------------------------


def fraction_line(a, b, c) -> Line:
    a, b, c = F(a), F(b), F(c)
    denom = a.denominator * b.denominator * c.denominator
    ia, ib, ic = (int(a * denom), int(b * denom), int(c * denom))
    g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
    ia, ib, ic = ia // g, ib // g, ic // g
    lead = ia if ia != 0 else (ib if ib != 0 else ic)
    if lead < 0:
        ia, ib, ic = -ia, -ib, -ic
    return Line(ia, ib, ic)


def fraction_add(p, q):
    return point(p.x + q.x, p.y + q.y)


def fraction_sub(p, q):
    return point(p.x - q.x, p.y - q.y)


def fraction_scale(p, k):
    return point(p.x * k, p.y * k)


def fraction_norm_squared(p):
    return p.x * p.x + p.y * p.y


def fraction_dot(p, q):
    return p.x * q.x + p.y * q.y


def fraction_cmul(p, q):
    return point(p.x * q.x - p.y * q.y, p.x * q.y + p.y * q.x)


def fraction_cdiv(p, q):
    d = fraction_norm_squared(q)
    return point((p.x * q.x + p.y * q.y) / d, (p.y * q.x - p.x * q.y) / d)


def fraction_evaluate(l, p):
    return l.a * p.x + l.b * p.y + l.c


def fraction_power(circle, p):
    return fraction_norm_squared(fraction_sub(p, circle.center)) - circle.radius_squared


def fraction_line_through(p, q):
    a = q.y - p.y
    b = p.x - q.x
    return fraction_line(a, b, -(a * p.x + b * p.y))


def fraction_meet(l1, l2):
    det = l1.a * l2.b - l2.a * l1.b
    return point(F(l1.b * l2.c - l2.b * l1.c, det), F(l1.c * l2.a - l2.c * l1.a, det))


def fraction_perpendicular_bisector(p, q):
    return fraction_line(2 * (q.x - p.x), 2 * (q.y - p.y),
                         -(fraction_norm_squared(q) - fraction_norm_squared(p)))


def fraction_perpendicular_at(p, l):
    a, b = -l.b, l.a
    return fraction_line(a, b, -(a * p.x + b * p.y))


def fraction_parallel_through(p, l):
    return fraction_line(l.a, l.b, -(l.a * p.x + l.b * p.y))


def fraction_collinearity_residual(p, q, r):
    u, v = fraction_sub(q, p), fraction_sub(r, p)
    return u.x * v.y - u.y * v.x


def fraction_circumcenter(p, q, r):
    return fraction_meet(fraction_perpendicular_bisector(p, q),
                         fraction_perpendicular_bisector(q, r))


def fraction_orthocentre(p, q, r):
    return fraction_meet(fraction_perpendicular_at(p, fraction_line_through(q, r)),
                         fraction_perpendicular_at(q, fraction_line_through(p, r)))


def fraction_concyclicity_determinant(p, q, r, s):
    rows = [(t.x, t.y, fraction_norm_squared(t)) for t in (p, q, r, s)]
    m = [(rx - rows[0][0], ry - rows[0][1], rz - rows[0][2]) for rx, ry, rz in rows[1:]]
    return (m[0][0] * (m[1][1] * m[2][2] - m[2][1] * m[1][2])
            - m[0][1] * (m[1][0] * m[2][2] - m[2][0] * m[1][2])
            + m[0][2] * (m[1][0] * m[2][1] - m[2][0] * m[1][1]))


def fraction_second_intersection_with_line(circle, l, known):
    d = point(F(-l.b), F(l.a))
    k = fraction_sub(known, circle.center)
    t = F(-2) * (d.x * k.x + d.y * k.y) / fraction_norm_squared(d)
    if t == 0:
        return known, True
    return fraction_add(known, fraction_scale(d, t)), False


def fraction_radical_axis(c1, c2):
    return fraction_line(2 * (c2.center.x - c1.center.x), 2 * (c2.center.y - c1.center.y),
                         (fraction_norm_squared(c1.center) - c1.radius_squared)
                         - (fraction_norm_squared(c2.center) - c2.radius_squared))


def fraction_tangent_at(circle, p):
    n = fraction_sub(p, circle.center)
    return fraction_line(n.x, n.y, -(n.x * p.x + n.y * p.y))


def circle_on(center, p) -> Circle:
    """The circle about ``center`` through ``p``, radius from the Fraction formula."""
    return Circle(center, fraction_norm_squared(fraction_sub(p, center)))


# --- the homogeneous view -----------------------------------------------------


@given(points)
@EXAMPLES
def test_view_is_canonical(p):
    X, Y, Z = p.hom
    assert Z > 0 and gcd(X, Y, Z) == 1
    assert F(X, Z) == p.x and F(Y, Z) == p.y
    assert Z == p.x.denominator * p.y.denominator // gcd(p.x.denominator, p.y.denominator)


@given(points, points)
@EXAMPLES
def test_prefilled_views_equal_computed_ones(p, q):
    for made in (p + q, p - q, -p, p.rot90(), midpoint(p, q)):
        assert made.hom == point(made.x, made.y).hom
        X, Y, Z = made.hom
        assert Z > 0 and gcd(X, Y, Z) == 1


@given(st.one_of(grid, points), st.one_of(grid, points))
@EXAMPLES
def test_points_are_equal_exactly_when_views_are(p, q):
    same = (p.x, p.y) == (q.x, q.y)
    assert (p == q) == same == (p.hom == q.hom)
    assert (p != q) == (not same)
    if same:
        assert hash(p) == hash(q)


@given(points, points, rationals)
@EXAMPLES
def test_point_arithmetic(p, q, k):
    assert p + q == fraction_add(p, q)
    assert p - q == fraction_sub(p, q)
    assert -p == point(-p.x, -p.y)
    assert p.scale(k) == fraction_scale(p, k)
    assert p.rot90() == point(-p.y, p.x)
    assert p.norm_squared() == fraction_norm_squared(p)
    assert midpoint(p, q) == point((p.x + q.x) / 2, (p.y + q.y) / 2)
    assert distance_squared(p, q) == fraction_norm_squared(fraction_sub(p, q))
    if q.x or q.y:
        assert p.cdiv(q) == fraction_cdiv(p, q)


@given(rationals)
@EXAMPLES
def test_point_on_unit_circle(t):
    d = 1 + t * t
    assert point_on_unit_circle(t) == point((1 - t * t) / d, 2 * t / d)


@given(points, points, points)
@EXAMPLES
def test_similarity_arithmetic(a, b, p):
    assume(a.x or a.y)
    sim = Similarity(a, b)
    assert sim.apply(p) == fraction_add(fraction_cmul(a, p), b)
    assert sim.ratio_squared == fraction_norm_squared(a)
    if a != ONE:
        assert sim.fixed_point() == fraction_cdiv(b, fraction_sub(ONE, a))


@given(st.one_of(grid, points), st.one_of(grid, points), st.one_of(grid, points),
       st.one_of(grid, points))
@EXAMPLES
def test_similarity_sends_exactly_its_images(a, b, p, q):
    assume(a.x or a.y)
    sim = Similarity(a, b)
    image = fraction_add(fraction_cmul(a, p), b)
    assert sim.sends(p, image)
    assert sim.sends(p, q) == (image == q)
    # off the image by one unit in either coordinate
    assert not sim.sends(p, fraction_add(image, ONE))
    assert not sim.sends(p, fraction_add(image, point(0, 1)))


@given(st.one_of(grid, points), st.one_of(grid, points), st.one_of(grid, points),
       st.one_of(grid, points))
@EXAMPLES
def test_similarity_pinned_by_two_pairs(s0, s1, t0, t1):
    assume(s0 != s1)
    sim = Similarity.pinned_by((s0, s1), (t0, t1))
    if t0 == t1:
        assert sim is None
        return
    alpha = fraction_cdiv(fraction_sub(t1, t0), fraction_sub(s1, s0))
    assert sim.alpha == alpha
    assert sim.beta == fraction_sub(t0, fraction_cmul(alpha, s0))


# --- lines ------------------------------------------------------------------------


@given(points, points, lines)
@EXAMPLES
def test_lines(p, q, l):
    assert l.evaluate(p) == fraction_evaluate(l, p)
    assert incident(l, p) == (fraction_evaluate(l, p) == 0)
    assert perpendicular_at(p, l) == fraction_perpendicular_at(p, l)
    assert parallel_through(p, l) == fraction_parallel_through(p, l)
    if p != q:
        assert line_through(p, q) == fraction_line_through(p, q)
        assert perpendicular_bisector(p, q) == fraction_perpendicular_bisector(p, q)


@given(lines, lines)
@EXAMPLES
def test_meet(l1, l2):
    assume(l1.a * l2.b != l2.a * l1.b)
    assert meet(l1, l2) == fraction_meet(l1, l2)


@given(lines)
@EXAMPLES
def test_line_normal_form(l):
    a, b, c = l.a, l.b, l.c
    assert Line.from_coefficients(a, b, c) == fraction_line(a, b, c)
    assert Line.from_coefficients(-3 * a, -3 * b, -3 * c) == fraction_line(a, b, c)


# --- predicates -------------------------------------------------------------------


@given(st.one_of(grid, points), st.one_of(grid, points), st.one_of(grid, points))
@EXAMPLES
def test_collinearity(p, q, r):
    residual = fraction_collinearity_residual(p, q, r)
    assert collinearity_residual(p, q, r) == residual
    assert is_collinear(p, q, r) == (residual == 0)


@given(st.one_of(grid, points), st.one_of(grid, points),
       st.one_of(grid, points), st.one_of(grid, points))
@EXAMPLES
def test_concyclicity_determinant(p, q, r, s):
    assert concyclicity_determinant(p, q, r, s) == fraction_concyclicity_determinant(p, q, r, s)


@given(points, points, points)
@EXAMPLES
def test_circumcentre_and_orthocentre(p, q, r):
    assume(fraction_collinearity_residual(p, q, r) != 0)
    o = fraction_circumcenter(p, q, r)
    assert orthocentre(p, q, r) == fraction_orthocentre(p, q, r)
    # the circumcentre is the same whatever centre is passed, true or not
    for centre in (o, fraction_add(o, ONE), p, None):
        assert circumcenter(p, q, r, centre) == o
    assert circle_through(p, q, r) == circle_on(o, p)


@st.composite
def rings(draw):
    """4 or 5 points on a circle about o, then up to two of them moved off it,
    onto another ring point or onto the line through two others; and o."""
    size = draw(st.sampled_from([4, 5]))
    o = draw(points)
    r = draw(rationals.filter(bool))
    ts = draw(st.lists(small, min_size=size, max_size=size))
    ring = [fraction_add(o, fraction_scale(point_on_unit_circle(t), r)) for t in ts]
    index = st.integers(0, size - 1)
    for i, kind, j, k, t in draw(st.lists(
            st.tuples(index, st.sampled_from(["off", "onto", "on line"]), index, index, small),
            max_size=2)):
        if kind == "off":
            ring[i] = fraction_add(ring[i], ONE)
        elif kind == "onto":
            ring[i] = ring[j]
        else:
            ring[i] = fraction_add(ring[j], fraction_scale(fraction_sub(ring[k], ring[j]), t))
    return ring, o


def as_far_as_the_first(ring, centre) -> list[bool]:
    """Per ring point: whether it lies on the circle about centre through the first."""
    if centre is None:
        return []
    r2 = fraction_norm_squared(fraction_sub(ring[0], centre))
    return [fraction_norm_squared(fraction_sub(p, centre)) == r2 for p in ring]


@given(rings(), st.sampled_from(["true", "moved", "ring point", "none"]))
@EXAMPLES
def test_ring_orthocentres_equal_the_orthocentre_of_each_triangle(ring_and_centre, which):
    # the ring's own centre fits the triangles whose three points stayed on
    # the circle and are distinct, the moved one and a ring point at most
    # some, and None hands every triangle to orthocentre
    ring, o = ring_and_centre
    centre = {"true": o, "moved": fraction_add(o, ONE), "ring point": ring[0], "none": None}[which]
    triangles = list(combinations(range(len(ring)), 3))
    expected = [None if fraction_collinearity_residual(*tri_points) == 0
                else fraction_orthocentre(*tri_points)
                for tri_points in ([ring[i] for i in tri] for tri in triangles)]
    on = as_far_as_the_first(ring, centre)
    hs, _ = ring_orthocentres(ring, triangles, centre if all(on) else None)
    assert hs == expected


@given(rings(), st.sampled_from(["true", "moved", "ring point", "none"]))
@example(([point(3, 4), point(-5, 0), point(0, -5), point(F(7, 5), F(24, 5))], point(0, 0)), "true")
@EXAMPLES
def test_ring_orthocentres_hand_back_the_sum_of_an_inscribed_ring(ring_and_centre, which):
    # T = ring sum - 2 centre comes back, over the lcm the orthocentres were
    # summed over, only when every ring point is on the circle about the
    # centre and no two coincide; a quadrangle's orthocentres are then T - v
    ring, o = ring_and_centre
    centre = {"true": o, "moved": fraction_add(o, ONE), "ring point": ring[0], "none": None}[which]
    on = as_far_as_the_first(ring, centre)
    triangles = list(combinations(range(len(ring)), 3))
    hs, total = ring_orthocentres(ring, triangles, centre if all(on) else None)
    if centre is None or not all(on) or len(set(ring)) < len(ring):
        assert total is None
        return
    X, Y, d = total
    t = point(F(X, d), F(Y, d))
    assert t == euler_sum(ring, centre)
    if len(ring) == 4:  # triangle n leaves out vertex 3 - n
        assert hs == [fraction_sub(t, ring[3 - n]) for n in range(4)]


@st.composite
def inscribed(draw):
    """4 or 5 distinct points on a circle, and its centre: over one shared
    denominator d (unit-circle points scaled by the lcm of their denominators
    over d, about a centre over d), or over the unit circle's own, mostly
    coprime, denominators."""
    unit = [point_on_unit_circle(t) for t in draw(st.lists(small, min_size=4, max_size=5,
                                                           unique=True))]
    if draw(st.booleans()):
        d = draw(st.integers(1, HUGE))
        scale = F(lcm(*(p.hom[2] for p in unit)), d)
        o = point(*(F(draw(st.integers(-HUGE, HUGE)), d) for _ in "xy"))
    else:
        scale, o = draw(rationals.filter(bool)), draw(points)
    return [fraction_add(o, fraction_scale(p, scale)) for p in unit], o


@given(inscribed())
@EXAMPLES
def test_ring_orthocentres_sum_over_a_common_denominator(ring_and_centre):
    # every triangle of the ring is inscribed about o, so each orthocentre is
    # an Euler sum over the lcm of the ring's and o's denominators
    ring, o = ring_and_centre
    triangles = list(combinations(range(len(ring)), 3))
    expected = [orthocentre(*(ring[i] for i in tri)) for tri in triangles]
    assert ring_orthocentres(ring, triangles, o)[0] == expected


@given(inscribed(), st.integers(0, 3), st.sampled_from([ONE, point(F(1, 7), F(-2, 3))]))
@EXAMPLES
def test_equidistance_is_decided_as_the_distances_compare(ring_and_centre, i, nudge):
    # the bilinear form (p - p0).(p + p0 - 2o) agrees with comparing the
    # distances themselves, on the ring and with one of its points moved;
    # an accepted centre is returned as given, and the circle has the
    # squared distance from it
    ring, o = ring_and_centre
    moved = list(ring)
    moved[i] = fraction_add(ring[i], nudge)
    for points in (ring, moved):
        far = [distance_squared(p, o) for p in points]
        assert _equidistant(o, points) == (far == [far[0]] * len(far))
    assert circumcenter(*ring[:3], o) is o
    assert circle_through(*ring[:3]) == circle_on(o, ring[0])


@given(inscribed(), st.sampled_from([ONE, point(F(1, 7), F(-2, 3))]))
@EXAMPLES
def test_the_altitude_test_over_the_ring_denominator(ring_and_centre, nudge):
    # over the lcm d of the ring's and the centre's Z, each orthocentre is on
    # the altitudes exactly as the two dot products (h - p).(r - q) and
    # (h - q).(r - p) over rationals vanish, and a moved one is not
    ring, o = ring_and_centre
    d = lcm(o.hom[2], *(p.hom[2] for p in ring))
    over = [(X * (d // Z), Y * (d // Z)) for X, Y, Z in (p.hom for p in ring)]
    for tri in combinations(range(len(ring)), 3):
        p, q, r = (ring[n] for n in tri)
        h = orthocentre(p, q, r)
        for g, on in ((h, True), (fraction_add(h, nudge), False)):
            assert (fraction_dot(fraction_sub(g, p), fraction_sub(r, q)) == 0
                    == fraction_dot(fraction_sub(g, q), fraction_sub(r, p))) == on
            assert _on_altitudes_over(g, d, *(over[n] for n in tri)) == on


@pytest.mark.skipif(not __debug__, reason="python -O strips the altitude assert")
@given(inscribed(), st.integers(0, 3))
@EXAMPLES
def test_a_ring_point_marked_on_its_circle_wrongly_fails_the_altitude_assert(
        ring_and_centre, i):
    # Euler's sum about o is no orthocentre of a triangle through a point
    # off the circle, so the assert over the ring's numerators catches it
    ring, o = ring_and_centre
    ring[i] = fraction_add(ring[i], ONE)
    assume(distance_squared(ring[i], o) != distance_squared(ring[i - 1], o))
    with pytest.raises(AssertionError):
        ring_orthocentres(ring, combinations(range(len(ring)), 3), o)


@given(points, points, rationals, st.one_of(st.none(), points))
@EXAMPLES
def test_orthocentre_of_collinear_points_raises_whatever_centre_is_passed(p, q, t, centre):
    r = fraction_add(p, fraction_scale(fraction_sub(q, p), t))
    with pytest.raises(CollinearPointsError):
        orthocentre(p, q, r)
    # a collinear triangle of a ring has no orthocentre about any centre; the
    # midpoint of p and q is equidistant from two of its points, p from all
    # three when they coincide
    for c in (centre, midpoint(p, q), p):
        on = as_far_as_the_first([p, q, r], c)
        hs = ring_orthocentres([p, q, r], [(0, 1, 2)], c if all(on) else None)
        assert hs == ([None], None)


@given(points, points, rationals, st.one_of(st.none(), points))
@EXAMPLES
def test_circle_through_collinear_points_raises_whatever_centre_is_passed(p, q, t, centre):
    r = fraction_add(p, fraction_scale(fraction_sub(q, p), t))
    assume(p != q and r != p and r != q)
    with pytest.raises(CollinearPointsError):
        circle_through(p, q, r)
    # each midpoint is equidistant from two of the three points
    for c in (centre, midpoint(p, q), midpoint(q, r)):
        with pytest.raises(CollinearPointsError):
            circumcenter(p, q, r, c)


@given(points, points, st.one_of(st.none(), points))
@EXAMPLES
def test_coincident_points_raise_whatever_centre_is_passed(p, q, centre):
    assume(p != q)
    # the midpoint of p and q is equidistant from all three of p, p, q
    for args in ((p, p, q), (p, q, p), (q, p, p), (p, p, p)):
        with pytest.raises(CoincidentPointsError):
            circle_through(*args)
        for c in (centre, midpoint(p, q), p):
            with pytest.raises(CoincidentPointsError):
                circumcenter(*args, c)


# --- circles ----------------------------------------------------------------------


@given(points, points, points)
@EXAMPLES
def test_power_antipode_and_tangent(center, on, p):
    assume(center != on)
    circle = circle_on(center, on)
    assert circle.power(p) == fraction_power(circle, p)
    assert incident(circle, p) == (fraction_power(circle, p) == 0)
    assert antipode(circle, on) == fraction_sub(fraction_scale(center, 2), on)
    assert tangent_at(circle, on) == fraction_tangent_at(circle, on)


@given(points, points, points)
@example(point(0, 0), point(1, 0), point(1, 1))  # the tangent x = 1
@EXAMPLES
def test_second_intersection_with_line(center, known, other):
    assume(center != known and known != other)
    circle = circle_on(center, known)
    line = fraction_line_through(known, other)
    got = second_intersection_with_line(circle, line, known)
    expected, tangent = fraction_second_intersection_with_line(circle, line, known)
    assert got == expected
    assert (got == known) == tangent


@given(points, points, points)
@example(point(-1, 0), point(1, 0), point(0, 0))  # unit circles touching at the origin
@EXAMPLES
def test_radical_axis_and_second_intersection_of_circles(c1, c2, known):
    assume(c1 != c2 and known != c1 and known != c2)
    s1, s2 = circle_on(c1, known), circle_on(c2, known)
    axis = fraction_radical_axis(s1, s2)
    assert radical_axis(s1, s2) == axis
    got = second_intersection_of_circles(s1, s2, known)
    expected, tangent = fraction_second_intersection_with_line(s1, axis, known)
    assert got == expected
    assert (got == known) == tangent


def radical_route(c1, c2, known):
    """The second meet through the radical axis, after the identical-circles
    guard: the oracle of the reflected meet, its values and its errors."""
    if c1 == c2:
        raise IdenticalCirclesError("second intersection of identical circles")
    return second_intersection_with_line(c1, radical_axis(c1, c2), known)


def outcome(meet, *args):
    """What ``meet(*args)`` returns, or the type and message of what it raises."""
    try:
        return meet(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", ["meet", "tangent", "identical", "concentric",
                                  "off c1", "off c2", "off both"])
@given(points, points, points, rationals)
@example(point(-1, 0), point(1, 0), point(0, 0), F(2))  # unit circles touching at 0
@settings(max_examples=30, deadline=None)
def test_second_meets_reflect_known_in_the_line_of_centres(case, o1, o2, known, t):
    # circles about o1 and o2 through known, o2 moved onto the line of o1
    # and known for a tangent pair; or c2 = c1, a concentric c2, or known
    # moved off one circle or both by a larger radius
    assume(o1 != known and t not in (0, 1) and (o1 != o2 or case != "meet"))
    if case == "tangent":
        o2 = fraction_add(o1, fraction_scale(fraction_sub(known, o1), t))
    elif case == "concentric":
        o2 = o1
    assume(o2 != known)
    c1, c2 = circle_on(o1, known), circle_on(o2, known)
    if case == "identical":
        c2 = c1
    elif case == "concentric" or case in ("off c2", "off both"):
        c2 = Circle(o2, c2.radius_squared * 4)
    if case in ("off c1", "off both"):
        c1 = Circle(o1, c1.radius_squared * 4)
    got = outcome(second_intersection_of_circles, c1, c2, known)
    assert got == outcome(radical_route, c1, c2, known)
    if case in ("meet", "tangent"):
        assert got == _reflected_meet(o1, o2, known)
        assert (got == known) == is_collinear(o1, o2, known)
    else:
        assert isinstance(got, tuple)
    if case == "tangent":
        assert got == known


# --- double readings ---------------------------------------------------------------


@given(points, lines, st.fractions(min_value=F(1, 10 ** 200), max_value=10 ** 200))
@EXAMPLES
def test_float_readings_are_the_plain_conversions(p, l, r2):
    assert float_point(p) == (float(p.x), float(p.y))
    assert to_float(r2) == float(r2)
    assert float_sqrt(r2) == sqrt(float(r2))
    assert l.float_coefficients() == (float(l.a), float(l.b), float(l.c))


def test_float_readings_past_the_double_range():
    big = F(10 ** 400)
    assert float_point(point(big, -big)) == (float("inf"), float("-inf"))
    assert float_point(point(1 / big, big / (big - 1))) == (0.0, 1.0)
    assert to_float(-big) == float("-inf")
    assert isclose(float_sqrt(big), 1e200, rel_tol=1e-15)
    assert float_sqrt(big * big) == float("inf")
    a, b, c = Line(3 * 10 ** 400, 4 * 10 ** 400, 10 ** 400).float_coefficients()
    assert isclose(b / a, 4 / 3, rel_tol=1e-15) and isclose(c / a, 1 / 3, rel_tol=1e-15)
    a, b, c = Line(1, 1, 10 ** 400).float_coefficients()
    assert (a, b, c) == (1.0, 1.0, float("inf"))
