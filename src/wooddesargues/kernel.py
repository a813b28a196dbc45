"""Exact rational plane geometry: points, lines, circles, direct similarities.

Every value is an exact ``fractions.Fraction``; every predicate is a zero-tolerance
equality test.  All constructions stay inside the rationals because a second
intersection with a carrier that already shares a known rational point is a
rational function of the inputs (Vieta).  No radicals, no epsilons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

Scalar = Fraction


class GeometryError(ValueError):
    """Base class for degenerate-input errors raised by kernel constructions."""


class CoincidentPointsError(GeometryError):
    pass


class ParallelLinesError(GeometryError):
    """Lines do not meet in a single point (parallel or identical)."""


class CollinearPointsError(GeometryError):
    pass


class NotIncidentError(GeometryError):
    """A point required to lie on a carrier does not."""


class IdenticalCirclesError(GeometryError):
    pass


class DegenerateInputError(GeometryError):
    pass


class _Infinity:
    """Token closing the gap of the tangent-half-angle parametrization."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

UnitParameter = Union[Scalar, int, _Infinity]


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Point:
    """A point of the rational plane, also read as the complex number x + iy."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scale(self, k) -> "Point":
        k = _frac(k)
        return Point(self.x * k, self.y * k)

    def rot90(self) -> "Point":
        """Counter-clockwise quarter turn about the origin."""
        return Point(-self.y, self.x)

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_squared(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    # complex-number reading ------------------------------------------------

    def cmul(self, other: "Point") -> "Point":
        return Point(self.x * other.x - self.y * other.y,
                     self.x * other.y + self.y * other.x)

    def cdiv(self, other: "Point") -> "Point":
        d = other.norm_squared()
        if d == 0:
            raise DegenerateInputError("complex division by zero")
        return Point((self.x * other.x + self.y * other.y) / d,
                     (self.y * other.x - self.x * other.y) / d)

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


ORIGIN = Point(Fraction(0), Fraction(0))
ONE = Point(Fraction(1), Fraction(0))


def point(x, y) -> Point:
    return Point(_frac(x), _frac(y))


def float_point(p: Point) -> tuple[float, float]:
    """Double-precision reading of p, for residuals and drawing only."""
    return (float(p.x), float(p.y))


def distinct(points: Iterable[Point]) -> list[Point]:
    """The points in first-seen order with exact repeats dropped."""
    out: list[Point] = []
    for p in points:
        if p not in out:
            out.append(p)
    return out


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def distance_squared(p: Point, q: Point) -> Fraction:
    return (p - q).norm_squared()


@dataclass(frozen=True)
class Line:
    """Locus a*x + b*y + c = 0 in normal form.

    Coefficients are coprime integers and the first nonzero of (a, b, c) is
    positive, so structural equality coincides with geometric equality.
    """

    a: int
    b: int
    c: int

    @staticmethod
    def from_coefficients(a, b, c) -> "Line":
        a, b, c = _frac(a), _frac(b), _frac(c)
        if a == 0 and b == 0:
            raise DegenerateInputError("line requires (a, b) != (0, 0)")
        denom = a.denominator * b.denominator * c.denominator
        ia, ib, ic = (int(a * denom), int(b * denom), int(c * denom))
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        lead = ia if ia != 0 else (ib if ib != 0 else ic)
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        return Line(ia, ib, ic)

    def evaluate(self, p: Point) -> Fraction:
        return self.a * p.x + self.b * p.y + self.c

    def direction(self) -> Point:
        return Point(Fraction(-self.b), Fraction(self.a))

    def normal(self) -> Point:
        return Point(Fraction(self.a), Fraction(self.b))

    def __repr__(self) -> str:
        return f"[{self.a}x + {self.b}y + {self.c} = 0]"


@dataclass(frozen=True)
class Circle:
    center: Point
    radius_squared: Fraction

    def __post_init__(self) -> None:
        if self.radius_squared <= 0:
            raise DegenerateInputError("circle needs radiusSquared > 0")

    def power(self, p: Point) -> Fraction:
        """Power of the point: zero exactly when p lies on the circle."""
        return distance_squared(p, self.center) - self.radius_squared

    def __repr__(self) -> str:
        return f"Circle(center={self.center}, r2={self.radius_squared})"


def point_on_unit_circle(t: UnitParameter) -> Point:
    """Tangent-half-angle sweep of the unit circle; the infinity token maps to (-1, 0)."""
    if isinstance(t, _Infinity):
        return Point(Fraction(-1), Fraction(0))
    t = _frac(t)
    d = 1 + t * t
    return Point((1 - t * t) / d, 2 * t / d)


def line_through(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPointsError(f"line through coincident points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    return Line.from_coefficients(a, b, c)


def meet(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLinesError(f"no unique intersection of {l1} and {l2}")
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l1.c * l2.a - l2.c * l1.a, det)
    return Point(x, y)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPointsError(f"perpendicular bisector of coincident points {p}")
    a = 2 * (q.x - p.x)
    b = 2 * (q.y - p.y)
    c = -(q.norm_squared() - p.norm_squared())
    return Line.from_coefficients(a, b, c)


def perpendicular_at(p: Point, l: Line) -> Line:
    # new normal = direction of l
    a, b = -l.b, l.a
    return Line.from_coefficients(a, b, -(a * p.x + b * p.y))


def parallel_through(p: Point, l: Line) -> Line:
    return Line.from_coefficients(l.a, l.b, -(l.a * p.x + l.b * p.y))


def is_collinear(p: Point, q: Point, r: Point) -> bool:
    return (q - p).cross(r - p) == 0


def collinearity_residual(p: Point, q: Point, r: Point) -> Fraction:
    return (q - p).cross(r - p)


def circumcenter(p: Point, q: Point, r: Point) -> Point:
    if p == q or q == r or p == r:
        raise CoincidentPointsError("circumcenter of coincident points")
    if is_collinear(p, q, r):
        raise CollinearPointsError(f"circumcenter of collinear points {p}, {q}, {r}")
    return meet(perpendicular_bisector(p, q), perpendicular_bisector(q, r))


def circle_through(p: Point, q: Point, r: Point) -> Circle:
    center = circumcenter(p, q, r)
    circle = Circle(center, distance_squared(center, p))
    assert circle.power(q) == 0 and circle.power(r) == 0
    return circle


def second_intersection_with_line(circle: Circle, l: Line, known: Point) -> tuple[Point, bool]:
    """Other intersection of ``l`` with ``circle`` given one rational point on both.

    Returns ``(point, tangent)``; when ``l`` touches the circle at ``known`` the
    known point itself comes back with the tangency flag set.
    """
    if l.evaluate(known) != 0:
        raise NotIncidentError(f"{known} not on {l}")
    if circle.power(known) != 0:
        raise NotIncidentError(f"{known} not on {circle}")
    d = l.direction()
    # known + t*d on the circle: t * (t*|d|^2 + 2 d.(known - center)) = 0
    t = Fraction(-2) * d.dot(known - circle.center) / d.norm_squared()
    if t == 0:
        return known, True
    return known + d.scale(t), False


def radical_axis(c1: Circle, c2: Circle) -> Line:
    if c1 == c2:
        raise IdenticalCirclesError("radical axis of identical circles")
    if c1.center == c2.center:
        raise DegenerateInputError("concentric circles have no radical axis")
    a = 2 * (c2.center.x - c1.center.x)
    b = 2 * (c2.center.y - c1.center.y)
    c = ((c1.center.norm_squared() - c1.radius_squared)
         - (c2.center.norm_squared() - c2.radius_squared))
    return Line.from_coefficients(a, b, c)


def second_intersection_of_circles(c1: Circle, c2: Circle, known: Point) -> tuple[Point, bool]:
    if c1 == c2:
        raise IdenticalCirclesError("second intersection of identical circles")
    if c1.power(known) != 0 or c2.power(known) != 0:
        raise NotIncidentError(f"{known} not on both circles")
    return second_intersection_with_line(c1, radical_axis(c1, c2), known)


def antipode(circle: Circle, p: Point) -> Point:
    if circle.power(p) != 0:
        raise NotIncidentError(f"{p} not on {circle}")
    return circle.center.scale(2) - p


def tangent_at(circle: Circle, p: Point) -> Line:
    if circle.power(p) != 0:
        raise NotIncidentError(f"{p} not on {circle}")
    n = p - circle.center
    return Line.from_coefficients(n.x, n.y, -(n.x * p.x + n.y * p.y))


def orthocentre(p: Point, q: Point, r: Point) -> Point:
    """Intersection of two altitudes, cross-checked against p + q + r - 2*circumcenter."""
    if is_collinear(p, q, r):
        raise CollinearPointsError(f"orthocentre of collinear points {p}, {q}, {r}")
    h = meet(perpendicular_at(p, line_through(q, r)),
             perpendicular_at(q, line_through(p, r)))
    assert h == p + q + r - circumcenter(p, q, r).scale(2)
    return h


def concyclicity_determinant(p: Point, q: Point, r: Point, s: Point) -> Fraction:
    """4x4 determinant with rows (x, y, x^2 + y^2, 1); zero iff on a common circle or line."""
    rows = [(t.x, t.y, t.norm_squared()) for t in (p, q, r, s)]
    # expand along the constant column by subtracting the first row
    m = [(rx - rows[0][0], ry - rows[0][1], rz - rows[0][2]) for rx, ry, rz in rows[1:]]
    return (m[0][0] * (m[1][1] * m[2][2] - m[2][1] * m[1][2])
            - m[0][1] * (m[1][0] * m[2][2] - m[2][0] * m[1][2])
            + m[0][2] * (m[1][0] * m[2][1] - m[2][0] * m[1][1]))


def collapses_to_line(points: Sequence[Point]) -> bool:
    """Collapse rule for a vanishing concyclicity determinant.

    True when at least three of the points are distinct and the first three
    distinct ones are collinear: the determinant then vanishes because the
    points share a line, not a circle.
    """
    d = distinct(points)
    return len(d) >= 3 and is_collinear(d[0], d[1], d[2])


def is_concyclic(p: Point, q: Point, r: Point, s: Point) -> bool:
    """True iff the four points lie on one genuine circle (a common line does not count)."""
    return concyclicity_determinant(p, q, r, s) == 0 and not collapses_to_line((p, q, r, s))


Carrier = Union[Line, Circle]


def incident(carrier: Carrier, p: Point) -> bool:
    if isinstance(carrier, Line):
        return carrier.evaluate(p) == 0
    return carrier.power(p) == 0


@dataclass(frozen=True)
class Similarity:
    """Direct similarity z -> alpha*z + beta of the plane read as complex numbers."""

    alpha: Point
    beta: Point

    def __post_init__(self) -> None:
        if self.alpha == ORIGIN:
            raise DegenerateInputError("similarity multiplier must be nonzero")

    @classmethod
    def pinned_by(cls, source: Sequence[Point], target: Sequence[Point]) -> Optional["Similarity"]:
        """The map sending the first two source points to the first two targets.

        None when the targets coincide, since no similarity collapses two
        distinct points.
        """
        if source[0] == source[1]:
            raise DegenerateInputError("first two source points must be distinct")
        alpha = (target[1] - target[0]).cdiv(source[1] - source[0])
        if alpha == ORIGIN:
            return None
        return cls(alpha, target[0] - alpha.cmul(source[0]))

    def apply(self, p: Point) -> Point:
        return self.alpha.cmul(p) + self.beta

    @property
    def ratio_squared(self) -> Fraction:
        return self.alpha.norm_squared()

    @property
    def is_congruence(self) -> bool:
        return self.ratio_squared == 1

    def fixed_point(self) -> Optional[Point]:
        """Unique fixed point, absent for translations (alpha = 1)."""
        if self.alpha == ONE:
            return None
        return self.beta.cdiv(ONE - self.alpha)


def similarity_between(source: Sequence[Point], target: Sequence[Point]) -> Optional[Similarity]:
    """The direct similarity sending source to target pointwise, or None if there is none.

    The map is pinned down by the first two pairs and must send every remaining
    source point exactly to its target.
    """
    if len(source) != len(target) or len(source) < 2:
        raise DegenerateInputError("similarity needs two lists of equal length >= 2")
    sim = Similarity.pinned_by(source, target)
    if sim is None:
        return None
    for s, t in zip(source[2:], target[2:]):
        if sim.apply(s) != t:
            return None
    return sim
