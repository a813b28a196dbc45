"""Exact rational plane geometry: points, lines, circles, direct similarities.

A point is its canonical integer homogeneous coordinates ``(X, Y, Z)``
(``Point.hom``), and every construction and predicate works on integers alone.
Values handed back are exact ``fractions.Fraction``: a point's ``x`` and ``y``
(computed when read), a circle's squared radius, and every residual.
Collinearity is a 3x3 and concyclicity a 4x4 integer determinant, so a
predicate holds exactly when an integer is zero: fraction-free in the sense of
Bareiss (Math. Comp. 1968), with the bracket predicates of Richter-Gebert,
*Perspectives on Projective Geometry* (2011).

All constructions stay inside the rationals because a second intersection
with a carrier that already shares a known rational point is a rational
function of the inputs (Vieta).  No radicals, no epsilons.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
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


def decimal(n: int) -> str:
    """Decimal digits of ``n``, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits()
        if n < 0:
            return "-" + decimal(-n)
        with localcontext(_EXACT):
            return str(_to_decimal(n))


# unrounded, so a product or sum of integers is exact
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _to_decimal(n: int) -> Decimal:
    """n by halving its bits; subquadratic, as libmpdec's multiplication is
    (Brent and Zimmermann, *Modern Computer Arithmetic* (2010), 1.7)."""
    k = n.bit_length() // 2
    if k < 2048:
        return Decimal(n)
    return _to_decimal(n >> k) * Decimal(2) ** k + _to_decimal(n & ((1 << k) - 1))


def rational_text(q: Fraction) -> str:
    """``str(q)`` without the digit limit: ``n`` for integers, else ``n/d``."""
    if q.denominator == 1:
        return decimal(q.numerator)
    return f"{decimal(q.numerator)}/{decimal(q.denominator)}"


def _quotient(n: int, d: int) -> float:
    """Correctly rounded double of n/d for d > 0; +-inf past the double range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def to_float(q: Fraction) -> float:
    """Double reading of q, equal to ``float(q)`` wherever that does not overflow."""
    return _quotient(q.numerator, q.denominator)


def float_sqrt(q: Fraction) -> float:
    """Double reading of sqrt(q) for q > 0, finite whenever the root fits.

    Equal to ``math.sqrt(float(q))`` wherever ``float(q)`` does not overflow.
    """
    f = to_float(q)
    if f != math.inf:
        return math.sqrt(f)
    # q >= 2**1024: divide by an even power of two, take the root, scale back
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(q.numerator / (q.denominator << (2 * k))), k)
    except OverflowError:
        return math.inf


class _Value:
    """Slotted value set once in ``__init__``, then immutable; equal, hashed, pickled by fields."""

    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])


class Point(_Value):
    """A point of the rational plane, also read as the complex number x + iy.

    Stored as its integer homogeneous coordinates ``hom = (X, Y, Z)`` with
    x = X/Z, y = Y/Z, Z > 0 and gcd(X, Y, Z) = 1: the triple is canonical, so
    two points are equal iff their triples are.  Build a point from its
    coordinates with :func:`point`.
    """

    __slots__ = ("hom",)
    __hash__ = _Value.__hash__

    def __init__(self, hom: tuple[int, int, int]) -> None:
        _set_hom(self, hom)

    def __eq__(self, other):
        return self.hom == other.hom if type(other) is Point else NotImplemented

    @property
    def x(self) -> Fraction:
        return Fraction(self.hom[0], self.hom[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self.hom[1], self.hom[2])

    def __add__(self, other: "Point") -> "Point":
        X1, Y1, Z1 = self.hom
        X2, Y2, Z2 = other.hom
        return _point(X1 * Z2 + X2 * Z1, Y1 * Z2 + Y2 * Z1, Z1 * Z2)

    def __sub__(self, other: "Point") -> "Point":
        X1, Y1, Z1 = self.hom
        X2, Y2, Z2 = other.hom
        return _point(X1 * Z2 - X2 * Z1, Y1 * Z2 - Y2 * Z1, Z1 * Z2)

    def __neg__(self) -> "Point":
        X, Y, Z = self.hom
        return _point(-X, -Y, Z)

    def scale(self, k) -> "Point":
        k = _frac(k)
        X, Y, Z = self.hom
        return _point(X * k.numerator, Y * k.numerator, Z * k.denominator)

    def rot90(self) -> "Point":
        """Counter-clockwise quarter turn about the origin."""
        X, Y, Z = self.hom
        return _point(-Y, X, Z)

    def norm_squared(self) -> Fraction:
        X, Y, Z = self.hom
        return Fraction(X * X + Y * Y, Z * Z)

    # complex-number reading ------------------------------------------------

    def cdiv(self, other: "Point") -> "Point":
        X1, Y1, Z1 = self.hom
        X2, Y2, Z2 = other.hom
        d = X2 * X2 + Y2 * Y2
        if d == 0:
            raise DegenerateInputError("complex division by zero")
        return _point((X1 * X2 + Y1 * Y2) * Z2, (Y1 * X2 - X1 * Y2) * Z2, Z1 * d)

    def __repr__(self) -> str:
        return f"({rational_text(self.x)}, {rational_text(self.y)})"


def _point(X: int, Y: int, Z: int) -> Point:
    """The point (X/Z, Y/Z) for integers with Z != 0."""
    g = gcd(X, Y, Z)
    if Z < 0:
        g = -g
    if g != 1:
        X, Y, Z = X // g, Y // g, Z // g
    return Point((X, Y, Z))


def point(x, y) -> Point:
    """The point (x, y) for rational or integer coordinates.

    Z is the lcm of the two denominators, which makes the triple canonical.
    """
    x, y = _frac(x), _frac(y)
    return _point_of_ratios(x.numerator, x.denominator, y.numerator, y.denominator)


def _point_of_ratios(nx: int, dx: int, ny: int, dy: int) -> Point:
    """The point (nx/dx, ny/dy) for reduced quotients with dx, dy > 0."""
    if dx == dy:
        return Point((nx, ny, dx))
    z = dx // gcd(dx, dy) * dy
    return Point((nx * (z // dx), ny * (z // dy), z))


def float_point(p: Point) -> tuple[float, float]:
    """Double-precision reading of p, for residuals and drawing only.

    Bit-identical to ``(float(p.x), float(p.y))`` (integer true division is
    correctly rounded); a coordinate past the double range reads as +-inf.
    """
    X, Y, Z = p.hom
    try:
        return (X / Z, Y / Z)
    except OverflowError:
        return (_quotient(X, Z), _quotient(Y, Z))


def distinct(points: Iterable[Point]) -> list[Point]:
    """The points in first-seen order with exact repeats dropped."""
    seen: dict[tuple[int, int, int], Point] = {}
    for p in points:
        seen.setdefault(p.hom, p)
    return list(seen.values())


def midpoint(p: Point, q: Point) -> Point:
    X1, Y1, Z1 = p.hom
    X2, Y2, Z2 = q.hom
    return _point(X1 * Z2 + X2 * Z1, Y1 * Z2 + Y2 * Z1, 2 * Z1 * Z2)


def _distance_record(p: Point, o: Point) -> tuple[int, int]:
    """|p - o|^2 as the unreduced quotient n/w of two integers, w = (Z Zo)^2 > 0."""
    X, Y, Z = p.hom
    Xo, Yo, Zo = o.hom
    dx, dy, z = X * Zo - Xo * Z, Y * Zo - Yo * Z, Z * Zo
    return dx * dx + dy * dy, z * z


def _equidistant(o: Point, points: Sequence[Point]) -> bool:
    """Whether every point is exactly as far from o as the first, p0: each
    |p - o|^2 - |p0 - o|^2 = (p - p0).(p + p0 - 2 o) is zero, one bilinear
    form over (Z Z0)^2 Zo per further point, with no distance record."""
    X0, Y0, Z0 = points[0].hom
    Xo, Yo, Zo = o.hom
    for X, Y, Z in (p.hom for p in points[1:]):
        x, x0, y, y0, z = X * Z0, X0 * Z, Y * Z0, Y0 * Z, 2 * Z * Z0
        if (x - x0) * ((x + x0) * Zo - Xo * z) + (y - y0) * ((y + y0) * Zo - Yo * z):
            return False
    return True


def distance_squared(p: Point, q: Point) -> Fraction:
    return Fraction(*_distance_record(p, q))


class Line(_Value):
    """Locus a*x + b*y + c = 0 in normal form.

    Coefficients are coprime integers and the first nonzero of (a, b, c) is
    positive, so structural equality coincides with geometric equality.
    """

    __slots__ = ("a", "b", "c")
    __hash__ = _Value.__hash__

    def __init__(self, a: int, b: int, c: int) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    def __eq__(self, other):
        if type(other) is not Line:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    @staticmethod
    def from_coefficients(a: int, b: int, c: int) -> "Line":
        """Normal form of a*x + b*y + c = 0 for integer coefficients."""
        if a == 0 and b == 0:
            raise DegenerateInputError("line requires (a, b) != (0, 0)")
        g = gcd(a, b, c)
        if (a if a != 0 else b) < 0:
            g = -g
        return Line(a // g, b // g, c // g)

    def _at(self, p: Point) -> int:
        """a*X + b*Y + c*Z: Z times the value at p, with the sign of that value."""
        X, Y, Z = p.hom
        return self.a * X + self.b * Y + self.c * Z

    def evaluate(self, p: Point) -> Fraction:
        return Fraction(self._at(p), p.hom[2])

    def float_coefficients(self) -> tuple[float, float, float]:
        """(a, b, c) as doubles, for residuals and drawing only.

        Equal to the plain conversions while a and b fit in a double; past
        that all three are divided by one power of two, which leaves the line
        and every scale-free residual unchanged.
        """
        a, b, c = self.a, self.b, self.c
        try:
            return float(a), float(b), _quotient(c, 1)
        except OverflowError:  # a or b rounds past the double range
            unit = 1 << (max(abs(a).bit_length(), abs(b).bit_length()) - 1000)
        return _quotient(a, unit), _quotient(b, unit), _quotient(c, unit)

    def __repr__(self) -> str:
        return f"[{decimal(self.a)}x + {decimal(self.b)}y + {decimal(self.c)} = 0]"


class Circle(_Value):
    __slots__ = ("center", "radius_squared")

    def __init__(self, center: Point, radius_squared: Fraction) -> None:
        if radius_squared <= 0:
            raise DegenerateInputError("circle needs radiusSquared > 0")
        _set_center(self, center)
        _set_radius_squared(self, radius_squared)

    def _power(self, p: Point) -> int:
        """Numerator of the power of p over :meth:`_power_denominator`."""
        X, Y, Z = p.hom
        Xc, Yc, Zc = self.center.hom
        r2 = self.radius_squared
        dx, dy, z = X * Zc - Xc * Z, Y * Zc - Yc * Z, Z * Zc
        return r2.denominator * (dx * dx + dy * dy) - r2.numerator * z * z

    def _power_denominator(self, p: Point) -> int:
        return self.radius_squared.denominator * (p.hom[2] * self.center.hom[2]) ** 2

    def power(self, p: Point) -> Fraction:
        """Power of the point: zero exactly when p lies on the circle."""
        return Fraction(self._power(p), self._power_denominator(p))

    def __repr__(self) -> str:
        return f"Circle(center={self.center}, r2={rational_text(self.radius_squared)})"


def point_on_unit_circle(t: UnitParameter) -> Point:
    """Tangent-half-angle sweep of the unit circle; the infinity token maps to (-1, 0)."""
    if isinstance(t, _Infinity):
        return Point((-1, 0, 1))
    t = _frac(t)
    n, d = t.numerator, t.denominator
    return _point(d * d - n * n, 2 * n * d, d * d + n * n)


# Lines below are unreduced integer triples (a, b, c) of a*x + b*y + c = 0: one met
# with another needs no gcd, as _meet returns a canonical point.

def _join(p: Point, q: Point) -> tuple[int, int, int]:
    """The line through p and q (cross product of the homogeneous triples)."""
    X1, Y1, Z1 = p.hom
    X2, Y2, Z2 = q.hom
    return Y1 * Z2 - Z1 * Y2, Z1 * X2 - X1 * Z2, X1 * Y2 - Y1 * X2


def _bisector(p: Point, q: Point) -> tuple[int, int, int]:
    """2 (q - p).(x, y) = |q|^2 - |p|^2, times Z1^2 Z2^2."""
    X1, Y1, Z1 = p.hom
    X2, Y2, Z2 = q.hom
    z = 2 * Z1 * Z2
    return ((X2 * Z1 - X1 * Z2) * z, (Y2 * Z1 - Y1 * Z2) * z,
            (X1 * X1 + Y1 * Y1) * Z2 * Z2 - (X2 * X2 + Y2 * Y2) * Z1 * Z1)


def _normal_at(p: Point, a: int, b: int) -> tuple[int, int, int]:
    """The line through p with normal (a, b)."""
    X, Y, Z = p.hom
    return a * Z, b * Z, -(a * X + b * Y)


def _perpendicular_through(p: Point, o: Point) -> Line:
    """The line through p perpendicular to op, p != o: the tangent at p to a circle about o."""
    X, Y, Z = p.hom
    Xo, Yo, Zo = o.hom  # normal Z Zo (p - o)
    return Line.from_coefficients(*_normal_at(p, X * Zo - Xo * Z, Y * Zo - Yo * Z))


def _meet(a1: int, b1: int, c1: int, a2: int, b2: int, c2: int) -> Point:
    z = a1 * b2 - a2 * b1
    if z == 0:
        raise ParallelLinesError("lines do not meet in a single point")
    return _point(b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, z)


def line_through(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPointsError(f"line through coincident points {p}")
    return Line.from_coefficients(*_join(p, q))


def meet(l1: Line, l2: Line) -> Point:
    return _meet(l1.a, l1.b, l1.c, l2.a, l2.b, l2.c)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPointsError(f"perpendicular bisector of coincident points {p}")
    return Line.from_coefficients(*_bisector(p, q))


def perpendicular_at(p: Point, l: Line) -> Line:
    # new normal = direction of l
    return Line.from_coefficients(*_normal_at(p, -l.b, l.a))


def parallel_through(p: Point, l: Line) -> Line:
    return Line.from_coefficients(*_normal_at(p, l.a, l.b))


def _det3(p: Point, q: Point, r: Point) -> int:
    """Bracket [p q r] of the homogeneous triples: Z1 Z2 Z3 (q - p) x (r - p)."""
    (a, b, c), (d, e, f), (g, h, i) = p.hom, q.hom, r.hom
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def is_collinear(p: Point, q: Point, r: Point) -> bool:
    return _det3(p, q, r) == 0


def collinearity_residual(p: Point, q: Point, r: Point) -> Fraction:
    """(q - p) x (r - p), the bracket divided by Z1 Z2 Z3."""
    return Fraction(_det3(p, q, r), p.hom[2] * q.hom[2] * r.hom[2])


def circumcenter(p: Point, q: Point, r: Point, centre: Optional[Point] = None) -> Point:
    """The point equidistant from p, q and r.

    That is ``centre`` when an exact integer test finds it equidistant from
    them, else the meet of two perpendicular bisectors, checked the same way;
    so any ``centre``, or None, gives the same point, and coincident or
    collinear points raise whatever ``centre`` is.
    """
    if p == q or q == r or p == r:
        raise CoincidentPointsError("circumcenter of coincident points")
    if centre is not None and _equidistant(centre, (p, q, r)):
        return centre
    if is_collinear(p, q, r):
        raise CollinearPointsError(f"circumcenter of collinear points {p}, {q}, {r}")
    centre = _meet(*_bisector(p, q), *_bisector(q, r))
    assert _equidistant(centre, (p, q, r))
    return centre


def circle_through(p: Point, q: Point, r: Point, centre: Optional[Point] = None) -> Circle:
    """The circle through p, q and r about ``circumcenter(p, q, r, centre)``;
    r^2 is p's distance record from that centre, the only one formed."""
    centre = circumcenter(p, q, r, centre)
    return Circle(centre, distance_squared(p, centre))


def second_intersection_with_line(circle: Circle, l: Line, known: Point) -> Point:
    """Other intersection of ``l`` with ``circle`` given one rational point on both.

    That is ``known`` itself exactly when ``l`` touches the circle there.
    """
    if l._at(known) != 0:
        raise NotIncidentError(f"{known} not on {l}")
    if circle._power(known) != 0:
        raise NotIncidentError(f"{known} not on {circle}")
    return _second_meet(circle.center, l.a, l.b, known)


def _second_meet(center: Point, a: int, b: int, known: Point) -> Point:
    """For a circle about ``center`` through ``known``: its other meet with the
    line through ``known`` with normal (a, b), ``known`` where that line touches it."""
    X, Y, Z = known.hom
    Xc, Yc, Zc = center.hom
    # known + t*d on the circle, d = (-b, a): t * (t*|d|^2 + 2 d.(known - center)) = 0,
    # so t = T / S with the integers below
    T = -2 * (a * (Y * Zc - Yc * Z) - b * (X * Zc - Xc * Z))
    if T == 0:
        return known
    S = Z * Zc * (a * a + b * b)
    return _point(X * S - b * T * Z, Y * S + a * T * Z, Z * S)


def radical_axis(c1: Circle, c2: Circle) -> Line:
    if c1 == c2:
        raise IdenticalCirclesError("radical axis of identical circles")
    if c1.center == c2.center:
        raise DegenerateInputError("concentric circles have no radical axis")
    X1, Y1, Z1 = c1.center.hom
    X2, Y2, Z2 = c2.center.hom
    n1, d1 = c1.radius_squared.numerator, c1.radius_squared.denominator
    n2, d2 = c2.radius_squared.numerator, c2.radius_squared.denominator
    # 2 (c2 - c1).(x, y) + (|c1|^2 - r1^2) - (|c2|^2 - r2^2) = 0, times Z1^2 Z2^2 d1 d2
    k1 = (X1 * X1 + Y1 * Y1) * d1 - n1 * Z1 * Z1
    k2 = (X2 * X2 + Y2 * Y2) * d2 - n2 * Z2 * Z2
    s = 2 * Z1 * Z2 * d1 * d2
    return Line.from_coefficients((X2 * Z1 - X1 * Z2) * s, (Y2 * Z1 - Y1 * Z2) * s,
                                  k1 * Z2 * Z2 * d2 - k2 * Z1 * Z1 * d1)


def second_intersection_of_circles(c1: Circle, c2: Circle, known: Point) -> Point:
    """The other meet of two circles through ``known``, which is ``known``
    itself exactly when they touch there."""
    if c1 == c2:
        raise IdenticalCirclesError("second intersection of identical circles")
    if c1.center.hom != c2.center.hom and c1._power(known) == 0 == c2._power(known):
        return _reflected_meet(c1.center, c2.center, known)
    # a failed guard raises from the radical-axis route: the axis is where the
    # two powers agree, so the line routine tests known on both circles
    return second_intersection_with_line(c1, radical_axis(c1, c2), known)


def _reflected_meet(o1: Point, o2: Point, known: Point) -> Point:
    """The other meet of circles about o1 != o2 through ``known``: ``known``
    reflected in the line of centres, as their common chord has normal o2 - o1."""
    X1, Y1, Z1 = o1.hom
    X2, Y2, Z2 = o2.hom
    return _second_meet(o1, X2 * Z1 - X1 * Z2, Y2 * Z1 - Y1 * Z2, known)


def antipode(circle: Circle, p: Point) -> Point:
    if circle._power(p) != 0:
        raise NotIncidentError(f"{p} not on {circle}")
    return _antipode(circle, p)


# for a point already known to lie on the circle
def _antipode(circle: Circle, p: Point) -> Point:
    X, Y, Z = p.hom
    Xc, Yc, Zc = circle.center.hom
    return _point(2 * Xc * Z - X * Zc, 2 * Yc * Z - Y * Zc, Zc * Z)


def tangent_at(circle: Circle, p: Point) -> Line:
    if circle._power(p) != 0:
        raise NotIncidentError(f"{p} not on {circle}")
    return _perpendicular_through(p, circle.center)


def euler_sum(points: Sequence[Point], centre: Point, divisor: int = 1) -> Point:
    """(sum of the points - 2 centre) / divisor, canonicalised once.

    For three points on a circle about ``centre`` this is Euler's orthocentre
    p + q + r - 2o; for a quadrangle inscribed in it, halved, the centre of the
    half turn taking each vertex to the orthocentre of the other three.
    """
    Xo, Yo, Z = centre.hom
    X, Y = -2 * Xo, -2 * Yo
    for Xp, Yp, Zp in (p.hom for p in points):
        X, Y, Z = X * Zp + Xp * Z, Y * Zp + Yp * Z, Z * Zp
    return _point(X, Y, Z * divisor)


def _on_altitudes(h: Point, p: Point, q: Point, r: Point) -> bool:
    """h lies on the altitudes at p and q: (h - p).(r - q) = (h - q).(r - p) = 0."""
    (X1, Y1, Z1), (X2, Y2, Z2), (X3, Y3, Z3) = p.hom, q.hom, r.hom
    Xh, Yh, Zh = h.hom
    return ((Xh * Z1 - X1 * Zh) * (X3 * Z2 - X2 * Z3)
            + (Yh * Z1 - Y1 * Zh) * (Y3 * Z2 - Y2 * Z3) == 0
            and (Xh * Z2 - X2 * Zh) * (X3 * Z1 - X1 * Z3)
            + (Yh * Z2 - Y2 * Zh) * (Y3 * Z1 - Y1 * Z3) == 0)


def _on_altitudes_over(h: Point, d: int, p: tuple[int, int], q: tuple[int, int],
                       r: tuple[int, int]) -> bool:
    """``_on_altitudes`` for p, q, r given as numerators (X, Y) over d: h is
    brought over d too, so the two dot products need 4 products."""
    Xh, Yh, Zh = h.hom
    k = d // Zh
    Xh, Yh = Xh * k, Yh * k
    (X1, Y1), (X2, Y2), (X3, Y3) = p, q, r
    return (Zh * k == d and (Xh - X1) * (X3 - X2) + (Yh - Y1) * (Y3 - Y2) == 0
            and (Xh - X2) * (X3 - X1) + (Yh - Y2) * (Y3 - Y1) == 0)


def orthocentre(p: Point, q: Point, r: Point) -> Point:
    """Euler's point p + q + r - 2*o, with o the meet of two perpendicular
    bisectors, checked on two altitudes."""
    if is_collinear(p, q, r):
        raise CollinearPointsError(f"orthocentre of collinear points {p}, {q}, {r}")
    h = euler_sum((p, q, r), _meet(*_bisector(p, q), *_bisector(q, r)))
    assert _on_altitudes(h, p, q, r)
    return h


def ring_orthocentres(ring: Sequence[Point], triangles: Iterable[tuple[int, int, int]],
                      centre: Optional[Point], on: Sequence[bool],
                      ) -> tuple[list[Optional[Point]], Optional[tuple[int, int, int]]]:
    """The orthocentre of each triangle of ring points named by its indices,
    None when its vertices are collinear, and the ring's half turn.

    ``on[i]`` tells whether ring point i lies on one given circle about
    ``centre``.  A triangle of three distinct such points is inscribed about
    ``centre``, so its orthocentre is Euler's p + q + r - 2 centre, summed
    over the lcm of the Z of ``centre`` and the points on the circle.  Any
    other triangle, and each one when ``centre`` is None, goes to ``orthocentre``.
    The half turn T = (sum of the ring) - 2 centre is the unreduced (X, Y, d)
    over that lcm when every triangle was summed and every ring point is on
    the circle, else None; a quadrangle's orthocentres are then each T - v.
    """
    out: list[Optional[Point]] = []
    over = None
    summed = centre is not None and all(on)
    for i, j, k in triangles:
        p, q, r = ring[i], ring[j], ring[k]
        h = None
        if centre is not None and on[i] and on[j] and on[k] and p.hom != q.hom != r.hom != p.hom:
            if over is None:  # the centre and the points on the circle, over the lcm of their Z
                d = math.lcm(centre.hom[2], *(s.hom[2] for s, o in zip(ring, on) if o))
                over = [(X * m, Y * m) if o else None for (X, Y, Z), o in
                        zip((s.hom for s in (*ring, centre)), (*on, True)) for m in (d // Z,)]
                # so each pair in over is, over d, exactly its point
                assert all(d % s.hom[2] == 0 for s, o in zip((*ring, centre), (*on, True)) if o)
            (X1, Y1), (X2, Y2), (X3, Y3), (Xo, Yo) = over[i], over[j], over[k], over[-1]
            h = _point(X1 + X2 + X3 - 2 * Xo, Y1 + Y2 + Y3 - 2 * Yo, d)
            assert _on_altitudes_over(h, d, over[i], over[j], over[k])
        if h is None:
            summed = False
            try:
                h = orthocentre(p, q, r)
            except CollinearPointsError:
                pass
        out.append(h)
    if not summed or over is None:
        return out, None
    *sums, (Xo, Yo) = over
    return out, (sum(X for X, _ in sums) - 2 * Xo, sum(Y for _, Y in sums) - 2 * Yo, d)


def _det4_rows(p: Point) -> tuple[int, int, int, int]:
    X, Y, Z = p.hom
    return X * Z, Y * Z, X * X + Y * Y, Z * Z


def concyclicity_determinant(p: Point, q: Point, r: Point, s: Point) -> Fraction:
    """4x4 determinant with rows (x, y, x^2 + y^2, 1), negated; zero iff on a common circle or line.

    Computed over the integer rows (XZ, YZ, X^2 + Y^2, Z^2), each Z^2 times the
    rational one, by Laplace expansion along the first two columns.
    """
    (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = (
        _det4_rows(p), _det4_rows(q), _det4_rows(r), _det4_rows(s))
    det = ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
           - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
           + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
           + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
           - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
           + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    return Fraction(-det, d0 * d1 * d2 * d3)


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


def incident(carrier: Union[Line, Circle], p: Point) -> bool:
    if isinstance(carrier, Line):
        return carrier._at(p) == 0
    return carrier._power(p) == 0


class Similarity(_Value):
    """Direct similarity z -> alpha*z + beta of the plane read as complex numbers."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Point, beta: Point) -> None:
        if alpha == ORIGIN:
            raise DegenerateInputError("similarity multiplier must be nonzero")
        _set_alpha(self, alpha)
        _set_beta(self, beta)

    @classmethod
    def pinned_by(cls, source: Sequence[Point], target: Sequence[Point]) -> Optional["Similarity"]:
        """The map sending the first two source points to the first two targets.

        None when the targets coincide, since no similarity collapses two
        distinct points.
        """
        if source[0] == source[1]:
            raise DegenerateInputError("first two source points must be distinct")
        (X1, Y1, Z1), (X2, Y2, Z2) = source[0].hom, source[1].hom
        (U1, V1, W1), (U2, V2, W2) = target[0].hom, target[1].hom
        # alpha = (t1 - t0) / (s1 - s0), with t1 - t0 = (a, b)/(W1 W2), s1 - s0 = (c, d)/(Z1 Z2)
        a, b = U2 * W1 - U1 * W2, V2 * W1 - V1 * W2
        if a == 0 and b == 0:
            return None
        c, d = X2 * Z1 - X1 * Z2, Y2 * Z1 - Y1 * Z2
        z = Z1 * Z2
        alpha = _point((a * c + b * d) * z, (b * c - a * d) * z, (c * c + d * d) * W1 * W2)
        # beta = t0 - alpha s0
        Xa, Ya, Za = alpha.hom
        zs = Za * Z1
        beta = _point(U1 * zs - (Xa * X1 - Ya * Y1) * W1, V1 * zs - (Xa * Y1 + Ya * X1) * W1,
                      zs * W1)
        return cls(alpha, beta)

    def _image(self, p: Point) -> tuple[int, int, int]:
        """Unreduced homogeneous triple of alpha*p + beta."""
        Xa, Ya, Za = self.alpha.hom
        Xb, Yb, Zb = self.beta.hom
        X, Y, Z = p.hom
        z = Za * Z
        return (Xa * X - Ya * Y) * Zb + Xb * z, (Xa * Y + Ya * X) * Zb + Yb * z, z * Zb

    def apply(self, p: Point) -> Point:
        return _point(*self._image(p))

    def sends(self, p: Point, q: Point) -> bool:
        """``apply(p) == q``, compared over the common denominator without a gcd."""
        X, Y, Z = self._image(p)
        Xq, Yq, Zq = q.hom
        return X * Zq == Xq * Z and Y * Zq == Yq * Z

    @property
    def ratio_squared(self) -> Fraction:
        return self.alpha.norm_squared()

    def fixed_point(self) -> Optional[Point]:
        """Unique fixed point, absent for translations (alpha = 1)."""
        if self.alpha == ONE:
            return None
        return self.beta.cdiv(ONE - self.alpha)


# slot setters, bound once: each __init__ sets its fields through these, as __setattr__ refuses
_set_hom = Point.hom.__set__
_set_a, _set_b, _set_c = Line.a.__set__, Line.b.__set__, Line.c.__set__
_set_center, _set_radius_squared = Circle.center.__set__, Circle.radius_squared.__set__
_set_alpha, _set_beta = Similarity.alpha.__set__, Similarity.beta.__set__

ORIGIN = Point((0, 0, 1))
ONE = Point((1, 0, 1))
MINUS_ONE = Point((-1, 0, 1))


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
        if not sim.sends(s, t):
            return None
    return sim
