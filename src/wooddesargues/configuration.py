"""Construction of the ten-point Wood-Desargues configuration from a rational seed.

The first circle is normalized to the unit circle at the origin (the claims
being verified are similarity-invariant); J, K and the inscribed triangle ABC
are swept out by the tangent-half-angle parametrization, and the second circle
is pinned by a rational offset along the perpendicular bisector of JK.  As in
the paper, abc is ABC turned and dilated about J: a, b, c are the images of A,
B, C under the spiral similarity about J taking circle 1 to circle 2, 1, 2, 3
are the meets of corresponding sides, and the Wood circles are centred at the
images of A, B, C under a second similarity fixed at J.  Derivations
(orthocentres, Hagge centres, the pentagon figure) live here as well; theorem
checking lives in :mod:`wooddesargues.verifier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .kernel import (
    CoincidentPointsError,
    CollinearPointsError,
    GeometryError,
    Circle,
    Line,
    ORIGIN,
    Point,
    Similarity,
    INFINITY,
    UnitParameter,
    _det3,
    _join,
    _meet,
    _reflected_meet,
    circle_through,
    circumcenter,
    distance_squared,
    distinct,
    incident,
    line_through,
    midpoint,
    point_on_unit_circle,
    ring_orthocentres,
    second_intersection_of_circles,
)

POINT_LABELS = ("A", "B", "C", "K", "a", "b", "c", "1", "2", "3")
CIRCLE_LABELS = ("ABCK", "abcK", "Aa23", "Bb31", "Cc12")
CENTER_LABELS = ("U", "V", "L", "M", "N")

# each circle's label spells its four points in quadrangle order
CIRCLE_POINTS = {c: tuple(c) for c in CIRCLE_LABELS}
_QUADRANGLE_POINTS = {c: itemgetter(*c) for c in CIRCLE_LABELS}  # read from a points dict

CIRCLE_CENTER = dict(zip(CIRCLE_LABELS, CENTER_LABELS))

# the circles the pentagon circle is met with: Z on ABCK and W on Aa23
PENTAGON_MEETS = ("ABCK", "Aa23")

# the incidence table's label for the pentagon circle, through U, V and J
PENTAGON = "pentagon"


@dataclass(frozen=True)
class PerspectiveRecord:
    """One of the ten perspectives: corresponding triangles, perspector, perspectrix."""

    triangle1: tuple[str, str, str]
    triangle2: tuple[str, str, str]
    vertex: str
    perspectrix: tuple[str, str, str]


_PERSPECTIVE_ROWS = (
    (("A", "B", "C"), ("a", "b", "c"), "K", ("1", "2", "3")),
    (("K", "B", "C"), ("a", "3", "2"), "A", ("1", "c", "b")),
    (("A", "K", "C"), ("3", "b", "1"), "B", ("c", "2", "a")),
    (("A", "B", "K"), ("2", "1", "c"), "C", ("b", "a", "3")),
    (("C", "c", "2"), ("B", "b", "3"), "1", ("a", "A", "K")),
    (("A", "a", "3"), ("C", "c", "1"), "2", ("b", "B", "K")),
    (("B", "b", "1"), ("A", "a", "2"), "3", ("c", "C", "K")),
    (("K", "b", "c"), ("A", "3", "2"), "a", ("1", "C", "B")),
    (("K", "c", "a"), ("B", "1", "3"), "b", ("2", "A", "C")),
    (("K", "a", "b"), ("C", "2", "1"), "c", ("3", "B", "A")),
)

PERSPECTIVE_TABLE = tuple(PerspectiveRecord(*row) for row in _PERSPECTIVE_ROWS)


# as in Desargues, a point is the pair of circles through it: K = {ABCK, abcK},
# A = {ABCK, Aa23}, 1 = {Bb31, Cc12}; the ten points are the ten pairs
POINT_CIRCLES = {p: tuple(c for c in CIRCLE_LABELS if p in c) for p in POINT_LABELS}
_PAIR_POINT = {frozenset(pair): p for p, pair in POINT_CIRCLES.items()}
assert set(_PAIR_POINT) == {frozenset((c, d)) for c in CIRCLE_LABELS for d in CIRCLE_LABELS
                            if c != d}

OTHER_CIRCLE = {(c, p): d for c in CIRCLE_LABELS for p in c for d in POINT_CIRCLES[p] if d != c}
# per circle, the centres of the other circles through its points, in quadrangle order
QUADRANGLE_CENTRES = {c: tuple(CIRCLE_CENTER[OTHER_CIRCLE[c, p]] for p in c) for c in CIRCLE_LABELS}
CENTERS_AVOIDING = {p: tuple(CIRCLE_CENTER[c] for c in CIRCLE_LABELS if c not in pair)
                    for p, pair in POINT_CIRCLES.items()}

# a row's two triangles are the quadrangles of the two circles through its
# vertex, each without that vertex: so the orthocentres keyed (circle, v)
# for the circles through v are the row's H and F; its perspectrix is the
# three points whose pairs avoid the vertex's
for rec in PERSPECTIVE_TABLE:
    pair = POINT_CIRCLES[rec.vertex]
    assert {frozenset(rec.triangle1), frozenset(rec.triangle2)} == {
        frozenset(CIRCLE_POINTS[c]) - {rec.vertex} for c in pair}, rec
    assert set(rec.perspectrix) == {p for p, q in POINT_CIRCLES.items()
                                    if not set(pair) & set(q)}, rec
del rec, pair

# ring_orthocentres triangles: a quadrangle's, each without one vertex, in
# quadrangle order; the centres' (indices into CENTER_LABELS), in CENTERS_AVOIDING order
_QUADRANGLE_TRIANGLES = tuple(tuple(i for i in range(4) if i != k) for k in range(4))
_CENTRE_TRIANGLES = tuple(tuple(CENTER_LABELS.index(x) for x in labels)
                          for labels in CENTERS_AVOIDING.values())


class DegenerateSeedError(GeometryError):
    """A seed that does not produce a valid ten-point configuration."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ConfigurationSeed:
    """Six rational parameters: five unit-circle sweeps and the circle-2 offset."""

    t_j: UnitParameter
    t_k: UnitParameter
    t_a: UnitParameter
    t_b: UnitParameter
    t_c: UnitParameter
    s: Fraction

    def t_values(self) -> tuple[UnitParameter, ...]:
        return (self.t_j, self.t_k, self.t_a, self.t_b, self.t_c)


@dataclass(frozen=True)
class WoodDesarguesConfiguration:
    """The ten labeled points, J, the five circles and their centers; ``incidence``
    tells whether each circle's four points lie on it, decided on each construction;
    ``build_maps`` is the spiral and Wood map ``build_configuration`` pinned, else None."""

    points: dict[str, Point]
    j: Point
    circles: dict[str, Circle]
    centers: dict[str, Point]
    seed: Optional[ConfigurationSeed] = None
    incidence: dict[tuple[str, str], bool] = field(init=False, compare=False, repr=False)
    build_maps: Optional[tuple[Similarity, Similarity]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "incidence", {(c, p): self.circles[c]._power(self.points[p]) == 0
                                               for c in CIRCLE_LABELS for p in CIRCLE_POINTS[c]})

    def quadrangle(self, circle_label: str) -> tuple[Point, ...]:
        return _QUADRANGLE_POINTS[circle_label](self.points)


def build_configuration(seed: ConfigurationSeed) -> WoodDesarguesConfiguration:
    """Construct the configuration, rejecting degenerate seeds with a reason code."""
    ts = seed.t_values()
    # as reduced pairs: a Fraction's hash takes a modular inverse
    keys = {t if t is INFINITY else (t.numerator, t.denominator) for t in ts}
    if len(keys) < len(ts):
        raise DegenerateSeedError("duplicate-parameter")
    pj, pk, pa, pb, pc = map(point_on_unit_circle, ts)

    circle1 = Circle(ORIGIN, Fraction(1))
    center2 = midpoint(pj, pk) + (pk - pj).rot90().scale(seed.s)
    if center2 == ORIGIN:  # both circles pass through J
        raise DegenerateSeedError("coincident-circles")
    circle2 = Circle(center2, distance_squared(center2, pj))

    # the spiral similarity about J taking circle 1 to circle 2 sends each
    # vertex X to the second meet of line XK with circle 2, K itself when that
    # line touches circle 2 at K
    spiral = Similarity.pinned_by((pj, ORIGIN), (pj, center2))
    sa, sb, sc = map(spiral.apply, (pa, pb, pc))
    for lbl, other in zip("abc", (sa, sb, sc)):
        if other == pk:
            raise DegenerateSeedError(f"tangent-at-K:{lbl}")

    p1 = _meet(*_join(pb, pc), *_join(sb, sc))
    p2 = _meet(*_join(pc, pa), *_join(sc, sa))
    p3 = _meet(*_join(pa, pb), *_join(sa, sb))

    points = {"A": pa, "B": pb, "C": pc, "K": pk,
              "a": sa, "b": sb, "c": sc, "1": p1, "2": p2, "3": p3}

    # the Wood circle of X passes through J, X and spiral(X), and all those
    # triangles are similar about J: its centre is wood(X), where wood is
    # fixed at J and sends U to the centre of the circle through J, U and V
    wood = Similarity.pinned_by((pj, ORIGIN), (pj, circumcenter(pj, ORIGIN, center2)))

    circles = {"ABCK": circle1, "abcK": circle2}
    for clbl, vertex in (("Aa23", pa), ("Bb31", pb), ("Cc12", pc)):
        centre = wood.apply(vertex)
        circles[clbl] = Circle(centre, distance_squared(centre, pj))

    # hard invariant: every point on exactly the two circles its label names.
    # A missing required incidence would falsify the construction outright; an
    # extra incidence is a coincidence seed that breaks the label combinatorics.
    centers = {CIRCLE_CENTER[clbl]: circles[clbl].center for clbl in CIRCLE_LABELS}
    config = WoodDesarguesConfiguration(points=points, j=pj, circles=circles,
                                        centers=centers, seed=seed)
    if (reason := _membership_violation(config)) is not None:
        raise DegenerateSeedError(reason)
    object.__setattr__(config, "build_maps", (spiral, wood))
    return config


def _membership_violation(config: WoodDesarguesConfiguration) -> Optional[str]:
    """The reason code of the first (point, circle) pair, in label order, whose
    incidence is not the one the labels name, or None.

    One test settles all 50 pairs: the 20 labelled incidences, read off
    ``config.incidence``, all hold; the ten points have ten distinct triples;
    J's triple is not one of them; and the five centres are distinct.  Then
    no other pair is an incidence.  A point P lies on its first circle C1,
    and C1 shares one labelled point Q with a circle C not through P.  Both
    pass through Q and, as every built circle does, through J; Q is not J
    and the centres differ, so they meet in J and Q only, and P is neither.
    When the test fails, the loop over the 50 pairs, in label order, reads
    the labelled ones off the table, tests the other 30 with ``incident``
    and names the first violation.
    """
    points, j, circles, on = config.points, config.j, config.circles, config.incidence
    homs = {p.hom for p in points.values()}
    if (all(on.values()) and len(homs) == len(points) and j.hom not in homs
            and len({c.center.hom for c in circles.values()}) == len(circles)):
        return None
    for plbl in POINT_LABELS:
        p = points[plbl]
        for clbl in CIRCLE_LABELS:
            expected = on.get((clbl, plbl))
            if expected is None:
                if incident(circles[clbl], p):
                    return f"membership-violation:extra:{plbl}:{clbl}"
            elif not expected:
                return f"membership-violation:missing:{plbl}:{clbl}"
    return None


# ---------------------------------------------------------------------------
# derived figures


@dataclass(frozen=True)
class PentagonFigures:
    # circle through U, V and J; None only for tampered inputs (collinear/coincident)
    circle: Optional[Circle]
    # second meet of the pentagon circle, from J, with each circle of PENTAGON_MEETS:
    # J itself where they touch there, None where there is none (see meet_notes)
    meets: dict[str, Optional[Point]]
    meet_notes: dict[str, str]


Orthocentres = dict[tuple[str, str], Optional[Point]]
HalfTurn = tuple[int, int, int]  # (X, Y, d), unreduced
HalfTurns = dict[str, tuple[HalfTurn, tuple[Point, ...]]]
Incidence = dict[tuple[str, str], bool]
Joins = dict[str, bool]
QuadrangleMap = tuple[Optional[Similarity], tuple[bool, ...]]


@dataclass(frozen=True)
class DerivedFigures:
    """The figures the checks read.

    ``orthocentres[(circle, v)]`` is the orthocentre of the quadrangle of
    ``circle`` with vertex v left out, None when the three points left are
    collinear (impossible for a built configuration, reported for tampered
    ones).  Row v's H and F are the entries of the two circles through v.
    ``incidence[(circle, p)]`` tells whether point p ("J" for J) lies on the
    circle (``PENTAGON`` for the pentagon circle), for each circle's four
    labelled points and J and, when there is a pentagon circle, the five
    centres and J on it.
    ``centre_orthocentres[v]`` is the orthocentre of the centres
    ``CENTERS_AVOIDING[v]``, None when they are collinear: by Hagge's theorem
    the centre h(v) of row v's circle.  ``hagge[v]`` is the centre of the
    circle through J, H and F, None where they span no circle.
    ``collinear[n]`` tells whether the perspectrix points of table row n are
    collinear, and ``perspectrices[n]`` is the line through the first two
    distinct of them, None when all three coincide.
    ``half_turns[circle]``, for each circle whose four orthocentres
    ``derive_orthocentres`` summed about its centre, is T = vertex-sum - 2
    centre, as the unreduced triple (X, Y, d) of that sum, and those four
    orthocentres, each T - v in quadrangle order: the half turn z -> T - z
    takes the quadrangle to them.
    ``centre_half_turn`` is T = S - 2P, S the sum of the centres and P the
    pentagon centre, unreduced over the lcm of their Z, when the ring of the
    centres summed all ten triangles about P, else None: that is, when the
    five centres are distinct and all on the pentagon circle.
    ``quadrangle_maps`` is ``derive_quadrangle_maps(config)`` and ``joins``
    is ``derive_joins(config, pentagon)``, which ``verify_all`` adds:
    ``derive_figures`` leaves them None, as render reads neither.
    """

    orthocentres: Orthocentres
    hagge: dict[str, Optional[Point]]  # vertex -> h(vertex), the Hagge circle's centre
    hagge_notes: dict[str, str]
    pentagon: PentagonFigures
    centre_orthocentres: dict[str, Optional[Point]]
    collinear: tuple[bool, ...]
    perspectrices: tuple[Optional[Line], ...]
    incidence: Incidence
    half_turns: HalfTurns
    centre_half_turn: Optional[HalfTurn]
    quadrangle_maps: Optional[dict[str, QuadrangleMap]] = None
    joins: Optional[Joins] = None


def derive_incidence(config: WoodDesarguesConfiguration) -> Incidence:
    """The ``DerivedFigures.incidence`` table without the pentagon entries,
    which ``derive_pentagon`` adds: the labelled points' entries are
    ``config.incidence``, and J on each circle is one power test."""
    incidence: Incidence = dict(config.incidence)
    for clbl in CIRCLE_LABELS:
        incidence[clbl, "J"] = config.circles[clbl]._power(config.j) == 0
    return incidence


def derive_orthocentres(config: WoodDesarguesConfiguration,
                        incidence: Incidence) -> tuple[Orthocentres, HalfTurns]:
    """The twenty orthocentres, keyed (circle, omitted vertex), and the
    ``DerivedFigures.half_turns`` table.

    Each quadrangle is inscribed in its circle, so its four orthocentres come
    from ``ring_orthocentres`` about the circle's stored centre when the
    incidence table puts all four vertices on the circle; else the kernel
    meets two bisectors for each triangle.  Where the ring sums all four,
    its half turn is the circle's entry.
    """
    orthocentres: Orthocentres = {}
    half_turns: HalfTurns = {}
    for clbl in CIRCLE_LABELS:
        verts = CIRCLE_POINTS[clbl]
        on = all(incidence[clbl, v] for v in verts)
        hs, total = ring_orthocentres(config.quadrangle(clbl), _QUADRANGLE_TRIANGLES,
                                      config.circles[clbl].center if on else None)
        orthocentres.update(((clbl, v), h) for v, h in zip(verts, hs))
        if total is not None:
            half_turns[clbl] = total, tuple(hs)
    return orthocentres, half_turns


def derive_centre_orthocentres(config: WoodDesarguesConfiguration,
                               pentagon: Optional[Circle],
                               incidence: Incidence,
                               ) -> tuple[dict[str, Optional[Point]], Optional[HalfTurn]]:
    """Per table row v: the orthocentre of the three centres of the circles
    not through v, None when they are collinear; and the ring's half turn.

    The centres lie on the pentagon circle, so the ten come from
    ``ring_orthocentres`` about its centre when the incidence table puts all
    five on it; else the kernel meets two bisectors for each triangle.
    """
    on = pentagon is not None and all(incidence[PENTAGON, x] for x in CENTER_LABELS)
    hs, total = ring_orthocentres([config.centers[x] for x in CENTER_LABELS],
                                  _CENTRE_TRIANGLES, pentagon.center if on else None)
    return dict(zip(CENTERS_AVOIDING, hs)), total


def derive_hagge_centres(config: WoodDesarguesConfiguration, orthos: Orthocentres,
                         predicted: dict[str, Optional[Point]],
                         ) -> tuple[dict[str, Optional[Point]], dict[str, str]]:
    """Per table row: h(v), the centre of the circle through (J, H, F).

    That is ``circumcenter(J, H, F, predicted[v])``: the predicted centre
    when it is exactly as far from J, H and F.  Rows where J, H, F fail to
    span a circle are marked degenerate and skipped; the other rows are
    unaffected.
    """
    out: dict[str, Optional[Point]] = {}
    notes: dict[str, str] = {}
    j = config.j
    for rec in PERSPECTIVE_TABLE:
        v = rec.vertex
        out[v] = None
        h_pt, f_pt = (orthos[c, v] for c in POINT_CIRCLES[v])
        if h_pt is None or f_pt is None:
            notes[v] = f"missing orthocentre for row {v}"
            continue
        try:
            out[v] = circumcenter(j, h_pt, f_pt, predicted[v])
        except CoincidentPointsError:
            notes[v] = f"coincidence among J, H, F for row {v}"
        except CollinearPointsError:
            notes[v] = f"J, H, F collinear for row {v}"
    return out, notes


def derive_pentagon(config: WoodDesarguesConfiguration, incidence: Incidence) -> PentagonFigures:
    """The circle through U, V and J, offered the Wood map's image of U as its
    centre, and its meets; adds its entries to ``derive_incidence``'s table.
    J is on it, so it meets a circle the table puts through J about another
    centre at J reflected in the line of centres, ``_reflected_meet``."""
    j, u, v = config.j, config.centers["U"], config.centers["V"]
    meets: dict[str, Optional[Point]] = dict.fromkeys(PENTAGON_MEETS)
    meet_notes: dict[str, str] = {}
    try:
        pentagon = circle_through(u, v, j, config.build_maps and config.build_maps[1].beta)
    except (CollinearPointsError, CoincidentPointsError):
        return PentagonFigures(circle=None, meets=meets, meet_notes=meet_notes)

    for x in CENTER_LABELS:
        incidence[PENTAGON, x] = x in ("U", "V") or pentagon._power(config.centers[x]) == 0
    incidence[PENTAGON, "J"] = True
    for clbl in PENTAGON_MEETS:
        circle = config.circles[clbl]
        try:
            if incidence[clbl, "J"] and circle.center.hom != pentagon.center.hom:
                meets[clbl] = _reflected_meet(pentagon.center, circle.center, j)
            else:
                meets[clbl] = second_intersection_of_circles(pentagon, circle, j)
        except GeometryError as exc:
            meet_notes[clbl] = f"no second meet with {clbl}: {exc}"
    return PentagonFigures(circle=pentagon, meets=meets, meet_notes=meet_notes)


# the pentagon joins: (point, centre, meet) for the lines ALZ, BMZ, CNZ and AUW
_JOINS = (("A", "L", "ABCK"), ("B", "M", "ABCK"), ("C", "N", "ABCK"), ("A", "U", "Aa23"))


def derive_joins(config: WoodDesarguesConfiguration, pentagon: PentagonFigures) -> Joins:
    """Per centre of ``_JOINS``, whether its point, it and its meet are
    collinear, one bracket each, where the meet is not J and the three differ."""
    ends = ((c, config.points[p], config.centers[c], pentagon.meets[m]) for p, c, m in _JOINS)
    return {c: _det3(p, q, m) == 0 for c, p, q, m in ends
            if m is not None and m.hom != config.j.hom and len({p.hom, q.hom, m.hom}) == 3}


def derive_perspectrices(config: WoodDesarguesConfiguration,
                         ) -> tuple[tuple[bool, ...], tuple[Optional[Line], ...]]:
    """Per table row: whether its perspectrix points are collinear, and the
    line through the first two distinct of them, None when all three coincide.

    With three distinct points the verdict is that line at the third, which
    is the bracket of the row up to a nonzero factor."""
    collinear, lines = [], []
    for rec in PERSPECTIVE_TABLE:
        first, *rest = distinct(config.points[x] for x in rec.perspectrix)
        line = line_through(first, rest[0]) if rest else None
        collinear.append(len(rest) < 2 or line._at(rest[1]) == 0)
        lines.append(line)
    return tuple(collinear), tuple(lines)


def derive_quadrangle_maps(config: WoodDesarguesConfiguration) -> dict[str, QuadrangleMap]:
    """Per circle: the similarity its first two points and ``QUADRANGLE_CENTRES``
    pin, None where either pair coincides, and whether it sends the others.
    ABCK's is the build's Wood map where kept, as it sends A and B to L and M."""
    maps = {}
    for clbl in CIRCLE_LABELS:
        src, dst = config.quadrangle(clbl), [config.centers[x] for x in QUADRANGLE_CENTRES[clbl]]
        wood = config.build_maps[1] if clbl == "ABCK" and config.build_maps else None
        sim = None if src[0] == src[1] else wood or Similarity.pinned_by(src, dst)
        maps[clbl] = sim, (tuple(map(sim.sends, src[2:], dst[2:])) if sim is not None else ())
    return maps


def derive_figures(config: WoodDesarguesConfiguration) -> DerivedFigures:
    """The incidence table, orthocentres keyed (circle, omitted vertex), the
    pentagon figure, the centre-triangle orthocentres, the Hagge centres they
    predict and the ten perspectrices."""
    incidence = derive_incidence(config)
    pentagon = derive_pentagon(config, incidence)
    orthos, half_turns = derive_orthocentres(config, incidence)
    centre_orthos, centre_half_turn = derive_centre_orthocentres(config, pentagon.circle,
                                                                 incidence)
    hagge, hagge_notes = derive_hagge_centres(config, orthos, centre_orthos)
    collinear, perspectrices = derive_perspectrices(config)
    return DerivedFigures(orthocentres=orthos, hagge=hagge, hagge_notes=hagge_notes,
                          pentagon=pentagon, centre_orthocentres=centre_orthos,
                          collinear=collinear, perspectrices=perspectrices,
                          incidence=incidence, half_turns=half_turns,
                          centre_half_turn=centre_half_turn)
