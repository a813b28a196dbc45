"""Exact verification of every incidence theorem over a built configuration.

Each check reduces its statement to primitive claims (collinearity, incidence,
exact point/scalar equality, similarity transport).  A claim is decided on an
integer that is exactly zero when it holds; the exact witness value of a
violation is computed only for a failing claim, and only the report writer
turns it into text.  Every claim also carries a scale-invariant
double-precision recomputation of the same statement, so a passing report can
be cross-checked against floating-point geometry.  That recomputation is
deferred: it runs only when :func:`float_cross_residuals` reads it, never
during :func:`verify_all` (and so never in ``verify`` or ``fuzz``).  A claim is
recorded as a plain tuple; :class:`Claim` objects are built from the records
only when :attr:`CheckResult.claims` is read, so :func:`verify_all` builds none.

Statuses: ``pass``, ``fail`` (at least one violated equality, with an exact
witness), and ``degenerate-pass`` (the claim is vacuous because of a point
coincidence, reported distinctly).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

from .configuration import (
    CENTERS_AVOIDING,
    CIRCLE_CENTER,
    CIRCLE_LABELS,
    CIRCLE_POINTS,
    OTHER_CIRCLE,
    PENTAGON,
    PERSPECTIVE_TABLE,
    POINT_CIRCLES,
    QUADRANGLE_CENTRES,
    ConfigurationSeed,
    DerivedFigures,
    PerspectiveRecord,
    QuadrangleMap,
    WoodDesarguesConfiguration,
    derive_figures,
    derive_joins,
    derive_quadrangle_maps,
)
from .kernel import (
    CollinearPointsError,
    DegenerateInputError,
    ParallelLinesError,
    Circle,
    Line,
    MINUS_ONE,
    ONE,
    ORIGIN,
    Point,
    Similarity,
    _Value,
    _antipode,
    _join,
    _perpendicular_through,
    _point,
    _reflected_meet,
    circle_through,
    collapses_to_line,
    collinearity_residual,
    concyclicity_determinant,
    distinct,
    euler_sum,
    float_point,
    incident,
    is_collinear,
    line_through,
    meet,
    midpoint,
    parallel_through,
    radical_axis,
    second_intersection_of_circles,
    to_float,
)
from .serialize import format_scalar

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate-pass"


Witness = Union[Fraction, Point, Line, str]  # an exact value, or a fixed phrase


def _hyp(p: tuple[float, float]) -> float:
    return math.hypot(p[0], p[1])


def _sub(p, q) -> tuple[float, float]:
    return (p[0] - q[0], p[1] - q[1])


def _square(v: float) -> float:
    """``v ** 2``, or inf where that overflows (float ``**`` raises, ``*`` does not)."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


# Scale-invariant double-precision residuals, one per primitive claim.  A
# claim's record holds one of these and its arguments; it is evaluated only
# when the residual is read.


def _no_residual() -> float:
    return 0.0


def _collinear_residual(a: Point, b: Point, c: Point) -> float:
    fa, fb, fc = float_point(a), float_point(b), float_point(c)
    u, v = _sub(fb, fa), _sub(fc, fa)
    den = _hyp(u) * _hyp(v)
    return (u[0] * v[1] - u[1] * v[0]) / den if den else 0.0


def _line_residual(line: Line, p: Point) -> float:
    fp = float_point(p)
    a, b, c = line.float_coefficients()
    den = math.hypot(a, b) * (1.0 + _hyp(fp))
    return (a * fp[0] + b * fp[1] + c) / den


def _circle_residual(circle: Circle, p: Point) -> float:
    d = _sub(float_point(p), float_point(circle.center))
    r2 = to_float(circle.radius_squared)
    return (d[0] * d[0] + d[1] * d[1] - r2) / r2 if r2 else math.inf


def _distance_residual(got: Point, expected: Point) -> float:
    return _hyp(float_point(got - expected)) / (1.0 + _hyp(float_point(expected)))


def _scalar_residual(got: Fraction, expected: Fraction) -> float:
    return abs(to_float(got) - to_float(expected)) / (1.0 + abs(to_float(expected)))


def _concyclic_residual(a: Point, b: Point, c: Point, d: Point) -> float:
    pts = [float_point(t) for t in (a, b, c, d)]
    cx = sum(p[0] for p in pts) / 4.0
    cy = sum(p[1] for p in pts) / 4.0
    q = [(p[0] - cx, p[1] - cy) for p in pts]
    scale = sum(t[0] * t[0] + t[1] * t[1] for t in q) / 4.0
    if scale == 0.0:
        return 0.0
    m = [(r[0] - q[0][0], r[1] - q[0][1],
          r[0] * r[0] + r[1] * r[1] - _square(q[0][0]) - _square(q[0][1]))
         for r in q[1:]]
    fdet = (m[0][0] * (m[1][1] * m[2][2] - m[2][1] * m[1][2])
            - m[0][1] * (m[1][0] * m[2][2] - m[2][0] * m[1][2])
            + m[0][2] * (m[1][0] * m[2][1] - m[2][0] * m[1][1]))
    den = 4.0 * scale * scale
    return fdet / den if den else 0.0


def _map_residual(sim: Similarity, src: Point, dst: Point) -> float:
    fa, fb = float_point(sim.alpha), float_point(sim.beta)
    fs, fd = float_point(src), float_point(dst)
    gx = fa[0] * fs[0] - fa[1] * fs[1] + fb[0]
    gy = fa[0] * fs[1] + fa[1] * fs[0] + fb[1]
    return math.hypot(gx - fd[0], gy - fd[1]) / (1.0 + _hyp(fd))


class Claim:
    """One primitive assertion, built from its record: the exact verdict, the
    exact witness of a violation (None when it holds), and a deferred float
    recomputation of the statement, evaluated when ``residual`` is read."""

    __slots__ = ("label", "holds", "witness", "_residual", "_args")

    def __init__(self, label: str, holds: bool, witness: Optional[Witness],
                 residual_fn: Callable[..., float], args: tuple) -> None:
        self.label, self.holds, self.witness = label, holds, witness
        self._residual, self._args = residual_fn, args

    @property
    def residual(self) -> float:
        """Scale-invariant double-precision residual of the claim."""
        return self._residual(*self._args)


class ClaimSet:
    """Accumulates one record per claim, ``(label, holds, witness, residual_fn,
    args)``, and the degeneracy/info notes of one check.

    Each primitive decides its claim on an integer that is exactly zero when
    the claim holds; the witness is computed only for a failing claim.  A
    perspective row whose claims all hold and name distinct points records its
    ten claims, decided on the row's line verdicts, in one pass through
    ``incidences``.
    """

    def __init__(self) -> None:
        self.claims: list[tuple] = []
        self.degenerate_notes: list[str] = []
        self.info_notes: list[str] = []
        self.extra_witnesses: list[tuple[str, Witness]] = []

    # note helpers ----------------------------------------------------------

    def degenerate(self, note: str) -> None:
        self.degenerate_notes.append(note)

    def info(self, note: str) -> None:
        self.info_notes.append(note)

    def witness(self, label: str, value: Witness) -> None:
        self.extra_witnesses.append((label, value))

    def fail(self, label: str, witness: Witness) -> bool:
        self.claims.append((label, False, witness, _no_residual, ()))
        return False

    def _held(self, label: str) -> bool:
        """Record a claim that holds outright, as a passing point equality does."""
        self.claims.append((label, True, None, _no_residual, ()))
        return True

    # primitive claims -------------------------------------------------------

    def collinear(self, label: str, a: Point, b: Point, c: Point,
                  holds: Optional[bool] = None) -> bool:
        """Assert a, b, c collinear; coincident points make it vacuously true.
        ``holds`` is a verdict already decided on an equivalent bracket."""
        if a.hom == b.hom or a.hom == c.hom or b.hom == c.hom:
            return self._held(label)
        if holds is None:
            holds = is_collinear(a, b, c)
        witness = None if holds else collinearity_residual(a, b, c)
        self.claims.append((label, holds, witness, _collinear_residual, (a, b, c)))
        return holds

    def on_line(self, label: str, line: Line, p: Point, holds: Optional[bool] = None) -> bool:
        if holds is None:
            holds = line._at(p) == 0
        witness = None if holds else line.evaluate(p)
        self.claims.append((label, holds, witness, _line_residual, (line, p)))
        return holds

    def on_circle(self, label: str, circle: Circle, p: Point,
                  holds: Optional[bool] = None) -> bool:
        """``holds`` is a verdict already decided on the same power, or known
        by construction."""
        if holds is None:
            holds = circle._power(p) == 0
        witness = None if holds else circle.power(p)
        self.claims.append((label, holds, witness, _circle_residual, (circle, p)))
        return holds

    def points_equal(self, label: str, got: Point, expected: Point) -> bool:
        if got == expected:
            return self._held(label)
        self.claims.append((label, False, got, _distance_residual, (got, expected)))
        return False

    def lines_meet_at(self, label: str, l1: Line, l2: Line, target: Point, holds: bool,
                      coincide_note: str, parallel_witness: str = "parallel lines") -> None:
        """Claim that l1 and l2 meet exactly at target, decided by ``holds``: both pass it.
        Identical lines are degenerate; the lines are met only for a failing witness."""
        if l1 == l2:
            self.degenerate(coincide_note)
            return
        try:
            self.points_equal(label, target if holds else meet(l1, l2), target)
        except ParallelLinesError:
            self.fail(label, parallel_witness)

    def incidences(self, labels: Sequence[str], residuals: Sequence[Callable[..., float]],
                   args: Sequence[tuple], holds: Sequence[bool]) -> None:
        """Claim per label, with the verdict ``holds`` decided elsewhere and
        true, that its ``args`` are three distinct points on a line, where its
        residual is ``_collinear_residual``, or a line and a point on it, where
        it is ``_line_residual``.  The records, appended in one pass, are those
        ``collinear`` and ``on_line`` make."""
        self.claims += zip(labels, holds, repeat(None), residuals, args)

    def scalars_equal(self, label: str, got: Fraction, expected: Fraction) -> bool:
        holds = got == expected
        witness = None if holds else got
        self.claims.append((label, holds, witness, _scalar_residual, (got, expected)))
        return holds

    def concyclic(self, label: str, a: Point, b: Point, c: Point, d: Point,
                  holds: Optional[bool] = None) -> bool:
        """``holds`` is True when the four points are already known to lie on
        one circle; otherwise the determinant decides."""
        witness = None
        if not holds:
            det = concyclicity_determinant(a, b, c, d)
            if det != 0:
                holds, witness = False, det
            elif collapses_to_line((a, b, c, d)):
                holds, witness = False, "collinear-quadruple"
            else:
                holds = True
        self.claims.append((label, holds, witness, _concyclic_residual, (a, b, c, d)))
        return holds

    def maps_to(self, label: str, sim: Similarity, src: Point, dst: Point,
                holds: Optional[bool] = None) -> bool:
        holds = sim.sends(src, dst) if holds is None else holds
        witness = None if holds else sim.apply(src)
        self.claims.append((label, holds, witness, _map_residual, (sim, src, dst)))
        return holds

    def similarity(self, label: str, source: Sequence[Point], target: Sequence[Point],
                   pinned: Optional[QuadrangleMap] = None) -> Optional[Similarity]:
        """Claim that the map pinned by the first two pairs transports the rest.

        ``pinned`` is that map with its verdicts on the further pairs, decided
        elsewhere; without it the map is pinned here.  Returns the map, or None
        where none is formed: a coincident source pair is degenerate, a zero
        multiplier a failed claim."""
        if source[0] == source[1]:
            self.degenerate(f"{label}: first two source points coincide")
            return None
        if pinned is None:
            pinned = Similarity.pinned_by(source, target), (None,) * len(source)
        sim, holds = pinned
        if sim is None:
            self.fail(f"{label}: nonzero multiplier", ORIGIN)
            return None
        for i in range(2, len(source)):
            self.maps_to(f"{label}: pair {i + 1} transported", sim, source[i], target[i],
                         holds[i - 2])
        return sim

    def fixed_at(self, label: str, sim: Similarity, expected: Optional[Point],
                 holds: Optional[bool] = None) -> bool:
        """Claim that ``expected`` is the fixed point of ``sim``, whose alpha is not 1.

        The fixed point is then unique, so the claim is that sim sends
        ``expected`` to itself; the fixed point is built only as the witness.
        A true ``holds``, decided elsewhere, records the claim without reading
        ``expected``, which the caller may then leave unbuilt.
        """
        if holds:
            return self._held(label)
        got = expected if sim.sends(expected, expected) else sim.fixed_point()
        return self.points_equal(label, got, expected)

    # result ------------------------------------------------------------------

    def result(self, name: str) -> "CheckResult":
        witnesses = [(label, w) for label, holds, w, _, _ in self.claims if not holds]
        if witnesses:
            status = FAIL
        else:
            status = DEGENERATE if self.degenerate_notes else PASS
            witnesses = list(self.extra_witnesses)
        notes = "; ".join(self.degenerate_notes + self.info_notes)
        return CheckResult(name=name, status=status, witnesses=witnesses,
                           notes=notes, claims=tuple(self.claims))


class CheckResult(_Value):
    """A check's name, status, witnesses and notes, with the records of the
    claims behind them.  Set once like a kernel value; equality, hash and repr
    leave out the claims."""

    __slots__ = ("name", "status", "witnesses", "notes", "records")

    def __init__(self, name: str, status: str, witnesses: list[tuple[str, Witness]],
                 notes: str = "", claims: tuple[tuple, ...] = ()) -> None:
        _set_name(self, name)
        _set_status(self, status)
        _set_witnesses(self, witnesses)
        _set_notes(self, notes)
        _set_records(self, claims)

    @property
    def claims(self) -> tuple[Claim, ...]:
        """The claims, built afresh from the records on each read."""
        return tuple(Claim(*record) for record in self.records)

    def _compared(self) -> tuple:
        return self.name, self.status, self.witnesses, self.notes

    def __eq__(self, other):
        if type(other) is not CheckResult:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        return "CheckResult(name={!r}, status={!r}, witnesses={!r}, notes={!r})".format(
            *self._compared())


_set_name, _set_status, _set_witnesses, _set_notes, _set_records = (
    getattr(CheckResult, name).__set__ for name in CheckResult.__slots__)


@dataclass(frozen=True)
class VerificationReport:
    seed: Optional[ConfigurationSeed]
    results: tuple[CheckResult, ...]
    metadata: tuple[tuple[str, str], ...]

    @property
    def summary(self) -> dict[str, int]:
        counts = {PASS: 0, FAIL: 0, DEGENERATE: 0}
        for r in self.results:
            counts[r.status] += 1
        counts["total"] = len(self.results)
        return counts

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == FAIL)


# ---------------------------------------------------------------------------
# individual checks


# Each claim of a perspective row names three points of one of the ten
# configuration lines, the perspectrices (a KeyError here if not): a row's plan
# keeps, per claim, its point labels, label and note texts and that line's index.
# For the one pass it also keeps getters of the row's points, in the order v,
# p1 p2 p3, q1 q2 q3, w1 w2 w3 (vertex, triangles, perspectrix), of its claims'
# line verdicts and of its six sides, two at each w_i, and its claim labels.
_LINE_INDEX = {frozenset(rec.perspectrix): n for n, rec in enumerate(PERSPECTIVE_TABLE)}
_ROW_RESIDUALS = (_collinear_residual,) * 3 + (_line_residual,) * 6 + (_collinear_residual,)


def _perspective_plan(rec: PerspectiveRecord) -> tuple:
    t1, t2, v, w = rec.triangle1, rec.triangle2, rec.vertex, rec.perspectrix

    def line(*labels: str) -> int:
        return _LINE_INDEX[frozenset(labels)]

    joins = tuple((t1[i], t2[i], line(t1[i], t2[i], v), f"{t1[i]}{t2[i]} through {v}",
                   f"corresponding vertices {t1[i]}, {t2[i]} coincide") for i in range(3))
    sides = []
    for i in range(3):
        j, k = (m for m in range(3) if m != i)
        n1, n2 = t1[j] + t1[k], t2[j] + t2[k]
        sides.append((w[i], t1[j], t1[k], line(t1[j], t1[k], w[i]), f"{w[i]} on side {n1}",
                      t2[j], t2[k], line(t2[j], t2[k], w[i]), f"{w[i]} on side {n2}",
                      f"side pair {n1}/{n2} has coincident endpoints",
                      f"sides {n1} and {n2} coincide"))
    perspectrix_label = f"perspectrix {''.join(w)} collinear"
    side_lines = [m for side in sides for m in (side[3], side[7])]
    one_pass = (operator.itemgetter(v, *t1, *t2, *w),
                operator.itemgetter(*(join[2] for join in joins), *side_lines, line(*w)),
                operator.itemgetter(*side_lines),
                (*(join[3] for join in joins), *(lbl for side in sides for lbl in side[4:9:4]),
                 perspectrix_label))
    return one_pass, v, joins, tuple(sides), w, perspectrix_label


_PERSPECTIVE_PLANS = tuple(map(_perspective_plan, PERSPECTIVE_TABLE))


def check_perspective(cs: ClaimSet, config: WoodDesarguesConfiguration,
                      derived: DerivedFigures, row: int) -> None:
    """One table row: vertex joins concur, side meets land on the labeled
    perspectrix points, and those points are collinear.

    Every claim holds exactly when its configuration line's perspectrix
    points are collinear (``derived.collinear``): for distinct u and v, the
    line uv at w is the bracket [u v w] over a nonzero integer, and the
    bracket is alternating.  A side is that line when they are.

    A row whose ten verdicts hold, whose claims each name distinct points, as
    they do when the ten points are distinct, and whose two sides differ at
    each perspectrix point records its claims in one pass, through
    ``ClaimSet.incidences``.  Any other row records them one at a time, with a
    degenerate note in place of each claim a coincidence makes vacuous.
    """
    pts, collinear, lines = config.points, derived.collinear, derived.perspectrices
    one_pass, vertex, joins, sides, perspectrix, perspectrix_label = _PERSPECTIVE_PLANS[row]
    ten, verdicts, side_lines, labels = one_pass
    holds = verdicts(collinear)
    if all(holds):
        v, p1, p2, p3, q1, q2, q3, w1, w2, w3 = ten(pts)
        V, P1, P2, P3, Q1, Q2, Q3, W1, W2, W3 = (v.hom, p1.hom, p2.hom, p3.hom, q1.hom,
                                                 q2.hom, q3.hom, w1.hom, w2.hom, w3.hom)
        # the joins' p, q and v, each side's two ends and the perspectrix points differ
        if (P1 != Q1 and P2 != Q2 and P3 != Q3 and V not in (P1, P2, P3, Q1, Q2, Q3)
                and P1 != P2 != P3 != P1 and Q1 != Q2 != Q3 != Q1 and W1 != W2 != W3 != W1):
            s1, s2, s3, s4, s5, s6 = side_lines(lines)
            # and so do the two sides at each perspectrix point
            if ((s1.a, s1.b, s1.c) != (s2.a, s2.b, s2.c)
                    and (s3.a, s3.b, s3.c) != (s4.a, s4.b, s4.c)
                    and (s5.a, s5.b, s5.c) != (s6.a, s6.b, s6.c)):
                cs.incidences(labels, _ROW_RESIDUALS,
                              ((p1, q1, v), (p2, q2, v), (p3, q3, v), (s1, w1), (s2, w1),
                               (s3, w2), (s4, w2), (s5, w3), (s6, w3), (w1, w2, w3)), holds)
                cs.witness("perspectrix", lines[row])
                return

    v = pts[vertex]
    for x, y, m, label, note in joins:
        p, q = pts[x], pts[y]
        if p.hom == q.hom:
            cs.degenerate(note)
        else:
            cs.collinear(label, p, q, v, collinear[m])

    for w, x1, y1, m1, label1, x2, y2, m2, label2, coincident_note, same_note in sides:
        p1, q1, p2, q2 = pts[x1], pts[y1], pts[x2], pts[y2]
        if p1.hom == q1.hom or p2.hom == q2.hom:
            cs.degenerate(coincident_note)
            continue
        side1 = lines[m1] if collinear[m1] else line_through(p1, q1)
        side2 = lines[m2] if collinear[m2] else line_through(p2, q2)
        if side1 == side2:
            cs.degenerate(same_note)
            continue
        cs.on_line(label1, side1, pts[w], collinear[m1])
        cs.on_line(label2, side2, pts[w], collinear[m2])

    w1, w2, w3 = (pts[x] for x in perspectrix)
    if w1.hom == w2.hom or w1.hom == w3.hom or w2.hom == w3.hom:
        cs.degenerate("perspectrix points coincide")
    else:
        cs.collinear(perspectrix_label, w1, w2, w3, collinear[row])
        cs.witness("perspectrix", lines[row])


def _pentagon_circle(cs: ClaimSet, config: WoodDesarguesConfiguration,
                     derived: DerivedFigures,
                     label: str = "pentagon circle exists") -> Optional[Circle]:
    """The pentagon circle, or None after a failed claim that U, V, J span it."""
    pentagon = derived.pentagon.circle
    if pentagon is None:
        cs.fail(label, collinearity_residual(config.centers["U"], config.centers["V"], config.j))
    return pentagon


def check_five_circles(cs: ClaimSet, config: WoodDesarguesConfiguration,
                       derived: DerivedFigures) -> None:
    """The five quadrangles are cyclic and the five centres plus J are concyclic.

    A quadrangle all of whose vertices lie on its circle is concyclic: its
    determinant vanishes, and no three points of a circle are collinear.
    """
    incidence = derived.incidence
    for clbl in CIRCLE_LABELS:
        verts = CIRCLE_POINTS[clbl]
        cs.concyclic(f"{clbl} concyclic", *config.quadrangle(clbl),
                     all(incidence[clbl, v] for v in verts))
        circle = config.circles[clbl]
        for plbl in verts:
            cs.on_circle(f"{plbl} on {clbl}", circle, config.points[plbl], incidence[clbl, plbl])
        cs.on_circle(f"J on {clbl}", circle, config.j, incidence[clbl, "J"])
        cs.points_equal(f"centre {CIRCLE_CENTER[clbl]} is centre of {clbl}",
                        config.centers[CIRCLE_CENTER[clbl]], circle.center)

    pentagon = _pentagon_circle(cs, config, derived, "U, V, J span the pentagon circle")
    if pentagon is None:
        return
    for lbl, pt in list(config.centers.items()) + [("J", config.j)]:
        cs.on_circle(f"{lbl} on pentagon circle", pentagon, pt, incidence[PENTAGON, lbl])
    cs.witness("pentagon centre", pentagon.center)
    cs.witness("pentagon r2", pentagon.radius_squared)


def check_core_similarity(cs: ClaimSet, config: WoodDesarguesConfiguration) -> None:
    """ABC -> abc is a direct similarity fixed at J with ratio^2 = r2(abcK)/r2(ABCK);
    the build's spiral, where kept, made a and b, so it is the map they pin."""
    pts = config.points
    spiral = config.build_maps and (config.build_maps[0], (None,))
    sim = cs.similarity("ABC~abc", [pts[x] for x in "ABC"], [pts[x] for x in "abc"], pinned=spiral)
    if sim is not None:
        cs.witness("alpha", sim.alpha)
        if sim.alpha == ONE:
            cs.fail("similarity has a fixed point", sim.alpha)
        else:
            cs.fixed_at("fixed point is J", sim, config.j)
        ratio = config.circles["abcK"].radius_squared / config.circles["ABCK"].radius_squared
        cs.scalars_equal("ratio^2 equals circle r2 ratio", sim.ratio_squared, ratio)


def check_orthocentre_quadrangle(cs: ClaimSet, config: WoodDesarguesConfiguration,
                                 derived: DerivedFigures, circle_label: str) -> None:
    """The four orthocentres of a cyclic quadrangle's triangles form its half-turn image.

    Where ``derived.half_turns`` holds T for the circle and each orthocentre
    read is that entry's own object, each is T - v by construction: the half
    turn z -> T - z sends every vertex to its orthocentre and fixes T/2, so
    every claim holds, with that turn as the map; T is canonicalised here,
    not in the derive that render shares.  Otherwise the map is pinned from
    the first two pairs, and each claim is decided.
    """
    verts = CIRCLE_POINTS[circle_label]
    vpts = [config.points[v] for v in verts]
    hpts = []
    for v in verts:
        h = derived.orthocentres[circle_label, v]
        if h is None:
            tri = tuple(x for x in verts if x != v)
            res = collinearity_residual(*(config.points[x] for x in tri))
            cs.fail(f"orthocentre of {''.join(tri)} exists", res)
            return
        hpts.append(h)

    t, ring = derived.half_turns.get(circle_label, (None, ()))
    turn = t is not None and all(map(operator.is_, hpts, ring))
    pinned = (Similarity(MINUS_ONE, _point(*t)), (True, True)) if turn else None
    sim = cs.similarity(f"{circle_label}~H-quadrangle", vpts, hpts, pinned=pinned)
    if sim is not None:
        cs.points_equal("multiplier is -1 (half turn)", sim.alpha, MINUS_ONE)
        if sim.alpha != ONE:
            centre = config.circles[circle_label].center
            cs.fixed_at("fixed point is vertex-sum/2 - centre", sim,
                        None if turn else euler_sum(vpts, centre, 2), turn or None)


def check_steiner_line(cs: ClaimSet, derived: DerivedFigures, circle_label: str) -> None:
    """The four partner orthocentres of a quadrangle's rows are collinear.

    Collinearity is over the multiset: coincident orthocentres are deduplicated,
    and with fewer than three distinct points the claim holds outright.
    """
    fpts = []
    for v in CIRCLE_POINTS[circle_label]:
        f = derived.orthocentres[OTHER_CIRCLE[circle_label, v], v]
        if f is None:
            cs.fail(f"partner orthocentre F({v}) exists", "collinear partner triangle")
            return
        fpts.append(f)
        cs.witness(f"F({v})", f)

    line_pts = distinct(fpts)
    if len(line_pts) < 3:
        cs.info(f"only {len(line_pts)} distinct orthocentres; collinearity is immediate")
    else:  # the bracket [p q r] is join(p, q) at r
        a, b, c = _join(line_pts[0], line_pts[1])
        for k, r in enumerate(line_pts[2:], 3):
            X, Y, Z = r.hom
            cs.collinear(f"orthocentre line point {k}", line_pts[0], line_pts[1], r,
                         a * X + b * Y + c * Z == 0)


def _coincidence_name(config: WoodDesarguesConfiguration, p: Point) -> str:
    """The label of p; callers ask only once p equals a point, J or a centre."""
    named = {**config.points, "J": config.j, **config.centers}
    return next(lbl for lbl, q in named.items() if q == p)


def _require_meet(cs: ClaimSet, derived: DerivedFigures,
                  config: WoodDesarguesConfiguration, clbl: str,
                  name: str) -> Optional[Point]:
    """Fetch a pentagon second-meet point, converting absence or tangency into a
    failed or degenerate claim as appropriate.  The caller has claimed the pentagon circle."""
    pent = derived.pentagon
    pt = pent.meets[clbl]
    if pt is None:
        incidence = derived.incidence
        ok = cs.on_circle(f"J on {clbl}", config.circles[clbl], config.j, incidence[clbl, "J"])
        ok &= cs.on_circle("J on pentagon circle", pent.circle, config.j, incidence[PENTAGON, "J"])
        if ok:
            cs.degenerate(f"{name}: no second meet of pentagon circle and {clbl} "
                          f"({pent.meet_notes.get(clbl, 'degenerate intersection')})")
        return None
    if pt == config.j:
        cs.degenerate(f"{name}: pentagon circle tangent to {clbl} at J")
        return None
    return pt


def check_pentagon_perspectives(cs: ClaimSet, config: WoodDesarguesConfiguration,
                                derived: DerivedFigures) -> None:
    """Z and W line up with the construction points and ABC ~ LMN from J."""
    pts, ctr, joins = config.points, config.centers, derived.joins
    z = w = None
    if _pentagon_circle(cs, config, derived) is not None:
        z = _require_meet(cs, derived, config, "ABCK", "Z")
        w = _require_meet(cs, derived, config, "Aa23", "W")

    on_joins = []  # per join, whether Z is on it
    if z is not None:
        for albl, clbl in (("A", "L"), ("B", "M"), ("C", "N")):
            a, c = pts[albl], ctr[clbl]
            if ends := a == z or c == z:
                cs.degenerate(f"line {albl}{clbl}Z degenerate: "
                              f"Z coincides with {_coincidence_name(config, z)}")
            on_joins.append(ends or cs.collinear(f"{albl}, {clbl}, Z collinear", a, c, z,
                                                 joins.get(clbl)))
        cs.witness("Z", z)
    if w is not None:
        a, u = pts["A"], ctr["U"]
        if a == w or u == w:
            cs.degenerate(f"line AUW degenerate: W coincides with "
                          f"{_coincidence_name(config, w)}")
        else:
            cs.collinear("A, U, W collinear", a, u, w, joins.get("U"))
        cs.witness("W", w)

    # ABC ~ LMN is the ABCK quadrangle's map, pinned by the same two pairs
    sim = cs.similarity("ABC~LMN", [pts[x] for x in "ABC"], [ctr[x] for x in "LMN"],
                       pinned=derived.quadrangle_maps["ABCK"])
    if sim is not None:
        cs.witness("alpha ABC~LMN", sim.alpha)
        if sim.alpha == ONE:
            cs.fail("centre similarity has a fixed point", sim.alpha)
        else:
            cs.fixed_at("similarity centre is J", sim, config.j)

    if z is not None:
        note = "vertex joins to centres do not span two lines"
        if pts["A"] == ctr["L"] or pts["B"] == ctr["M"]:
            cs.degenerate(note)
        else:
            cs.lines_meet_at("AL meets BM at Z", line_through(pts["A"], ctr["L"]),
                             line_through(pts["B"], ctr["M"]), z, all(on_joins[:2]), note)


def check_pentagon_quadrangles(cs: ClaimSet, config: WoodDesarguesConfiguration,
                               derived: DerivedFigures) -> None:
    """Each quadrangle maps vertexwise onto the four other centres, directly similarly."""
    for clbl, pinned in derived.quadrangle_maps.items():
        names = "".join(QUADRANGLE_CENTRES[clbl])
        sim = cs.similarity(f"{clbl}~{names}", config.quadrangle(clbl),
                            [config.centers[x] for x in names], pinned=pinned)
        if sim is not None:
            cs.witness(f"alpha {clbl}~{names}", sim.alpha)


def check_tangent_concurrency(cs: ClaimSet, config: WoodDesarguesConfiguration,
                              derived: DerivedFigures) -> None:
    """Tangents at A, B, C concur at X = antipode(Z) on circle ABCK; the parallels
    through L, M, N concur at Y = antipode(Z) on the pentagon circle."""
    pts, ctr = config.points, config.centers
    pentagon = _pentagon_circle(cs, config, derived)
    if pentagon is None:
        return
    z = _require_meet(cs, derived, config, "ABCK", "Z")
    if z is None:
        return

    sides = (("A", "Aa23"), ("B", "Bb31"), ("C", "Cc12"))
    ok = True
    for plbl, clbl in sides:
        ok &= cs.on_circle(f"{plbl} on {clbl}", config.circles[clbl], pts[plbl],
                           derived.incidence[clbl, plbl])
    if not ok:
        return

    # Z is on both circles it meets, and each antipode on the circle it was taken on
    x, y = _antipode(config.circles["ABCK"], z), _antipode(pentagon, z)
    cs.on_circle("X on ABCK", config.circles["ABCK"], x, True)
    cs.on_circle("Y on pentagon circle", pentagon, y, True)
    cs.witness("X", x)
    cs.witness("Y", y)

    tangents = [_perpendicular_through(pts[plbl], config.circles[clbl].center)
                for plbl, clbl in sides]
    on = [cs.on_line(f"tangent at {plbl} to {clbl} passes X", t, x)
          for (plbl, clbl), t in zip(sides, tangents)]
    cs.lines_meet_at("tangents at A, B meet at X", tangents[0], tangents[1], x,
                     on[0] and on[1], "tangents at A and B coincide", "parallel tangents")

    parallels = [parallel_through(ctr[clbl], t) for t, clbl in zip(tangents, "LMN")]
    on = [cs.on_line(f"parallel through {clbl} passes Y", p, y)
          for p, clbl in zip(parallels, "LMN")]
    cs.lines_meet_at("parallels through L, M meet at Y", parallels[0], parallels[1], y,
                     on[0] and on[1], "parallels through L and M coincide")

    cs.points_equal("pentagon centre is midpoint of YZ", midpoint(y, z), pentagon.center)


def _h_circles(config: WoodDesarguesConfiguration, derived: DerivedFigures,
               ) -> dict[str, tuple[Point, QuadrangleMap]]:
    """Per circle C whose h-quadrangle the identity decides: the centre
    S - 3P - C of its circle and the h-map with its verdicts.  Given the
    centre half turn T = S - 2P, each accepted prediction h(v) is Euler's
    K - sigma(v), K = T - C and sigma the quadrangle map of C: the h-map is
    z -> K - sigma(z), its circle the pentagon circle turned about (K + P)/2."""
    out: dict[str, tuple[Point, QuadrangleMap]] = {}
    if derived.centre_half_turn is None:
        return out
    Xt, Yt, d = derived.centre_half_turn  # d is the lcm of the Z of the centres and P
    Xp, Yp, Zp = derived.pentagon.circle.center.hom
    for clbl, (sigma, holds) in derived.quadrangle_maps.items():
        if sigma is None or any(derived.hagge[v] is not derived.centre_orthocentres[v]
                                for v in clbl):
            continue
        Xc, Yc, Zc = config.centers[CIRCLE_CENTER[clbl]].hom
        Xk, Yk = Xt - Xc * (d // Zc), Yt - Yc * (d // Zc)  # K over d
        (Xa, Ya, Za), (Xb, Yb, Zb) = sigma.alpha.hom, sigma.beta.hom
        h_map = Similarity(Point((-Xa, -Ya, Za)),
                           _point(Xk * Zb - Xb * d, Yk * Zb - Yb * d, d * Zb))
        out[clbl] = _point(Xk - Xp * (d // Zp), Yk - Yp * (d // Zp), d), (h_map, holds)
    return out


def check_hagge(cs: ClaimSet, config: WoodDesarguesConfiguration,
                derived: DerivedFigures) -> None:
    """Hagge centres: perspectrix incidence, centre-triangle orthocentre identity, and
    similar h-quadrangles with one circumradius, by the identity of _h_circles where it holds."""
    hs, pentagon = derived.hagge, derived.pentagon.circle

    for rec, perspectrix in zip(PERSPECTIVE_TABLE, derived.perspectrices):
        v = rec.vertex
        h = hs[v]
        if h is None:
            note = derived.hagge_notes.get(v, "")
            if any(derived.orthocentres[c, v] is None for c in POINT_CIRCLES[v]):
                cs.fail(f"h({v}) derivable", note)
            else:
                cs.degenerate(f"h({v}) undefined: {note}")
            continue
        if perspectrix is None:
            cs.degenerate(f"perspectrix of row {v} collapses to a point")
        else:
            cs.on_line(f"h({v}) on perspectrix {''.join(rec.perspectrix)}", perspectrix, h)
        expected = derived.centre_orthocentres[v]
        if expected is None:
            cs.degenerate(f"centre triangle {''.join(CENTERS_AVOIDING[v])} collinear")
            continue
        cs.points_equal(f"h({v}) is orthocentre of {''.join(CENTERS_AVOIDING[v])}", h, expected)

    # an undecided h-quadrangle is pinned from its pairs, its circle built on three of them
    h_circles = _h_circles(config, derived)
    radii: list[tuple[str, Fraction]] = []
    for clbl in CIRCLE_LABELS:
        verts = CIRCLE_POINTS[clbl]
        if any(hs[v] is None for v in verts):
            cs.degenerate(f"h-quadrangle of {clbl} incomplete")
            continue
        src, dst = config.quadrangle(clbl), [hs[v] for v in verts]
        centre, h_map = h_circles.get(clbl, (None, None))
        cs.similarity(f"{clbl}~h-quadrangle", src, dst, pinned=h_map)
        if h_map is not None:
            circ, ring = Circle(centre, pentagon.radius_squared), dst
        else:
            ring = distinct(dst)[:3]
            try:
                circ = circle_through(*ring) if len(ring) == 3 else None
            except CollinearPointsError:
                circ = None
            if circ is None:
                res = collinearity_residual(*ring) if len(ring) == 3 else Fraction(0)
                cs.fail(f"h-quadrangle of {clbl} spans a circle", res)
                continue
        for v, p in zip(verts, dst):
            # on the circle: the three points it was built on, or all four by the identity
            cs.on_circle(f"h({v}) on h-circumcircle of {clbl}", circ, p,
                         True if h_map is not None or p in ring else None)
        radii.append((clbl, circ.radius_squared))
        cs.witness(f"h-circumcircle r2 of {clbl}", circ.radius_squared)

    for clbl, r2 in radii[1:]:
        cs.scalars_equal(f"h-circumcircle r2 of {clbl} equals that of {radii[0][0]}",
                         r2, radii[0][1])
    if radii and pentagon is not None:
        cs.scalars_equal("common h-circumcircle r2 equals pentagon r2",
                         radii[0][1], pentagon.radius_squared)

    # static fact, asserted at import with the tables: every point is the pair
    # of circles through it, so each Hagge centre is on two h-quadrangles
    cs.info("each Hagge centre lies on two h-quadrangles")


def _perpendicular_concurrency_claims(cs: ClaimSet, circle: Circle,
                                      base: Sequence[Point], s: Point, names: str,
                                      target: str, witness: str) -> None:
    """The lemma's claims: the perpendiculars at the base points to the cevians
    through ``s`` all pass the antipode of ``s`` on ``circle``.

    ``names`` labels the base points and ``target`` the antipode in claim
    labels; ``witness`` labels the antipode in the witnesses.
    """
    t = _antipode(circle, s)
    perps = [_perpendicular_through(b, s) for b in base]  # callers exclude s = b
    on = [cs.on_line(f"perpendicular at {name} passes {target}", line, t)
          for name, line in zip(names, perps)]
    cs.lines_meet_at(f"perpendiculars at {names[0]}, {names[1]} meet at {target}",
                     perps[0], perps[1], t, on[0] and on[1],
                     f"perpendiculars at {names[0]} and {names[1]} coincide")
    cs.witness(witness, t)


def check_perpendicular_concurrency(p: Point, q: Point, r: Point, s: Point) -> CheckResult:
    """Perpendiculars at P, Q, R to the cevians through S concur at the antipode of S.

    Precondition violations (collinear base triangle, S coinciding with a
    vertex, S off the circumcircle) are reported as degenerate input, not as
    failures; the statement presumes them.
    """
    cs = ClaimSet()
    if is_collinear(p, q, r):
        cs.degenerate("P, Q, R collinear")
    elif s in (p, q, r):
        cs.degenerate("S coincides with a base point")
    elif not incident(circ := circle_through(p, q, r), s):
        cs.degenerate(f"S off the circumcircle (power {format_scalar(circ.power(s))})")
    else:
        _perpendicular_concurrency_claims(cs, circ, (p, q, r), s, "PQR", "the antipode", "antipode")
    return cs.result("perpendicular-concurrency")


# The three-circle lemma and its configuration instance keep separate bodies:
# the lemma counts a triple with coincident points as a vacuous pass (through
# ClaimSet.collinear), while the instance reports it as degenerate.  The
# difference shows in campaign reports: five seeds of the 1000/42/12 campaign
# (the first at index 243) take the instance's coincident-triple path.


def check_three_circle_collinearity(j: Point, o: Point, l: Point) -> CheckResult:
    """Three circles through J: corrected collinearity triples (O,A,B) and (L,A,D).

    The conventionally printed triple (L, B, D) is evaluated and recorded in
    the notes without affecting the status.
    """
    if is_collinear(j, o, l):
        raise DegenerateInputError("J, O, L must not be collinear")
    cs = ClaimSet()
    s1 = circle_through(j, o, l)
    s2 = Circle(l, (j - l).norm_squared())
    s3 = Circle(o, (j - o).norm_squared())

    if radical_axis(s2, s3) == radical_axis(s1, s2) or \
       radical_axis(s1, s2) == radical_axis(s1, s3):
        cs.degenerate("coaxial circles: radical axes coincide")
    else:
        a = second_intersection_of_circles(s2, s3, j)
        b = second_intersection_of_circles(s1, s2, j)
        d = second_intersection_of_circles(s1, s3, j)
        if j in (a, b, d):
            cs.degenerate("tangent circle pair: a second intersection collapses onto J")
        else:
            for name, p in zip("ABD", (a, b, d)):
                cs.witness(name, p)
            cs.collinear("O, A, B collinear", o, a, b)
            cs.collinear("L, A, D collinear", l, a, d)
            printed = is_collinear(l, b, d)
            cs.info(f"printed triple (L, B, D) collinear: {str(printed).lower()}")
    return cs.result("three-circle-collinearity")


def check_perpendicular_concurrency_instance(cs: ClaimSet,
                                             config: WoodDesarguesConfiguration,
                                             derived: DerivedFigures) -> None:
    """Embedded instance on (A, B, C) with the cevian point K.

    Configuration-level incidences are claims here (a tampered point must fail,
    not degenerate): A, B, C, K on circle ABCK, then the concurrency at the
    antipode of K.
    """
    circ = config.circles["ABCK"]
    ok = True
    for lbl in ("A", "B", "C", "K"):
        ok &= cs.on_circle(f"{lbl} on ABCK", circ, config.points[lbl],
                           derived.incidence["ABCK", lbl])
    if not ok:
        return
    pts = [config.points[x] for x in ("A", "B", "C")]
    k = config.points["K"]
    if k in pts or is_collinear(*pts):
        cs.degenerate("degenerate lemma instance")
        return
    _perpendicular_concurrency_claims(cs, circ, pts, k, "ABC", "antipode(K)", "antipode of K")


def check_three_circle_collinearity_instance(cs: ClaimSet, config: WoodDesarguesConfiguration,
                                             derived: DerivedFigures) -> None:
    """Embedded instance on (pentagon, Aa23, ABCK): reproduces lines AUW and ALZ
    through the second meet of Aa23 and ABCK, which is J reflected in their
    line of centres as in ``derive_pentagon``, with the pentagon joins'
    brackets where that meet is A."""
    if _pentagon_circle(cs, config, derived) is None:
        return
    j, aa23, abck = config.j, config.circles["Aa23"], config.circles["ABCK"]
    incidence = derived.incidence
    ok = cs.on_circle("J on Aa23", aa23, j, incidence["Aa23", "J"])
    ok &= cs.on_circle("J on ABCK", abck, j, incidence["ABCK", "J"])
    if not ok:
        return
    w = _require_meet(cs, derived, config, "Aa23", "W")
    z = _require_meet(cs, derived, config, "ABCK", "Z")
    if w is None or z is None:
        return

    # both pass through J, so equal centres make them one circle
    if aa23.center.hom == abck.center.hom:
        cs.degenerate("circles Aa23 and ABCK coincide")
        return
    a, a2 = config.points["A"], _reflected_meet(aa23.center, abck.center, j)
    if a2 == j:
        cs.degenerate("circles Aa23 and ABCK tangent at J")
        return
    cs.points_equal("second meet of Aa23 and ABCK is A", a2, a)

    for c, m, name in (("U", w, "U, A, W"), ("L", z, "L, A, Z")):
        p = config.centers[c]
        if p == a2 or p == m or a2 == m:
            cs.degenerate(f"triple ({name}) has coincident points")
        else:
            cs.collinear(f"{name} collinear", p, a2, m, derived.joins.get(c) if a2 == a else None)
    printed = is_collinear(config.centers["L"], w, z)
    cs.info(f"printed triple (L, B, D) collinear here: {str(printed).lower()}")


# ---------------------------------------------------------------------------
# aggregation

REPORT_METADATA = (
    ("pentagon-perspective-vertex",
     "the perspective vertex of the centre triangle is taken to be the pentagon "
     "meet point Z"),
    ("lemma-collinearity-triples",
     "the three-circle check verifies the corrected triples (O,A,B) and (L,A,D); "
     "the printed (L,B,D) value is recorded in the notes"),
)

Check = Callable[[ClaimSet, WoodDesarguesConfiguration, DerivedFigures], None]

# The registry: (frozen check name, check) in report order, the one source of
# the names, their order and the dispatch.  A check fills the ClaimSet it is
# given; verify_all names the result.  Each entry looks its check function up
# in the module globals when it runs, so rebinding a check (as a tracer or a
# test patch does) takes effect here too.
CHECKS: tuple[tuple[str, Check], ...] = (
    *((f"perspective:{rec.vertex}", lambda cs, c, d, n=n: check_perspective(cs, c, d, n))
      for n, rec in enumerate(PERSPECTIVE_TABLE)),
    ("five-circles", lambda cs, c, d: check_five_circles(cs, c, d)),
    ("core-similarity", lambda cs, c, d: check_core_similarity(cs, c)),
    *((f"orthocentre-quadrangle:{q}",
       lambda cs, c, d, q=q: check_orthocentre_quadrangle(cs, c, d, q))
      for q in CIRCLE_LABELS),
    *((f"steiner-line:{q}", lambda cs, c, d, q=q: check_steiner_line(cs, d, q))
      for q in CIRCLE_LABELS),
    ("pentagon-perspectives", lambda cs, c, d: check_pentagon_perspectives(cs, c, d)),
    ("pentagon-quadrangles", lambda cs, c, d: check_pentagon_quadrangles(cs, c, d)),
    ("tangent-concurrency", lambda cs, c, d: check_tangent_concurrency(cs, c, d)),
    ("hagge-suite", lambda cs, c, d: check_hagge(cs, c, d)),
    ("perpendicular-concurrency",
     lambda cs, c, d: check_perpendicular_concurrency_instance(cs, c, d)),
    ("three-circle-collinearity",
     lambda cs, c, d: check_three_circle_collinearity_instance(cs, c, d)),
)


def check_names() -> tuple[str, ...]:
    """The frozen check identifiers in report order."""
    return tuple(name for name, _ in CHECKS)


def verify_all(config: WoodDesarguesConfiguration) -> VerificationReport:
    """Derive the figures and run every registered check, in registry order, into one report.

    Each check fills a fresh ClaimSet; its result takes the registry entry's name.
    """
    derived = derive_figures(config)
    derived = replace(derived, quadrangle_maps=derive_quadrangle_maps(config),
                      joins=derive_joins(config, derived.pentagon))
    results = []
    for name, check in CHECKS:
        cs = ClaimSet()
        check(cs, config, derived)
        results.append(cs.result(name))
    return VerificationReport(seed=config.seed, results=tuple(results), metadata=REPORT_METADATA)


def float_cross_residuals(report: VerificationReport) -> float:
    """Largest double-precision residual over all claims of non-failing checks.

    The exact engine proves these quantities are exactly zero; re-computing
    them in floating point bounds the gap between the exact and approximate
    readings of the same configuration.
    """
    worst = 0.0
    for result in report.results:
        if result.status == FAIL:
            continue
        for _, _, _, residual_fn, args in result.records:
            worst = max(worst, abs(residual_fn(*args)))
    return worst
