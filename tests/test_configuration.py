from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wooddesargues import (
    ConfigurationSeed,
    DegenerateSeedError,
    build_configuration,
    configuration,
    kernel,
    verifier,
    verify_all,
)
from wooddesargues.configuration import (
    CENTER_LABELS,
    CENTERS_AVOIDING,
    CIRCLE_CENTER,
    CIRCLE_LABELS,
    CIRCLE_POINTS,
    OTHER_CIRCLE,
    PENTAGON,
    PERSPECTIVE_TABLE,
    POINT_CIRCLES,
    POINT_LABELS,
    _PAIR_POINT,
    derive_centre_orthocentres,
    derive_figures,
    derive_hagge_centres,
    derive_incidence,
    derive_orthocentres,
    derive_pentagon,
)
from wooddesargues.fuzz import (
    FuzzPolicy,
    Xorshift64Star,
    draw_seed,
    generate_configurations,
    run_campaign,
)
from wooddesargues.kernel import (
    Circle,
    INFINITY,
    ORIGIN,
    Similarity,
    distance_squared,
    incident,
    line_through,
    midpoint,
    orthocentre,
    point,
    point_on_unit_circle,
)
from wooddesargues.serialize import (
    configuration_from_document,
    configuration_to_document,
    dumps,
    parse_seed_text,
    report_to_document,
)

from conftest import mutate_configuration, run_check


# --- Table 1 -----------------------------------------------------------------

def test_perspective_table_rows_exactly_as_printed():
    rows = [(("".join(r.triangle1)), "".join(r.triangle2), r.vertex, "".join(r.perspectrix))
            for r in PERSPECTIVE_TABLE]
    assert rows == [
        ("ABC", "abc", "K", "123"),
        ("KBC", "a32", "A", "1cb"),
        ("AKC", "3b1", "B", "c2a"),
        ("ABK", "21c", "C", "ba3"),
        ("Cc2", "Bb3", "1", "aAK"),
        ("Aa3", "Cc1", "2", "bBK"),
        ("Bb1", "Aa2", "3", "cCK"),
        ("Kbc", "A32", "a", "1CB"),
        ("Kca", "B13", "b", "2AC"),
        ("Kab", "C21", "c", "3BA"),
    ]


def test_perspective_table_structure():
    table = PERSPECTIVE_TABLE
    triangles = [r.triangle1 for r in table] + [r.triangle2 for r in table]
    assert len(set(triangles)) == 20
    for rec in table:
        tri_labels = set(rec.triangle1) | set(rec.triangle2)
        assert rec.vertex not in tri_labels
        assert not (set(rec.perspectrix) & tri_labels)
    vertices = [r.vertex for r in table]
    assert sorted(vertices) == sorted(POINT_LABELS)


def test_static_tables_are_consistent():
    for plbl in POINT_LABELS:
        assert len(POINT_CIRCLES[plbl]) == 2
    # each row's two triangles are the quadrangles through its vertex, less it
    for rec in PERSPECTIVE_TABLE:
        hosts = [c for c in POINT_CIRCLES[rec.vertex]
                 for tri in (rec.triangle1, rec.triangle2)
                 if set(tri) | {rec.vertex} == set(CIRCLE_POINTS[c])]
        assert sorted(hosts) == sorted(POINT_CIRCLES[rec.vertex])
    # the vertex-to-other-centre rule reproduces the printed example
    assert [CIRCLE_CENTER[OTHER_CIRCLE[("Bb31", v)]]
            for v in CIRCLE_POINTS["Bb31"]] == ["U", "V", "L", "N"]
    assert CENTERS_AVOIDING["K"] == ("L", "M", "N")
    assert OTHER_CIRCLE[("ABCK", "K")] == "abcK"
    assert OTHER_CIRCLE[("abcK", "K")] == "ABCK"
    # the ten points are the ten pairs of circles, and each row's perspectrix
    # is the three points whose pairs avoid its vertex's (python -O drops the
    # import-time asserts of both)
    assert sorted(map(sorted, POINT_CIRCLES.values())) == sorted(
        map(sorted, combinations(CIRCLE_LABELS, 2)))
    for rec in PERSPECTIVE_TABLE:
        assert sorted(rec.perspectrix) == sorted(
            p for p in POINT_LABELS
            if not set(POINT_CIRCLES[p]) & set(POINT_CIRCLES[rec.vertex]))


# --- the ten-point equivalence -------------------------------------------------

def _t(p):
    """The unit-circle parameter of p: y/(1 + x), INFINITY at (-1, 0)."""
    return INFINITY if p.x == -1 else p.y / (1 + p.x)


def _re_rooting_holds(config):
    # for each ordered pair (i, j) of circles, f(z) = (z - O_i)/(J - O_i) sends
    # circle i to the unit circle and J to 1; reading the seed off the images
    # of K = {i, j} and A, B, C = {i, k}, {i, l}, {i, m}, with s from circle
    # j's image centre, rebuilds the image of the configuration, with each
    # label's pair renamed by 1..5 -> i, j, k, l, m
    for i, j in permutations(CIRCLE_LABELS, 2):
        k, l, m = (c for c in CIRCLE_LABELS if c not in (i, j))
        old_circle = dict(zip(CIRCLE_LABELS, (i, j, k, l, m)))
        o = config.circles[i].center
        scale = config.j - o

        def f(z):
            return (z - o).cdiv(scale)

        def image_of(*pair):
            return f(config.points[_PAIR_POINT[frozenset(pair)]])

        j1, kk = f(config.j), image_of(i, j)
        side = kk - j1
        offset = f(config.circles[j].center) - midpoint(j1, kk)
        normal = side.rot90()
        s = (offset.x * normal.x + offset.y * normal.y) / side.norm_squared()
        seed = ConfigurationSeed(F(0), *(_t(image_of(i, x)) for x in (j, k, l, m)), s)
        new = build_configuration(seed)

        old_label = {lbl: _PAIR_POINT[frozenset(old_circle[c] for c in POINT_CIRCLES[lbl])]
                     for lbl in POINT_LABELS}
        assert new.points == {lbl: f(config.points[old_label[lbl]])
                              for lbl in POINT_LABELS}, (i, j)
        assert new.j == point(1, 0), (i, j)
        r2_scale = scale.norm_squared()
        assert new.circles == {c: Circle(f(config.circles[old_circle[c]].center),
                                         config.circles[old_circle[c]].radius_squared / r2_scale)
                               for c in CIRCLE_LABELS}
        assert new.centers == {CIRCLE_CENTER[c]: f(config.centers[CIRCLE_CENTER[old_circle[c]]])
                               for c in CIRCLE_LABELS}


def test_re_rooting_at_each_circle_pair_rebuilds_the_configuration(reference_config):
    # the paper's ten points are equivalent: the build from any ordered pair
    # of the five circles gives the same figure, up to a similarity
    _re_rooting_holds(reference_config)
    for magnitude in (12, 10 ** 12):
        for _, config, _, _ in generate_configurations(FuzzPolicy(20, 42, magnitude)):
            _re_rooting_holds(config)


# --- reference fixture --------------------------------------------------------

def test_reference_build_points(reference_config):
    cfg = reference_config
    expected = {
        "A": point(0, -1),
        "B": point(F(-3, 5), F(4, 5)),
        "C": point(F(-4, 5), F(3, 5)),
        "K": point(0, 1),
        "a": point(0, 3),
        "b": point(F(21, 5), F(12, 5)),
        "c": point(4, 3),
        "1": point(F(17, 5), F(24, 5)),
        "2": point(-2, 3),
        "3": point(F(-7, 5), F(16, 5)),
    }
    assert cfg.points == expected
    assert cfg.j == point(1, 0)


def test_reference_build_circles_and_centers(reference_config):
    cfg = reference_config
    assert cfg.circles["ABCK"] == Circle(point(0, 0), F(1))
    assert cfg.circles["abcK"] == Circle(point(2, 2), F(5))
    assert cfg.circles["Aa23"] == Circle(point(-1, 1), F(5))
    assert cfg.circles["Bb31"] == Circle(point(F(7, 5), F(14, 5)), F(8))
    assert cfg.circles["Cc12"] == Circle(point(1, 3), F(9))
    assert cfg.centers == {"U": point(0, 0), "V": point(2, 2), "L": point(-1, 1),
                           "M": point(F(7, 5), F(14, 5)), "N": point(1, 3)}


def test_membership_rule_holds(reference_config):
    cfg = reference_config
    for plbl in POINT_LABELS:
        on = [clbl for clbl in CIRCLE_LABELS if incident(cfg.circles[clbl], cfg.points[plbl])]
        assert tuple(on) == POINT_CIRCLES[plbl]
    # J lies on all five circles (one of the verified facts, true by construction
    # for the first two and by the circle theorems for the rest)
    for clbl in CIRCLE_LABELS:
        assert incident(cfg.circles[clbl], cfg.j)


def test_reference_derived_figures(reference_config, reference_derived):
    der = reference_derived
    orth = der.orthocentres
    assert (orth["ABCK", "K"], orth["abcK", "K"]) == (point(F(-7, 5), F(2, 5)),
                                                      point(F(21, 5), F(22, 5)))
    # partner orthocentres of ABCK; F(B) = F(C) = point 1 at this seed
    f = {v: orth[OTHER_CIRCLE["ABCK", v], v] for v in CIRCLE_POINTS["ABCK"]}
    assert f["K"] == point(F(21, 5), F(22, 5))
    assert f["A"] == point(F(-7, 5), F(36, 5))
    assert f["B"] == f["C"] == point(F(17, 5), F(24, 5))
    # H-quadrangle of ABCK (antipodal A, K make two of them land on B and C)
    h = {v: orth["ABCK", v] for v in CIRCLE_POINTS["ABCK"]}
    assert h == {"A": point(F(-7, 5), F(12, 5)), "B": point(F(-4, 5), F(3, 5)),
                 "C": point(F(-3, 5), F(4, 5)), "K": point(F(-7, 5), F(2, 5))}

    hagge = der.hagge
    expected_h = {
        "K": point(F(2, 5), F(19, 5)),
        "A": point(F(17, 5), F(24, 5)),
        "B": point(1, 3),
        "C": point(F(7, 5), F(14, 5)),
        "1": point(0, 0),
        "2": point(F(12, 5), F(9, 5)),
        "3": point(2, 2),
        "a": point(F(7, 5), F(14, 5)),
        "b": point(-1, 1),
        "c": point(F(-3, 5), F(4, 5)),
    }
    assert hagge == expected_h
    # the squared radius of row K's circle, as render draws it
    assert distance_squared(hagge["K"], reference_config.j) == F(74, 5)

    pent = der.pentagon
    assert pent.circle == Circle(point(F(1, 2), F(3, 2)), F(5, 2))
    assert pent.meets["ABCK"] == point(F(-4, 5), F(3, 5))  # coincides with C at this seed
    assert pent.meets["Aa23"] == point(0, 3)               # coincides with a at this seed
    # X and Y, the antipodes of Z on ABCK and on the pentagon circle
    results = {r.name: r for r in verify_all(reference_config).results}
    assert dict(results["tangent-concurrency"].witnesses) == {
        "X": point(F(4, 5), F(-3, 5)), "Y": point(F(9, 5), F(12, 5))}


def test_reference_against_independent_sympy_oracle(reference_config, reference_derived):
    """Recompute the key fixture values with sympy.geometry, a fully independent path."""
    sympy = pytest.importorskip("sympy")
    from sympy import Rational as R
    from sympy.geometry import Circle as SC, Point as SP, Segment, Triangle

    def sp(p):
        return SP(R(p.x.numerator, p.x.denominator), R(p.y.numerator, p.y.denominator))

    cfg = reference_config
    pts = {lbl: sp(p) for lbl, p in cfg.points.items()}
    j = sp(cfg.j)

    for lbl, (p, q, r, s) in {
        "Aa23": (pts["A"], pts["a"], pts["2"], pts["3"]),
        "Bb31": (pts["B"], pts["b"], pts["3"], pts["1"]),
        "Cc12": (pts["C"], pts["c"], pts["1"], pts["2"]),
    }.items():
        circ = SC(p, q, r)
        assert circ.center == sp(cfg.circles[lbl].center)
        assert (circ.radius ** 2 - R(cfg.circles[lbl].radius_squared.numerator,
                                     cfg.circles[lbl].radius_squared.denominator)) == 0
        assert (s.distance(circ.center) ** 2 - circ.radius ** 2).equals(0)

    hk = Triangle(pts["A"], pts["B"], pts["C"]).orthocenter
    fk = Triangle(pts["a"], pts["b"], pts["c"]).orthocenter
    got = Segment(j, hk).perpendicular_bisector().intersection(
        Segment(j, fk).perpendicular_bisector())[0]
    assert got == sp(reference_derived.hagge["K"])

    pent = SC(sp(cfg.centers["U"]), sp(cfg.centers["V"]), j)
    assert pent.center == sp(reference_derived.pentagon.circle.center)


# --- degenerate seeds ----------------------------------------------------------

def test_duplicate_parameter_rejected():
    with pytest.raises(DegenerateSeedError) as exc:
        build_configuration(ConfigurationSeed(F(0), F(0), F(-1), F(2), F(3), F(1)))
    assert exc.value.reason == "duplicate-parameter"
    with pytest.raises(DegenerateSeedError) as exc:
        build_configuration(ConfigurationSeed(INFINITY, F(0), F(-1), F(2), INFINITY, F(1)))
    assert exc.value.reason == "duplicate-parameter"


def test_coincident_circles_rejected():
    # s = 1/2 puts the second centre at the origin with radius 1
    with pytest.raises(DegenerateSeedError) as exc:
        build_configuration(ConfigurationSeed(F(0), F(1), F(-1), F(2), F(3), F(1, 2)))
    assert exc.value.reason == "coincident-circles"


def test_tangent_chord_rejected():
    # s = -1/2 makes AK tangent to the second circle at K
    with pytest.raises(DegenerateSeedError) as exc:
        build_configuration(ConfigurationSeed(F(0), F(1), F(-1), F(2), F(3), F(-1, 2)))
    assert exc.value.reason == "tangent-at-K:a"


def _plain_membership_violation(points, circles):
    """The first reason of the plain loop over all 50 (point, circle) pairs."""
    for plbl in POINT_LABELS:
        for clbl in CIRCLE_LABELS:
            expected = plbl in CIRCLE_POINTS[clbl]
            actual = incident(circles[clbl], points[plbl])
            if actual and not expected:
                return f"membership-violation:extra:{plbl}:{clbl}"
            if expected and not actual:
                return f"membership-violation:missing:{plbl}:{clbl}"
    return None


def _tampered_memberships(config):
    """(points, circles) with one point or circle changed, every circle still through J."""
    pts, circles = config.points, config.circles
    yield pts, circles
    for plbl in POINT_LABELS:
        yield {**pts, plbl: config.j}, circles
        yield {**pts, plbl: point(pts[plbl].x + 1, pts[plbl].y)}, circles
        # onto the point its first circle shares with each circle not through it
        own = POINT_CIRCLES[plbl][0]
        for clbl in CIRCLE_LABELS:
            if clbl not in POINT_CIRCLES[plbl]:
                shared, = set(CIRCLE_POINTS[own]) & set(CIRCLE_POINTS[clbl])
                yield {**pts, plbl: pts[shared]}, circles
    for c1 in CIRCLE_LABELS:
        for c2 in CIRCLE_LABELS:
            if c1 != c2:
                yield pts, {**circles, c2: circles[c1]}


@pytest.mark.parametrize("seed_text", [
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=-3/2",
    "tJ=4/3,tK=1/5,tA=4/1,tB=-5/8,tC=0/1,s=-1/1",
])
def test_membership_decisions_match_the_plain_loop(seed_text):
    # a point moved onto J, onto a point it shares a circle with or off its
    # circles, and one circle made equal to another: the build's decision by
    # point equality gives the first reason of the 50 incidence tests
    config = build_configuration(parse_seed_text(seed_text))
    reasons = Counter()
    for points, circles in _tampered_memberships(config):
        reason = configuration._membership_violation(
            dataclasses.replace(config, points=points, circles=circles))
        assert reason == _plain_membership_violation(points, circles)
        reasons[reason.split(":")[1] if reason else None] += 1
    assert reasons == {None: 1, "extra": 40, "missing": 30}


def test_drawn_seeds_keep_their_reasons_and_documents():
    # 3000 draws at magnitude 3, where every rejection reason that can fire
    # does, then 200 at 10^12 from the same stream: the exact reason tally and
    # the bytes of every accepted configuration are pinned
    rng = Xorshift64Star(5)
    reasons: Counter = Counter()
    digest = hashlib.sha256()
    for magnitude, count in ((3, 3000), (10 ** 12, 200)):
        for _ in range(count):
            try:
                config = build_configuration(draw_seed(rng, magnitude))
            except DegenerateSeedError as exc:
                reasons[exc.reason] += 1
                continue
            digest.update(dumps(configuration_to_document(config)).encode())
    assert reasons == {"duplicate-parameter": 1833, "coincident-circles": 35,
                       "tangent-at-K:a": 36, "tangent-at-K:b": 36, "tangent-at-K:c": 37}
    assert digest.hexdigest() == (
        "bf2165c98fcee102d4c9ff1b3f9f8113b2d27de043d337f46e694ab716832a2a")


def test_infinity_parameter_builds():
    cfg = build_configuration(ConfigurationSeed(INFINITY, F(1), F(-1, 3), F(2), F(3), F(1)))
    assert cfg.j == point(-1, 0)
    for plbl in POINT_LABELS:
        on = [c for c in CIRCLE_LABELS if incident(cfg.circles[c], cfg.points[plbl])]
        assert tuple(on) == POINT_CIRCLES[plbl]


def test_s_zero_allowed():
    cfg = build_configuration(ConfigurationSeed(F(0), F(1), F(-1), F(2), F(3), F(0)))
    # JK is then a diameter of the second circle
    from wooddesargues.kernel import midpoint
    assert cfg.circles["abcK"].center == midpoint(cfg.j, cfg.points["K"])


def test_orthocentre_table_holds_each_row_pair(reference_config, reference_derived):
    orth, _ = derive_orthocentres(reference_config, reference_derived.incidence)
    assert len(orth) == 20
    # a row's two orthocentres, computed from its triangles directly, are the
    # entries of the two circles through its vertex: each orthocentre serves
    # once as H and once, through OTHER_CIRCLE, as F
    pts = reference_config.points
    for rec in PERSPECTIVE_TABLE:
        direct = {orthocentre(*(pts[x] for x in tri)) for tri in (rec.triangle1, rec.triangle2)}
        assert direct == {orth[c, rec.vertex] for c in POINT_CIRCLES[rec.vertex]}


def test_pentagon_meets_only_the_circles_checks_read(reference_config, monkeypatch):
    # the table puts J on ABCK and Aa23, so each meet is J reflected in the
    # line of centres; with J moved off Aa23 by its radius, that meet takes
    # the guarded route, which raises into the note
    j, circles = reference_config.j, reference_config.circles
    aa23 = Circle(circles["Aa23"].center, circles["Aa23"].radius_squared + 1)
    moved = dataclasses.replace(reference_config, circles={**circles, "Aa23": aa23})
    for config, guarded in ((reference_config, ()), (moved, ("Aa23",))):
        calls = _count_kernel_calls(monkeypatch, "_reflected_meet",
                                    "second_intersection_of_circles")
        pent = derive_pentagon(config, derive_incidence(config))
        o = pent.circle.center
        assert calls == {
            "_reflected_meet": [(o, config.circles[c].center, j) for c in ("ABCK", "Aa23")
                                if c not in guarded],
            "second_intersection_of_circles": [(pent.circle, config.circles[c], j)
                                               for c in guarded]}
        assert set(pent.meets) == {"ABCK", "Aa23"}
        monkeypatch.undo()
    assert pent.meets["Aa23"] is None
    assert pent.meet_notes["Aa23"].startswith("no second meet with Aa23: ")


def _count_meets(monkeypatch) -> list:
    """Record every call of ``kernel._meet``, through each module that binds it."""
    return _count_kernel_calls(monkeypatch, "_meet")["_meet"]


def _count_kernel_calls(monkeypatch, *names) -> dict[str, list]:
    """Record the arguments of every call of each named kernel function,
    through each module that binds it."""
    def counting(real, seen):
        def call(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)
        return call

    calls: dict[str, list] = {}
    for name in names:
        real = getattr(kernel, name)
        wrapper = counting(real, calls.setdefault(name, []))
        for module in (kernel, configuration, verifier):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_orthocentres_meet_no_lines_given_the_stored_centres(
        reference_config, reference_derived, monkeypatch):
    # the twenty orthocentres about the stored centres, the ten centre-triangle
    # orthocentres about the pentagon centre and the Hagge centres they
    # predict, which circumcenter returns as given
    calls = _count_kernel_calls(monkeypatch, "orthocentre", "_bisector", "_meet")
    incidence = reference_derived.incidence
    orthos, half_turns = derive_orthocentres(reference_config, incidence)
    assert orthos == reference_derived.orthocentres
    assert half_turns == reference_derived.half_turns
    assert set(half_turns) == set(CIRCLE_LABELS)
    predicted, total = derive_centre_orthocentres(reference_config,
                                                  reference_derived.pentagon.circle, incidence)
    assert predicted == reference_derived.centre_orthocentres
    assert total == reference_derived.centre_half_turn
    assert (derive_hagge_centres(reference_config, orthos, predicted)
            == (reference_derived.hagge, reference_derived.hagge_notes))
    assert calls == {"orthocentre": [], "_bisector": [], "_meet": []}


def test_orthocentres_ignore_a_stored_centre_off_the_circle(reference_config, monkeypatch):
    # a circle whose four vertices are not all on it in the incidence table
    # hands each of its four triangles to orthocentre, which meets two
    # bisectors, and has no half turn: ABCK about J, and Bb31 and Cc12 with
    # point 1 moved off both
    abck = reference_config.circles["ABCK"]
    centre_off = dataclasses.replace(reference_config, circles={
        **reference_config.circles, "ABCK": Circle(reference_config.j, abck.radius_squared)})
    point_off = mutate_configuration(reference_config, "point", "1", "x", 1)
    for moved, off in ((centre_off, {"ABCK"}), (point_off, {"Bb31", "Cc12"})):
        pts = moved.points
        unseeded = {(c, v): orthocentre(*(pts[x] for x in CIRCLE_POINTS[c] if x != v))
                    for c in CIRCLE_LABELS for v in CIRCLE_POINTS[c]}
        meets = _count_meets(monkeypatch)
        orthos, half_turns = derive_orthocentres(moved, derive_incidence(moved))
        assert orthos == unseeded
        assert len(meets) == 4 * len(off)
        assert set(half_turns) == set(CIRCLE_LABELS) - off
        monkeypatch.undo()


def _centre_sum(config, pentagon) -> tuple[int, int, int]:
    """S - 2P over the lcm d of the Z of P and the five centres, S their sum, as (X, Y, d)."""
    ctr = [pentagon.center, *(config.centers[x] for x in CENTER_LABELS)]
    d = math.lcm(*(p.hom[2] for p in ctr))
    (Xp, Yp), *over = [(X * (d // Z), Y * (d // Z)) for X, Y, Z in (p.hom for p in ctr)]
    return sum(x for x, _ in over) - 2 * Xp, sum(y for _, y in over) - 2 * Yp, d


def test_the_centre_half_turn_is_the_sum_of_five_distinct_concyclic_centres(reference_config):
    policy = FuzzPolicy(20, 42, 10 ** 12)
    for config in [reference_config,
                   *(built for _, built, _, _ in generate_configurations(policy))]:
        derived = derive_figures(config)
        assert derived.centre_half_turn == _centre_sum(config, derived.pentagon.circle)
    # two equal centres, all on the pentagon circle; and one centre off it
    centers = reference_config.centers
    coincident = dataclasses.replace(reference_config, centers={**centers, "M": centers["L"]})
    off = mutate_configuration(reference_config, "center", "L", "x", 1)
    for moved, on in ((coincident, True), (off, False)):
        derived = derive_figures(moved)
        assert derived.incidence[PENTAGON, "L"] is on
        assert derived.centre_half_turn is None


def test_hagge_circles_meet_no_bisectors_given_the_predicted_centres(
        reference_config, reference_derived, monkeypatch):
    meets = _count_meets(monkeypatch)
    hagge, notes = derive_hagge_centres(reference_config, reference_derived.orthocentres,
                                        reference_derived.centre_orthocentres)
    assert (hagge, notes) == (reference_derived.hagge, reference_derived.hagge_notes)
    assert meets == []
    result = run_check("hagge-suite", reference_config, reference_derived)
    assert result.status == "pass"
    assert meets == []


def _record_circles(monkeypatch, module) -> list:
    """Record (points, circle) for each circle_through call of ``module``."""
    calls = []
    real = module.circle_through

    def recording(p, q, r):
        circle = real(p, q, r)
        calls.append(((p, q, r), circle))
        return circle

    monkeypatch.setattr(module, "circle_through", recording)
    return calls


@pytest.mark.parametrize("label", ["V", "L", "N"])
def test_rejected_predicted_centres_give_the_unpredicted_circles(
        reference_config, monkeypatch, label):
    # a moved centre moves the centre-triangle orthocentres and the predicted
    # h-circumcircle centres off the true ones
    moved = mutate_configuration(reference_config, "center", label, "x", 1)
    derived = derive_figures(moved)
    assert any(h != derived.centre_orthocentres[v] for v, h in derived.hagge.items())
    for v, h in derived.hagge.items():
        h_pt, f_pt = (derived.orthocentres[c, v] for c in POINT_CIRCLES[v])
        circle = kernel.circle_through(moved.j, h_pt, f_pt)
        assert Circle(h, distance_squared(h, moved.j)) == circle

    # so hagge-suite builds some h-circumcircle on three Hagge centres
    ring_calls = _record_circles(monkeypatch, verifier)
    verify_all(moved)
    assert any(set(points) <= set(derived.hagge.values()) for points, _ in ring_calls)
    for points, circle in ring_calls:
        assert circle == kernel.circle_through(*points)


@pytest.mark.parametrize("magnitude", [12, 10 ** 12])
def test_a_campaign_seed_builds_one_circumcentre(monkeypatch, magnitude):
    # the centre of the circle through J, U and V, in the build (it pins the
    # similarity giving the Wood centres); the pentagon circle takes the Wood
    # map's image of U and every Hagge circle its predicted centre, which
    # circumcenter returns, and every h-circumcircle is the pentagon circle
    # turned half
    calls = []
    real = kernel.circumcenter

    def counting(p, q, r, centre=None):
        o = real(p, q, r, centre)
        if o != centre:
            calls.append((p, q, r))
        return o

    for module in (kernel, configuration):
        monkeypatch.setattr(module, "circumcenter", counting)
    run_campaign(FuzzPolicy(count=10, rng_seed=42, max_magnitude=magnitude))
    assert len(calls) == 10


@pytest.mark.parametrize("magnitude", [12, 10 ** 12])
def test_a_campaign_seed_decides_each_incidence_once(monkeypatch, magnitude):
    # (Circle._power, concyclicity_determinant, _distance_record, _det3,
    # Similarity.pinned_by, euler_sum, Similarity.sends, _point) calls per
    # build and per verify_all; python -O drops asserts, none of which makes
    # any.
    # Build: the 20 incidences the labels name, which the configuration
    # keeps, the other 30 by point equality; one distance record per
    # circle-2 and Wood radius; the collinearity guard of the circumcentre of
    # J, U and V, whose assert compares no records; the spiral and the Wood
    # similarity.
    # Verify: one power per incidence-table entry that is neither kept by
    # the configuration nor true by construction (J on the five circles, L,
    # M and N on the pentagon circle); the pentagon meets and the
    # three-circle instance's meet of Aa23 and ABCK reflect J; no
    # determinant; one record, the pentagon circle's radius: a predicted
    # Hagge centre and the pentagon centre, the Wood map's image of U, are
    # tested for equidistance by bilinear forms.  Brackets: the four
    # pentagon joins, which the three-circle instance reads too, the
    # perpendicular-concurrency instance's guard and the three-circle
    # instance's printed triple; the accepted pentagon centre needs no
    # collinearity guard, and each perspectrix and Steiner line is decided
    # on its own line.  Pinned: four quadrangle maps; ABC~abc is the build's
    # spiral and ABCK's map, which ABC~LMN reads, its Wood map, and every
    # h-quadrangle reads the quadrangle maps: each h-circumcircle is the
    # pentagon circle turned half, so it needs no power or record.  No
    # Euler sum: each quadrangle's half turn comes from its ring.  Sends:
    # the third pair of ABC~abc, its fixed point and that of ABC~LMN, and
    # the two further pairs of each quadrangle map.  _point: each
    # canonicalised point, 24 per build and 60 per verify.
    seeds = [config.seed for _, config, _, _ in
             generate_configurations(FuzzPolicy(10, 42, magnitude))]
    powers, pins, sends = [], [], []
    real_power, real_pinned_by, real_sends = (Circle._power, Similarity.pinned_by.__func__,
                                              Similarity.sends)

    def counting_power(circle, p):
        powers.append(p)
        return real_power(circle, p)

    def counting_pinned_by(cls, source, target):
        pins.append(source)
        return real_pinned_by(cls, source, target)

    def counting_sends(sim, p, q):
        sends.append(p)
        return real_sends(sim, p, q)

    monkeypatch.setattr(Circle, "_power", counting_power)
    monkeypatch.setattr(Similarity, "pinned_by", classmethod(counting_pinned_by))
    monkeypatch.setattr(Similarity, "sends", counting_sends)
    calls = _count_kernel_calls(monkeypatch, "concyclicity_determinant", "_distance_record",
                                "_det3", "euler_sum", "_point")
    euler, points = calls.pop("euler_sum"), calls.pop("_point")
    counted = [powers, *calls.values(), pins, euler, sends, points]

    def work(stage, *args):
        for seen in counted:
            seen.clear()
        result = stage(*args)
        return result, tuple(map(len, counted))

    ledger = []
    for seed in seeds:
        config, built = work(build_configuration, seed)
        report, verified = work(verify_all, config)
        assert not report.failed
        ledger.append((built, verified))
    # at magnitude 12, seed 1's Z is N, so the join CNZ needs no bracket
    brackets = [5 if (magnitude, n) == (12, 1) else 6 for n in range(10)]
    assert ledger == [((20, 0, 4, 1, 2, 0, 0, 24), (8, 0, 1, b, 4, 0, 13, 60)) for b in brackets]


# --- perspectrices -------------------------------------------------------------

def _count_line_builds(monkeypatch, config) -> Counter:
    """Count configuration.line_through calls by the labels of their two points."""
    label = {p: lbl for lbl, p in config.points.items()}
    original = configuration.line_through
    calls: Counter = Counter()

    def counting_line_through(p, q):
        calls[frozenset((label[p], label[q]))] += 1
        return original(p, q)

    monkeypatch.setattr(configuration, "line_through", counting_line_through)
    return calls


@pytest.mark.parametrize("seed_text", [
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=-3/2",
    "tJ=4/3,tK=1/5,tA=4/1,tB=-5/8,tC=0/1,s=-1/1",
    "tJ=-1/1,tK=7/10,tA=3/1,tB=5/9,tC=1/4,s=1/1",
])
def test_built_configuration_builds_one_line_per_configuration_line(monkeypatch, seed_text):
    config = build_configuration(parse_seed_text(seed_text))
    calls = _count_line_builds(monkeypatch, config)
    derive_figures(config)
    # one pair of each perspectrix, and no other line
    assert sum(calls.values()) == 10
    assert sorted(sum(pair <= set(rec.perspectrix) for pair in calls)
                  for rec in PERSPECTIVE_TABLE) == [1] * 10


@pytest.mark.parametrize("moved", [
    {}, {"A": "B"}, {"1": "2"}, {"a": "K"}, {"c": "1", "b": "1"}, {"2": "K"},
], ids=["built", "A=B", "1=2", "a=K", "c=b=1", "2=K"])
def test_derived_perspectrices_are_the_lines_of_their_rows(reference_config, moved):
    # A = B, 1 = 2 and a = K each put two points of some perspectrix together;
    # c = b = 1 puts all three of row A's; 2 = K lies on no common line
    pts = reference_config.points
    moved_points = {x: pts[y] for x, y in moved.items()}
    config = dataclasses.replace(reference_config, points={**pts, **moved_points})
    derived = derive_figures(config)
    for n, rec in enumerate(PERSPECTIVE_TABLE):
        first, *rest = (config.points[x] for x in rec.perspectrix)
        assert derived.collinear[n] == kernel.is_collinear(first, *rest)
        others = [p for p in rest if p != first]
        expected = line_through(first, others[0]) if others else None
        assert derived.perspectrices[n] == expected
    assert (derived.perspectrices[1] is None) == (moved == {"c": "1", "b": "1"})


@pytest.mark.parametrize("label", ["1", "A", "K"])
def test_tampered_configuration_gets_the_line_of_each_pair(reference_config, label):
    mutated = mutate_configuration(reference_config, "point", label, "x", 1)
    derived = derive_figures(mutated)
    assert not all(derived.collinear)
    pts = mutated.points
    checked = 0
    for result in verify_all(mutated).results:
        if not result.name.startswith("perspective:"):
            continue
        for claim in result.claims:
            if " on side " in claim.label:
                line, w = claim._args
                u, v = claim.label.split(" on side ")[1]
                assert line == line_through(pts[u], pts[v])
                assert w == pts[claim.label[0]]
                checked += 1
    assert checked == 60


def test_a_verify_leaves_nothing_behind(reference_config):
    verify_all(reference_config)  # a verify leaves nothing behind in the configuration
    mutated = mutate_configuration(reference_config, "point", "B", "x", 1)
    report = verify_all(mutated)
    assert report.failed
    fresh = configuration_from_document(configuration_to_document(mutated))
    assert dumps(report_to_document(report)) == dumps(report_to_document(verify_all(fresh)))


# --- rotation equivariance ---------------------------------------------------

# rationals as the fuzzer draws them at magnitude 12
small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
unit_parameters = st.one_of(small_rationals, st.just(INFINITY))
turns = st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 12))


def _turn(t, u):
    """tan((a + b)/2) from t = tan(a/2) and u = tan(b/2), with INFINITY for tan(pi/2)."""
    if t is INFINITY:
        return -1 / u
    if t * u == 1:
        return INFINITY
    return (t + u) / (1 - t * u)


def _outcome(config) -> list:
    return [(r.name, r.status, r.notes) for r in verify_all(config).results]


@settings(max_examples=100, deadline=None)
@given(st.lists(unit_parameters, min_size=5, max_size=5), small_rationals, turns)
def test_turning_the_parameters_rotates_the_configuration(ts, s, u):
    # each t sweeps the unit circle, so turning every t by u rotates every
    # built point about the origin by point_on_unit_circle(u)
    seed = ConfigurationSeed(*ts, s)
    turned_seed = ConfigurationSeed(*(_turn(t, u) for t in ts), s)
    try:
        config = build_configuration(seed)
    except DegenerateSeedError as exc:
        with pytest.raises(DegenerateSeedError) as turned_exc:
            build_configuration(turned_seed)
        assert turned_exc.value.reason == exc.reason
        return
    turned = build_configuration(turned_seed)
    rotate = Similarity(point_on_unit_circle(u), ORIGIN).apply
    assert {lbl: rotate(p) for lbl, p in config.points.items()} == turned.points
    assert rotate(config.j) == turned.j
    assert {lbl: rotate(p) for lbl, p in config.centers.items()} == turned.centers
    for lbl, circle in config.circles.items():
        assert turned.circles[lbl].center == rotate(circle.center)
        assert turned.circles[lbl].radius_squared == circle.radius_squared
    assert _outcome(turned) == _outcome(config)


def _moved_by(config, sim: Similarity):
    """config with every point, J and centre carried by sim and each r2 scaled."""
    move, k = sim.apply, sim.ratio_squared
    return dataclasses.replace(
        config,
        points={lbl: move(p) for lbl, p in config.points.items()},
        j=move(config.j),
        circles={lbl: Circle(move(c.center), c.radius_squared * k)
                 for lbl, c in config.circles.items()},
        centers={lbl: move(p) for lbl, p in config.centers.items()})


similarities = st.builds(Similarity, st.builds(point, turns, small_rationals),
                         st.builds(point, small_rationals, small_rationals))
tamperings = st.one_of(
    st.none(),
    st.tuples(st.just("point"), st.sampled_from(POINT_LABELS), st.sampled_from("xy"), turns),
    st.tuples(st.just("center"), st.sampled_from(CENTER_LABELS), st.sampled_from("xy"), turns),
    st.tuples(st.just("j"), st.just("J"), st.sampled_from("xy"), turns))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2 ** 63), similarities, tamperings)
def test_a_similarity_keeps_every_status_and_note(rng_seed, sim, tampering):
    # every check states a similarity-invariant fact, so moving a built or a
    # tampered configuration by a direct similarity keeps its outcome
    policy = FuzzPolicy(count=1, rng_seed=rng_seed, max_magnitude=12)
    _, config, _, _ = next(generate_configurations(policy))
    if tampering is not None:
        config = mutate_configuration(config, *tampering)
    assert _outcome(_moved_by(config, sim)) == _outcome(config)
