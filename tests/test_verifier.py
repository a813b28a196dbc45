from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from wooddesargues import check_names, verify_all
from wooddesargues import serialize, verifier
from wooddesargues.configuration import (
    CIRCLE_CENTER,
    CIRCLE_LABELS,
    POINT_CIRCLES,
    POINT_LABELS,
    WoodDesarguesConfiguration,
    derive_figures,
    derive_quadrangle_maps,
)
from wooddesargues.fuzz import FuzzPolicy, generate_configurations
from wooddesargues.kernel import (
    Circle,
    DegenerateInputError,
    Line,
    distance_squared,
    is_collinear,
    line_through,
    meet,
    midpoint,
    parallel_through,
    perpendicular_at,
    point,
)
from wooddesargues.serialize import dumps, report_to_document
from wooddesargues.verifier import (
    DEGENERATE,
    FAIL,
    PASS,
    check_perpendicular_concurrency,
    check_three_circle_collinearity,
    float_cross_residuals,
)

from conftest import mutate_configuration, run_check
from test_acceptance import MUTATIONS
from test_golden import _tampered, _tampering


EXPECTED_NAMES = (
    "perspective:K", "perspective:A", "perspective:B", "perspective:C",
    "perspective:1", "perspective:2", "perspective:3",
    "perspective:a", "perspective:b", "perspective:c",
    "five-circles", "core-similarity",
    "orthocentre-quadrangle:ABCK", "orthocentre-quadrangle:abcK",
    "orthocentre-quadrangle:Aa23", "orthocentre-quadrangle:Bb31",
    "orthocentre-quadrangle:Cc12",
    "steiner-line:ABCK", "steiner-line:abcK", "steiner-line:Aa23",
    "steiner-line:Bb31", "steiner-line:Cc12",
    "pentagon-perspectives", "pentagon-quadrangles",
    "tangent-concurrency", "hagge-suite",
    "perpendicular-concurrency", "three-circle-collinearity",
)


def test_check_names_are_frozen():
    assert check_names() == EXPECTED_NAMES


def test_report_follows_the_registry(reference_config):
    # every check result carries the name its registry entry gives it,
    # in registry order, on passing and failing reports alike
    passing = verify_all(reference_config)
    failing = verify_all(mutate_configuration(reference_config, "j", "J", "x", 1))
    assert failing.failed
    for report in (passing, failing):
        assert tuple(r.name for r in report.results) == check_names()


def test_reference_report(reference_config):
    report = verify_all(reference_config)
    assert tuple(r.name for r in report.results) == EXPECTED_NAMES
    by_name = {r.name: r for r in report.results}
    assert report.summary == {"pass": 27, "fail": 0, "degenerate-pass": 1, "total": 28}
    degenerate = [r for r in report.results if r.status == DEGENERATE]
    assert [r.name for r in degenerate] == ["pentagon-perspectives"]
    assert "Z coincides with C" in degenerate[0].notes
    # the Bb31 orthocentre line collapses to two points at this seed: still a pass
    assert by_name["steiner-line:Bb31"].status == PASS
    assert "2 distinct" in by_name["steiner-line:Bb31"].notes
    assert "false" in by_name["three-circle-collinearity"].notes


def test_report_is_deterministic(reference_config):
    r1 = dumps(report_to_document(verify_all(reference_config)))
    r2 = dumps(report_to_document(verify_all(reference_config)))
    assert r1 == r2


def test_core_similarity_witnesses(reference_config):
    result = run_check("core-similarity", reference_config)
    assert result.status == PASS
    assert ("alpha", point(-1, -2)) in result.witnesses


def test_perspective_row_witness_carries_the_axis(reference_config):
    result = run_check("perspective:K", reference_config)
    assert result.status == PASS
    assert ("perspectrix", Line(1, -3, 11)) in result.witnesses


def test_check_result_is_a_value_that_leaves_out_its_claims(reference_config):
    result = run_check("perspective:K", reference_config)
    bare = verifier.CheckResult(result.name, result.status, result.witnesses, result.notes)
    assert result.claims and bare.claims == ()
    assert bare == result and repr(bare) == repr(result)
    assert repr(bare).startswith("CheckResult(name='perspective:K', status='pass', witnesses=[")
    # it defines __eq__ and no __hash__: its witnesses are a list
    assert verifier.CheckResult.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type"):
        hash(result)
    with pytest.raises(AttributeError):
        result.status = FAIL
    with pytest.raises(AttributeError):
        del result.claims


def test_perturbed_point_fails_with_nonzero_witness(reference_config):
    # the falsifiability probe from the interface contract: move one point to the origin
    bad = mutate_configuration(reference_config, "point", "1", "x", F(-17, 5))
    bad = mutate_configuration(bad, "point", "1", "y", F(-24, 5))
    result = run_check("perspective:K", bad)
    assert result.status == FAIL
    assert result.witnesses
    assert all(isinstance(value, F) and value != 0 for _, value in result.witnesses)


def test_five_circles_detects_center_tampering(reference_config):
    bad = mutate_configuration(reference_config, "center", "U", "x", 1)
    result = run_check("five-circles", bad)
    assert result.status == FAIL


def test_hagge_check_reports_radii(reference_config, reference_derived):
    result = run_check("hagge-suite", reference_config, reference_derived)
    assert result.status == PASS
    radii = [v for k, v in result.witnesses if k.startswith("h-circumcircle")]
    assert radii == [F(5, 2)] * 5


def test_a_decided_h_quadrangle_takes_its_pair_verdicts_from_the_quadrangle_map(
        reference_config, reference_derived):
    # every circle of the reference configuration is decided by the identity,
    # so a pair verdict of ABCK's map, marked failing, fails the h-map's
    # claim on that pair, with the h-map's image as its witness: h(C) itself
    maps = derive_quadrangle_maps(reference_config)
    sigma, _ = maps["ABCK"]
    derived = dataclasses.replace(reference_derived,
                                  quadrangle_maps={**maps, "ABCK": (sigma, (False, True))})
    result = run_check("hagge-suite", reference_config, derived)
    assert result.status == FAIL
    assert result.witnesses == [("ABCK~h-quadrangle: pair 3 transported",
                                 reference_derived.hagge["C"])]


def test_steiner_line_all_quadrangles(reference_config, reference_derived):
    for clbl in CIRCLE_LABELS:
        assert run_check(f"steiner-line:{clbl}", reference_config, reference_derived).status == PASS


def test_orthocentre_quadrangle_identity_probe(reference_config, reference_derived):
    # feeding the quadrangle itself instead of its orthocentres gives the
    # identity map: multiplier 1, not the required half turn
    import dataclasses
    from wooddesargues.configuration import CIRCLE_POINTS

    fake_h = dict(reference_derived.orthocentres)
    for v in CIRCLE_POINTS["ABCK"]:
        fake_h[("ABCK", v)] = reference_config.points[v]
    derived = dataclasses.replace(reference_derived, orthocentres=fake_h)
    result = run_check("orthocentre-quadrangle:ABCK", reference_config, derived)
    assert result.status == FAIL
    assert any("multiplier is -1" in label for label, _ in result.witnesses)


def test_missing_pentagon_circle_is_claimed_once(reference_config):
    # U moved onto segment VJ: U, V and J span no pentagon circle
    import dataclasses
    from wooddesargues.kernel import midpoint

    cfg = reference_config
    centers = {**cfg.centers, "U": midpoint(cfg.centers["V"], cfg.j)}
    report = verify_all(dataclasses.replace(cfg, centers=centers))
    result = next(r for r in report.results if r.name == "pentagon-perspectives")
    assert result.status == FAIL
    assert [label for label, _ in result.witnesses] == ["pentagon circle exists"]


def _centre_l_on_a(cfg):
    return dataclasses.replace(cfg, centers={**cfg.centers, "L": cfg.points["A"]})


def _aa23_copies_abck(cfg):
    return dataclasses.replace(cfg, circles={**cfg.circles, "Aa23": cfg.circles["ABCK"]})


def _aa23_tangent_to_abck_at_j(cfg):
    # a circle through J centred on segment UJ touches ABCK there
    centre = midpoint(cfg.centers["U"], cfg.j)
    tangent = Circle(centre, distance_squared(centre, cfg.j))
    return dataclasses.replace(cfg, circles={**cfg.circles, "Aa23": tangent})


def _abck_is_the_pentagon_circle(cfg):
    # J is on both, and they are one circle: no second meet
    pentagon = derive_figures(cfg).pentagon.circle
    return dataclasses.replace(cfg, circles={**cfg.circles, "ABCK": pentagon})


def _b_and_bb31_on_a_and_aa23(cfg):
    # B on A and circle Bb31 on Aa23: one tangent serves A and B
    return dataclasses.replace(cfg, points={**cfg.points, "B": cfg.points["A"]},
                               circles={**cfg.circles, "Bb31": cfg.circles["Aa23"]})


def _j_on_an_orthocentre_of_k(cfg):
    # J moved onto K's orthocentre in its first circle: h(K) and h(A) undefined
    orthocentre = derive_figures(cfg).orthocentres[POINT_CIRCLES["K"][0], "K"]
    return dataclasses.replace(cfg, j=orthocentre)


def _b_and_c_on_line_bc(cfg):
    # b and c moved apart along line BC: row K's sides BC and bc, through 1, are one line
    b, c = cfg.points["B"], cfg.points["C"]
    return dataclasses.replace(cfg, points={**cfg.points, "b": b + (c - b).scale(2),
                                            "c": b + (c - b).scale(3)})


@pytest.mark.parametrize("tamper, name, status, note", [
    (_b_and_c_on_line_bc, "perspective:K", FAIL, "sides BC and bc coincide"),
    (_centre_l_on_a, "pentagon-perspectives", FAIL,
     "vertex joins to centres do not span two lines"),
    (_aa23_copies_abck, "three-circle-collinearity", DEGENERATE,
     "circles Aa23 and ABCK coincide"),
    (_aa23_tangent_to_abck_at_j, "three-circle-collinearity", DEGENERATE,
     "circles Aa23 and ABCK tangent at J"),
    (_abck_is_the_pentagon_circle, "tangent-concurrency", DEGENERATE,
     "Z: no second meet of pentagon circle and ABCK "
     "(no second meet with ABCK: second intersection of identical circles)"),
    (_b_and_bb31_on_a_and_aa23, "tangent-concurrency", FAIL,
     "tangents at A and B coincide"),
    (_j_on_an_orthocentre_of_k, "hagge-suite", FAIL,
     "h(K) undefined: coincidence among J, H, F for row K"),
    (_j_on_an_orthocentre_of_k, "hagge-suite", FAIL,
     "h(A) undefined: J, H, F collinear for row A"),
])
def test_tampered_documents_reach_their_degenerate_notes(reference_config, tamper,
                                                         name, status, note):
    result = run_check(name, tamper(reference_config))
    assert result.status == status
    assert note in result.notes.split("; ")


def _b_on_a(cfg):
    return dataclasses.replace(cfg, points={**cfg.points, "b": cfg.points["a"]})


_SHIFT = point(1, 2)


def _abc_shifted_from_abc(cfg):
    # a, b, c are A, B, C shifted by one vector: ABC -> abc is a translation
    shifted = {v.lower(): cfg.points[v] + _SHIFT for v in "ABC"}
    return dataclasses.replace(cfg, points={**cfg.points, **shifted})


def _lm_shifted_from_ab(cfg):
    # L and M are A and B shifted by one vector: ABC -> LMN is a translation
    shifted = {"L": cfg.points["A"] + _SHIFT, "M": cfg.points["B"] + _SHIFT}
    return dataclasses.replace(cfg, centers={**cfg.centers, **shifted})


@pytest.mark.parametrize("tamper, name, label", [
    (_b_on_a, "core-similarity", "ABC~abc: nonzero multiplier"),
    (_abc_shifted_from_abc, "core-similarity", "similarity has a fixed point"),
    (_lm_shifted_from_ab, "pentagon-perspectives", "centre similarity has a fixed point"),
])
def test_tampered_documents_fail_their_similarity_claims(reference_config, tamper, name, label):
    result = run_check(name, tamper(reference_config))
    assert result.status == FAIL
    assert label in [witness_label for witness_label, _ in result.witnesses]


def test_pentagon_quadrangle_scrambled_order_has_no_similarity(reference_config):
    # the vertex order matters: swapping the last two targets kills the map
    from wooddesargues.kernel import similarity_between
    cfg = reference_config
    src = [cfg.points[v] for v in ("B", "b", "3", "1")]
    assert similarity_between(src, [cfg.centers[v] for v in "UVLN"]) is not None
    assert similarity_between(src, [cfg.centers[v] for v in "UVNL"]) is None


# --- lemma checks --------------------------------------------------------------


def test_perpendicular_concurrency_worked_instance():
    result = check_perpendicular_concurrency(point(1, 0), point(0, 1), point(0, -1),
                          point(F(-3, 5), F(4, 5)))
    assert result.status == PASS
    assert ("antipode", point(F(3, 5), F(-4, 5))) in result.witnesses


def test_perpendicular_concurrency_degenerate_inputs():
    p, q, r = point(1, 0), point(0, 1), point(0, -1)
    assert check_perpendicular_concurrency(p, q, r, p).status == DEGENERATE
    off = check_perpendicular_concurrency(p, q, r, point(2, 2))
    assert off.status == DEGENERATE
    assert "off the circumcircle" in off.notes
    assert check_perpendicular_concurrency(point(0, 0), point(1, 1), point(2, 2), p).status == DEGENERATE


def test_perpendicular_converse_probe_is_nonconcurrent():
    p, q, r = point(1, 0), point(0, 1), point(0, -1)
    s = point(F(-6, 5), F(8, 5))  # scaled off the circumcircle
    perps = [perpendicular_at(base, line_through(s, base)) for base in (p, q, r)]
    crossing = meet(perps[0], perps[1])
    assert perps[2].evaluate(crossing) != 0


def test_three_circle_worked_instance():
    result = check_three_circle_collinearity(point(1, 0), point(0, 1), point(F(3, 5), F(-4, 5)))
    assert result.status == PASS
    witness = dict(result.witnesses)
    assert witness["A"] == point(F(-1, 5), F(-2, 5))
    assert witness["B"] == point(F(-7, 25), F(-24, 25))
    assert witness["D"] == point(-1, 0)
    assert "printed triple (L, B, D) collinear: false" in result.notes


def test_three_circle_precondition_and_coaxial_degeneracy():
    with pytest.raises(DegenerateInputError):
        check_three_circle_collinearity(point(0, 0), point(1, 1), point(2, 2))
    # O and L antipodal on the circumcircle: the three radical axes coincide
    result = check_three_circle_collinearity(point(1, 0), point(0, 1), point(0, -1))
    assert result.status == DEGENERATE
    assert "coaxial" in result.notes


def test_three_circle_fuzzed_instances_use_corrected_triples():
    from wooddesargues.kernel import (
        Circle,
        second_intersection_of_circles,
    )
    j, o, l = point(1, 0), point(F(-3, 5), F(4, 5)), point(F(5, 13), F(12, 13))
    result = check_three_circle_collinearity(j, o, l)
    assert result.status == PASS
    # independent recomputation of the corrected triples
    s2 = Circle(l, (j - l).norm_squared())
    s3 = Circle(o, (j - o).norm_squared())
    a = second_intersection_of_circles(s2, s3, j)
    assert is_collinear(o, a, dict(result.witnesses)["B"])


def test_float_cross_residuals_are_tiny(reference_config):
    report = verify_all(reference_config)
    assert float_cross_residuals(report) < 1e-9


def test_float_cross_oracle_runs_only_when_read(reference_config, monkeypatch):
    original = verifier.float_point
    calls = []

    def counting_float_point(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(verifier, "float_point", counting_float_point)
    report = verify_all(reference_config)
    assert calls == []
    assert float_cross_residuals(report) == float.fromhex("0x1.999999999999ap-52")
    assert calls


def test_failing_claims_carry_exact_witnesses(reference_config):
    # one witness from each primitive, decided on an integer and kept as
    # the exact value; A moved by +1 in x breaks every family that reads it
    report = verify_all(mutate_configuration(reference_config, "point", "A", "x", 1))
    witnesses = {(r.name, label): value for r in report.failed for label, value in r.witnesses}
    assert witnesses[("five-circles", "ABCK concyclic")] == F(-2, 25)
    assert witnesses[("five-circles", "A on ABCK")] == F(1)
    assert witnesses[("pentagon-perspectives", "A, L, Z collinear")] == F(2, 5)
    assert witnesses[("hagge-suite", "h(B) on perspectrix c2a")] == F(-2, 3)
    assert witnesses[("core-similarity", "fixed point is J")] == point(F(261, 197), F(108, 197))
    assert witnesses[("core-similarity", "ABC~abc: pair 3 transported")] == point(F(123, 29), F(84, 29))
    assert witnesses[("core-similarity", "ratio^2 equals circle r2 ratio")] == F(90, 29)
    # a passing claim computes no witness
    passing = verify_all(reference_config)
    assert all(c.witness is None for r in passing.results for c in r.claims if c.holds)


def _reference_and_mutation_reports(reference_config):
    return [verify_all(reference_config)] + [
        verify_all(mutate_configuration(reference_config, *mutation))
        for mutation in MUTATIONS.values()]


def test_verify_all_builds_no_claim_objects(reference_config, monkeypatch):
    # claims are recorded as tuples; reading result.claims builds the objects
    original = verifier.Claim.__init__
    built = []

    def counting_init(self, *args):
        built.append(args[0])
        original(self, *args)

    monkeypatch.setattr(verifier.Claim, "__init__", counting_init)
    campaign = generate_configurations(FuzzPolicy(1000, 42, 12))
    configs = [reference_config] + [config for _, config, _, _ in itertools.islice(campaign, 10)]
    reports = [verify_all(config) for config in configs]
    assert built == []
    reference = reports[0].results
    assert sum(len(r.claims) for r in reference) == sum(len(r.records) for r in reference) == 266
    assert len(built) == 266


def test_failing_witnesses_are_the_failing_claims(reference_config):
    reports = _reference_and_mutation_reports(reference_config)
    failed = [result for report in reports for result in report.failed]
    assert len(failed) >= len(MUTATIONS)
    for result in failed:
        assert result.witnesses == [(c.label, c.witness) for c in result.claims if not c.holds]


def _record_each_path(cs, config):
    """One passing and one failing claim through each recording path of
    ``ClaimSet``, keyed by the path, on the reference configuration."""
    pts, circle, spiral = config.points, config.circles["ABCK"], config.build_maps[0]
    A, B, C, K, a, b, c = (pts[x] for x in "ABCKabc")
    ab, ac = line_through(A, B), line_through(A, C)
    return {
        "fail": lambda: cs.fail("fail", "a fixed phrase"),
        "points_equal": lambda: (cs.points_equal("equal A A", A, A),
                                 cs.points_equal("equal A B", A, B)),
        "collinear": lambda: (cs.collinear("A K mid", A, K, midpoint(A, K)),
                              cs.collinear("A B C", A, B, C)),
        "on_line": lambda: (cs.on_line("A on AB", ab, A), cs.on_line("C on AB", ab, C)),
        "on_circle": lambda: (cs.on_circle("A on ABCK", circle, A),
                              cs.on_circle("1 on ABCK", circle, pts["1"])),
        "scalars_equal": lambda: (cs.scalars_equal("one", F(1), F(1)),
                                  cs.scalars_equal("two", F(2), F(1))),
        "concyclic": lambda: (cs.concyclic("ABCK", A, B, C, K),
                              cs.concyclic("ABC1", A, B, C, pts["1"])),
        "maps_to": lambda: (cs.maps_to("A to a", spiral, A, a),
                            cs.maps_to("A to b", spiral, A, b)),
        "incidences": lambda: cs.incidences(
            ("A B mid", "B on AB", "C on AB?", "A on AB"),
            (verifier._collinear_residual, verifier._line_residual,
             verifier._line_residual, verifier._line_residual),
            ((A, B, midpoint(A, B)), (ab, B), (ab, C), (ab, A)), (True, True, False, True)),
        "lines_meet_at": lambda: (cs.lines_meet_at("AB AC at A", ab, ac, A, True, "same"),
                                  cs.lines_meet_at("AB AC at B", ab, ac, B, False, "same"),
                                  cs.lines_meet_at("AB AB", ab, ab, A, True, "AB twice"),
                                  cs.lines_meet_at("AB parallel", ab, parallel_through(C, ab),
                                                   A, False, "same")),
        "similarity": lambda: (cs.similarity("ABC~abc", (A, B, C), (a, b, c)),
                               cs.similarity("ABK~abc", (A, B, K), (a, b, c)),
                               cs.similarity("AAB~abc", (A, A, B), (a, b, c)),
                               cs.similarity("ABC~aac", (A, B, C), (a, a, c))),
        "fixed_at": lambda: (cs.fixed_at("spiral at J", spiral, config.j),
                             cs.fixed_at("spiral at J, decided", spiral, None, True),
                             cs.fixed_at("spiral at A", spiral, A)),
    }


RECORDING_PATHS = ("fail", "points_equal", "collinear", "on_line", "on_circle", "scalars_equal",
                   "concyclic", "maps_to", "incidences", "lines_meet_at", "similarity",
                   "fixed_at")


def test_every_recording_path_is_pinned():
    # each public ClaimSet method but the three note helpers and result
    # records claims, so a new one must join the paths pinned below
    public = {name for name, value in vars(verifier.ClaimSet).items()
              if callable(value) and not name.startswith("_")}
    assert public - {"degenerate", "info", "witness", "result"} == set(RECORDING_PATHS)


@pytest.mark.parametrize("paths", [*([path] for path in RECORDING_PATHS),
                                   RECORDING_PATHS, RECORDING_PATHS[::-1]],
                         ids=[*RECORDING_PATHS, "all", "all-reversed"])
def test_a_failing_result_names_its_failing_records_in_order(reference_config, paths):
    # passing and failing claims through each recording path, with a
    # degenerate note and an extra witness around them: the result fails, and
    # its witnesses are the failing records' (label, witness) pairs in record
    # order, with no extra witness among them
    cs = verifier.ClaimSet()
    record = _record_each_path(cs, reference_config)
    cs.witness("extra", point(7, 7))
    cs.scalars_equal("before", F(3), F(3))
    for path in paths:
        cs.degenerate(f"{path}: noted")
        record[path]()
    cs.witness("extra after", "a phrase")
    result = cs.result("pinned")
    failing = [(label, witness) for label, holds, witness, *_ in result.records if not holds]
    assert result.status == FAIL and failing
    assert result.witnesses == failing
    assert not {"extra", "extra after"} & {label for label, _ in result.witnesses}
    assert result.records == tuple(cs.claims)


def test_each_claim_reads_its_record(reference_config):
    for report in _reference_and_mutation_reports(reference_config):
        worst = 0.0
        for result in report.results:
            for claim, record in zip(result.claims, result.records, strict=True):
                label, holds, witness, residual_fn, args = record
                assert (claim.label, claim.holds, claim.witness) == (label, holds, witness)
                assert claim.residual == residual_fn(*args)
                if result.status != FAIL:
                    worst = max(worst, abs(claim.residual))
        assert float_cross_residuals(report) == worst


def test_only_the_report_writer_formats_witnesses(reference_config, monkeypatch):
    original = serialize.format_scalar
    calls = []

    def counting_format_scalar(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(serialize, "format_scalar", counting_format_scalar)
    monkeypatch.setattr(verifier, "format_scalar", counting_format_scalar)
    passing = verify_all(reference_config)
    failing = verify_all(mutate_configuration(reference_config, "point", "A", "x", 1))
    assert failing.failed
    assert calls == []
    for report in (passing, failing):
        calls.clear()
        report_to_document(report)
        assert calls


def test_report_writer_formats_each_witness_kind(reference_config):
    def witness_text(config):
        doc = report_to_document(verify_all(config))
        return {(r["name"], label): text for r in doc["results"] for label, text in r["witnesses"]}

    passing = witness_text(reference_config)
    moved_a = witness_text(mutate_configuration(reference_config, "point", "A", "x", 1))
    # K moved by -1 in x leaves row B without its partner orthocentre: a failure
    moved_k = witness_text(mutate_configuration(reference_config, "point", "K", "x", -1))
    assert moved_a[("five-circles", "ABCK concyclic")] == "-2/25"
    assert moved_a[("five-circles", "A on ABCK")] == "1/1"
    assert moved_a[("core-similarity", "fixed point is J")] == "(261/197, 108/197)"
    assert passing[("perspective:K", "perspectrix")] == "[1x + -3y + 11 = 0]"
    assert moved_k[("hagge-suite", "h(B) derivable")] == "missing orthocentre for row B"


# --- the ten points are equivalent: relabelling the circles ---------------------

_POINT_OF_PAIR = {frozenset(pair): p for p, pair in POINT_CIRCLES.items()}


def _relabelled(config, sigma: dict[str, str]):
    """``config`` with circle c renamed sigma[c], its centre with it, and point
    {c, d} renamed {sigma[c], sigma[d]}; J is kept and the seed dropped.  Also
    the new label of each point."""
    image = {p: _POINT_OF_PAIR[frozenset(sigma[c] for c in pair)]
             for p, pair in POINT_CIRCLES.items()}
    point_from = {q: p for p, q in image.items()}
    circle_from = {d: c for c, d in sigma.items()}
    moved = WoodDesarguesConfiguration(
        points={q: config.points[point_from[q]] for q in POINT_LABELS}, j=config.j,
        circles={d: config.circles[circle_from[d]] for d in CIRCLE_LABELS},
        centers={CIRCLE_CENTER[d]: config.centers[CIRCLE_CENTER[circle_from[d]]]
                 for d in CIRCLE_LABELS})
    return moved, image


def _counts(result) -> tuple:
    """Status, failing claims, claim records and notes of a check result."""
    return (result.status, sum(not holds for _, holds, *_ in result.records),
            len(result.records), len(result.notes.split("; ")) if result.notes else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 63), st.sampled_from([12, 10 ** 6]),
       st.permutations(CIRCLE_LABELS), st.none() | _tampering)
def test_relabelling_the_circles_permutes_the_checks(rng_seed, magnitude, order, tampering):
    # S5 acts on the five circle labels and through them on the ten points:
    # each perspective row, orthocentre quadrangle and Steiner line goes to
    # its image with the same counts; the checks of the whole configuration
    # keep their status (which pairs pin their maps depends on the labels)
    _, config, _, _ = next(generate_configurations(FuzzPolicy(1, rng_seed, magnitude)))
    if tampering is not None:
        config = _tampered(config, *tampering)
    sigma = dict(zip(CIRCLE_LABELS, order))
    moved, image = _relabelled(config, sigma)
    before = {r.name: r for r in verify_all(config).results}
    after = {r.name: r for r in verify_all(moved).results}
    for p in POINT_LABELS:
        assert _counts(after[f"perspective:{image[p]}"]) == _counts(before[f"perspective:{p}"])
    for c in CIRCLE_LABELS:
        for family in ("orthocentre-quadrangle", "steiner-line"):
            assert _counts(after[f"{family}:{sigma[c]}"]) == _counts(before[f"{family}:{c}"])
    for name in ("five-circles", "hagge-suite", "pentagon-quadrangles"):
        assert after[name].status == before[name].status
