"""Golden bytes: SHA-256 of the byte-stable outputs the engine emits.

Documents, reports and SVG are pure functions of their input, so a refactor
that keeps the proofs intact keeps these digests too.  A digest that moves is
either a bug or a deliberate format change; the latter must say which bytes
moved and why, and pin the new digest here.

Pinned outputs: the reference configuration document, its report and its SVG;
the report of every mutation probe of the acceptance suite (each one carries
failing witnesses); the report with one circle's stored centre moved, since
the mutation probes move only points, centres and J; the SVG of three moved
configurations, whose derived figures leave the known-centre paths; and the
full report of the first seed of the 1000/42/12 campaign to reach each
degenerate-note branch.  The campaign seeds are given
as seed text so this file does not run the campaign; the campaign document
digest itself is pinned in ``test_criterion_3_fuzz_campaign``.

Reports carry only failing witnesses, so the claim ledger pins every claim:
its label, its verdict, its residual function and that function's exact
arguments, with each check's notes.  The undecided arm, every check rerun
with each shortcut withheld, must give the same claims.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wooddesargues import (
    FuzzPolicy,
    build_configuration,
    configuration,
    verifier,
    verify_all,
)
from wooddesargues.fuzz import generate_configurations
from wooddesargues.configuration import (
    CENTER_LABELS, CIRCLE_LABELS, PERSPECTIVE_TABLE, POINT_LABELS, derive_figures,
    derive_perspectrices, derive_quadrangle_maps,
)
from wooddesargues.kernel import (
    Circle,
    Line,
    Point,
    Similarity,
    distance_squared,
    point,
    radical_axis,
    second_intersection_with_line,
)
from wooddesargues.render import render_svg
from wooddesargues.serialize import (
    configuration_to_document,
    dumps,
    format_scalar,
    format_witness,
    parse_seed_text,
    report_to_document,
)

from conftest import mutate_configuration, run_check
from test_acceptance import MUTATIONS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_text(config) -> str:
    return dumps(report_to_document(verify_all(config)))


REFERENCE_DOCUMENT = "806df40038e88624cc593be2738d8f81212ede9585f8d565b222f7455cc54545"
REFERENCE_REPORT = "d31cfd0d7c9dd10e31bc99f2bd8d002202ad6825f332bebcf700287b9e307529"
REFERENCE_SVG = "44ba7a5fda53b33f06fa9beaaf854fdfff3e665bee1d34a48080fc1be5ae9a8e"

# check name -> report digest of the reference configuration under that
# check's mutation probe (probes shared by two checks share a digest)
MUTATION_REPORTS = {
    "perspective:K":
        "569eeee4aebb4d5e9d8a63ba099cb1fe91d90f9d3f8076bf40eacd71633231af",
    "perspective:A":
        "eda96800cdaf19957d95c1d8f3b9e0ddd473975d424344355286df9c6433ab88",
    "perspective:B":
        "b161af7db22066e2b8da6a5b65049bb4e6a8e39ec559317f2709682402380bc8",
    "perspective:C":
        "e3a84af58adfdba98e91fc2f44a946f791dd594c2fb3681b24b816d6524df19c",
    "perspective:1":
        "fe1a6423d04c6f322db582c48e6f080a9d59a8cef020ec660c193ed8d22fca50",
    "perspective:2":
        "e60b39e60c70a3c488b47349e9aa7c62fcbb16333edd9200103a759dfc96a23b",
    "perspective:3":
        "8c2fac0b18868eb753673a576cbeff056192206a54de016a67208ee8b57b69a6",
    "perspective:a":
        "8a803794d5334775c60bae2b2ad3488d83e243a32b3541e6de431c98e108fe0f",
    "perspective:b":
        "2fb5d3958bbcc521d7ecc98d4edb5ee73a7cde567c94c1e0f9b9d1bb4f861dea",
    "perspective:c":
        "65f1d157cb45ff55547d281ff572e2aa48e652d368ef1483597e2c4919cc7ab9",
    "five-circles":
        "650a6af92ef5bb9f3750ad1115d7bb80647ea82d293f6abde7d377cc8cacbf4f",
    "core-similarity":
        "53ac2ad416a04de2b9d77138ec035b1667c6b47c484f179e6a11cd9cb87af33f",
    "orthocentre-quadrangle:ABCK":
        "baabccc0dc9993deb1970e07bf99ae988e709baaf38dd2e991ef9f73f2d1fe4a",
    "orthocentre-quadrangle:abcK":
        "cfff8ff2ca52ddaeb9cb39841d4036665c99468996374f571986bc7898f4a3c6",
    "orthocentre-quadrangle:Aa23":
        "641b0a845550aca8ed959f872376e0537c773a80b808462e7572eb23af0a97a8",
    "orthocentre-quadrangle:Bb31":
        "ed9292d1d3589b94aaaed8c47b7dda1d73519f9fb30e7d73dea939b9b6cc95e9",
    "orthocentre-quadrangle:Cc12":
        "cdb8e89403bcfd75adf5a4e2f3ebaafa27492f4fee794b44a28c63ea2ad0cfa7",
    "steiner-line:ABCK":
        "871dcb4a04838ab0239f7975433bdb9e9e1f6a0789697aaf0d7e130be46644c9",
    "steiner-line:abcK":
        "0bb46036361aa24b7413e9c6d6ff077b3b130466c042a55da9fb8543f17ba9a1",
    "steiner-line:Aa23":
        "5b0bce4431bcb622645eeb9fa2253a42ce28f914d4603f59c55c40cd8eba3e4a",
    "steiner-line:Bb31":
        "10c9970423cbbb39756f95f9b6dc0aac122bcd20693c0b35ac088a07db55e00b",
    "steiner-line:Cc12":
        "cfff8ff2ca52ddaeb9cb39841d4036665c99468996374f571986bc7898f4a3c6",
    "pentagon-perspectives":
        "10c9970423cbbb39756f95f9b6dc0aac122bcd20693c0b35ac088a07db55e00b",
    "pentagon-quadrangles":
        "65f1d157cb45ff55547d281ff572e2aa48e652d368ef1483597e2c4919cc7ab9",
    "tangent-concurrency":
        "baabccc0dc9993deb1970e07bf99ae988e709baaf38dd2e991ef9f73f2d1fe4a",
    "hagge-suite":
        "1aa1e5a2b7d8a19f0704e0f3e9181365f5c4c33f3dae459c98c7c6c433c424a0",
    "perpendicular-concurrency":
        "5b0bce4431bcb622645eeb9fa2253a42ce28f914d4603f59c55c40cd8eba3e4a",
    "three-circle-collinearity":
        "277f4f157c8d08af51f52dd90482d6f2f41933425d840d1ec6ebfb9578b1c0d6",
}

# (circle, move) -> report digest of the reference configuration with that
# circle's stored centre moved by +1 in x, or onto J, and its radius kept.
# The reference J is (1, 0) and the centre of ABCK is the origin, so both
# moves of ABCK build the same configuration and share a digest.
CIRCLE_CENTRE_REPORTS = {
    ("ABCK", "x+1"): "21f5edf79fade8f5c2fc0aa5eb06f48304c69f1b41a20de85b621860b1682e5f",
    ("ABCK", "J"): "21f5edf79fade8f5c2fc0aa5eb06f48304c69f1b41a20de85b621860b1682e5f",
    ("abcK", "x+1"): "fa20ae139c29ef4ee803c6a49508043fd32ebcd22dceed5ecd763925df2241d9",
    ("abcK", "J"): "0992a488396d0a293f9e041e7ecc37b006bc352bc6fdea348a7cf2c00f004b60",
    ("Aa23", "x+1"): "62236f5b9deb62f728d4b2ccbfbe2f8c5ccd953f09a77aa9d07a264ff242903d",
    ("Aa23", "J"): "c8647c3cadb3635d9af7d6bbf6faa369f0c4f9e04b81125a622fd58bc4385da8",
    ("Bb31", "x+1"): "af01ad32169ca06b8b6bf5ba0e68486222ff89de3d563db13b1cfbd5d0c63480",
    ("Bb31", "J"): "b6d3982a6391ce2a8627b077efddda62ea41a0cb153f5b57f25c9f8d99a07e5b",
    ("Cc12", "x+1"): "c29b4c96cc9a7a006a7f32b3dc1bf637d6e7c3ae794073b1b8738593f3f1adab",
    ("Cc12", "J"): "0252435f298dfdf5b2e7cb9a35a2b02f7471633b82a2e59cff4ea03237cc7166",
}

# move -> SVG digest of the reference configuration with one value moved by +1
# in x: centre V (the pentagon circle, so every centre-triangle orthocentre and
# predicted Hagge centre), point A (the orthocentres of the triangles through
# A, and the Hagge centres of their rows), or the stored centre of circle ABCK
# (its four orthocentres).  Each moved figure is then built without its known
# centre.
MOVED_SVGS = {
    "centre V": "d137c5bfd04af6004f9249f0cf68de8e6517117a23d35e88c27a990f4b18e6da",
    "point A": "d930b178742a9a56417929355a89cf1f4bfb7d9c2ebed7314d2123d1e45283c4",
    "circle ABCK centre": "8d571fae4cbf290d82821c23e9fa8a2f69a3663b8ffed1aec148bfb77bd67b49",
}

# campaign index -> (seed text, report digest); each index is the first seed
# of the 1000/42/12 campaign whose report reaches a new degenerate note:
#   1    Z coincides with N (line CNZ)
#   15   pentagon circle tangent to ABCK at J
#   188  pentagon circle tangent to Aa23 at J
#   243  Z coincides with L; three-circle triple (L, A, Z) coincident
#   348  Z and W coincide with A; three-circle triple (U, A, W) coincident
#   636  W coincides with U
#   909  Z coincides with B (line BMZ)
CAMPAIGN_SEED_REPORTS = {
    1: ("tJ=4/3,tK=1/5,tA=4/1,tB=-5/8,tC=0/1,s=-1/1",
        "d47b2f882a912eff9af765473bdbe9c7a7096beca5adddbe4cb565cb958b79c3"),
    15: ("tJ=-9/5,tK=8/5,tA=4/5,tB=-11/12,tC=-5/1,s=0/1",
         "ab147469d56939e2d7a60f9416f552f7292d4eb5021fe126b740057ba7858622"),
    188: ("tJ=1/3,tK=-3/2,tA=-3/1,tB=1/4,tC=-5/12,s=8/5",
          "9282ff3544c2904e65463b47ad16438591996f64b53d8b58f81fdb7a8055f7d3"),
    243: ("tJ=-1/3,tK=11/12,tA=1/3,tB=1/1,tC=9/8,s=3/2",
          "1b4045f0b0d2154d6ff988b9ce0cb7c4c6dd1e566622c54d3ebfc01d32a98cd1"),
    348: ("tJ=-1/1,tK=7/10,tA=3/1,tB=5/9,tC=1/4,s=1/1",
          "6906e9020e55fdd8896a21c88977c11c3a51a609398d86bc5b1b8b0fed856f64"),
    636: ("tJ=1/3,tK=-8/9,tA=0/1,tB=-1/12,tC=-5/2,s=-2/3",
          "bfc07a9b01b1a598754f641808d90dab6f2396d8149c4e9035585e60d79f9a7b"),
    909: ("tJ=2/1,tK=-3/11,tA=-2/1,tB=-2/9,tC=-3/10,s=2/1",
          "4fa1e7d4947fd4f921e8ad3459980adf4317e1cc91bdd1a4191480e41fc3d174"),
}


def test_reference_outputs(reference_config):
    assert _sha256(dumps(configuration_to_document(reference_config))) == REFERENCE_DOCUMENT
    assert _sha256(_report_text(reference_config)) == REFERENCE_REPORT
    assert _sha256(render_svg(reference_config)) == REFERENCE_SVG


def test_every_mutation_probe_is_pinned():
    assert set(MUTATION_REPORTS) == set(MUTATIONS)


@pytest.mark.parametrize("name", sorted(MUTATION_REPORTS))
def test_mutation_report(reference_config, name):
    mutated = mutate_configuration(reference_config, *MUTATIONS[name])
    assert _sha256(_report_text(mutated)) == MUTATION_REPORTS[name]


@pytest.mark.parametrize("label, move", sorted(CIRCLE_CENTRE_REPORTS))
def test_circle_centre_report(reference_config, label, move):
    circle = reference_config.circles[label]
    centre = reference_config.j if move == "J" else point(circle.center.x + 1, circle.center.y)
    circles = {**reference_config.circles, label: Circle(centre, circle.radius_squared)}
    moved = dataclasses.replace(reference_config, circles=circles)
    assert _sha256(_report_text(moved)) == CIRCLE_CENTRE_REPORTS[label, move]


def _moved(config, move: str):
    kind, label = {"centre V": ("center", "V"), "point A": ("point", "A"),
                   "circle ABCK centre": ("circle", "ABCK")}[move]
    return mutate_configuration(config, kind, label, "x", 1)


@pytest.mark.parametrize("move", sorted(MOVED_SVGS))
def test_moved_svg(reference_config, move):
    assert _sha256(render_svg(_moved(reference_config, move))) == MOVED_SVGS[move]


@pytest.mark.parametrize("index", sorted(CAMPAIGN_SEED_REPORTS))
def test_campaign_seed_report(index):
    seed_text, digest = CAMPAIGN_SEED_REPORTS[index]
    config = build_configuration(parse_seed_text(seed_text))
    assert _sha256(_report_text(config)) == digest


# --- claim ledger --------------------------------------------------------------

def _argument_text(value) -> str:
    """Exact text of a residual argument; no floats, so every Python agrees."""
    if isinstance(value, (Point, Line)):
        return format_witness(value)
    if isinstance(value, Circle):
        return f"circle {format_witness(value.center)} r2 {format_scalar(value.radius_squared)}"
    if isinstance(value, Similarity):
        return f"similarity {format_witness(value.alpha)} {format_witness(value.beta)}"
    return format_scalar(value)


def _ledger_configurations(config):
    """The reference configuration, the first ten of the 1000/42/12 campaign,
    the mutation probes and configurations with coincident points."""
    yield config
    policy = FuzzPolicy(count=10, rng_seed=42, max_magnitude=12)
    for _, built, _, _ in generate_configurations(policy):
        yield built
    for name in sorted(MUTATIONS):
        yield mutate_configuration(config, *MUTATIONS[name])
    pts = config.points
    # A = B; 1 = 2; a = K; and the three points of row A's perspectrix 1, c, b
    for moved in ({"A": pts["B"]}, {"1": pts["2"]}, {"a": pts["K"]},
                  {"c": pts["1"], "b": pts["1"]}):
        yield dataclasses.replace(config, points={**pts, **moved})


# check name -> SHA-256 of its ledger over _ledger_configurations
CLAIM_LEDGER = {
    "perspective:K":
        "455b199da14d79bbb0dbe14cc43e31580c21459db4502796cee0405f9d25f943",
    "perspective:A":
        "12d2f4c9801a98eb956f5e477e318c78eb6d23700bf23137674bec29721b0cc4",
    "perspective:B":
        "a410fde297076eca557b05cc83043455edd81be312ec7cc306b6e04139b76f89",
    "perspective:C":
        "6e8de02df7ca0be90a811ca3b79247cff822ada0ed0f57622b5d7674d9fce730",
    "perspective:1":
        "516626ba079198538d5d1b25cfaa312f821c318f21cd37703da2d790492a0003",
    "perspective:2":
        "03edc71cabd3febe0b05a7c412afe1449c1028a28fd2232ae7fb46ec7b01e8fc",
    "perspective:3":
        "8ea55c3614e64356bd0edfb6f2683ab186cdf73274e52733f784ce5a3c56ef81",
    "perspective:a":
        "c606c2b36e7885b4b0fbb334630103e577db72746cfc2fca990eb5c8b87c9294",
    "perspective:b":
        "5b37c77e67e7c9de1cf167463dd674dab03e42926865a9ba900b9bdbc6b6a876",
    "perspective:c":
        "49713d2c6d8ff4b34dc7f210f68bc1338e07cac1cec0b8338621a6d1841f0861",
    "five-circles":
        "56bbe3f2c5f00621d18b899f1df5347350d54fed6fae1f3804cdc321a41d161c",
    "core-similarity":
        "a65269b2e73ebbad5c36addb314279bd90fd85e12effbeebc2db456f97211b53",
    "orthocentre-quadrangle:ABCK":
        "017f9a51e75f426cb595f2c2297a74142b58b05f29c6829f861d4ba2edb632a9",
    "orthocentre-quadrangle:abcK":
        "fea53ecf22679807f709ce4653c80ad5089c917ddd592d68ea8f364b560d5709",
    "orthocentre-quadrangle:Aa23":
        "02e65726f881c28d888c97af8b5701048413780a192449067ac586b964e62b73",
    "orthocentre-quadrangle:Bb31":
        "c3a0ffce99ce368f57bab148187ec579f1e92e869c290cae25a301d38ac09b23",
    "orthocentre-quadrangle:Cc12":
        "fffd79475ba0b25f966dcd696e1ab4be6d190f5f54c30455919cd64a38cf5d84",
    "steiner-line:ABCK":
        "71da9617d71ab9009ad5e07a231f19252152d9bc2dff7a3c7c71368d0656d19e",
    "steiner-line:abcK":
        "a3f2afe381ff031cd4366c6709e067d1a612be845b5168b58ca454c8ef04b923",
    "steiner-line:Aa23":
        "9beda708f2a14702e32dfce0c43ddc8fce9f4471b7bf7b7adfba0931a104362a",
    "steiner-line:Bb31":
        "761b40308ccd7141baa6b6365f0ddef953184241a348cf436892d604d520ac24",
    "steiner-line:Cc12":
        "315b2b0bd79956762b655b0e5489979258f2d6e9eb046cf8e08032a26cd073c1",
    "pentagon-perspectives":
        "dd8d6a8d1f6008d21b995550e1fb0b27d15477c6c3aa2f62a63ecf979dcdf18a",
    "pentagon-quadrangles":
        "72e613c4f4dbdd410fa2c1d0caf3283fca8e5ce496baa82173686f575a36a66f",
    "tangent-concurrency":
        "883c83243dc380b7188872edfa2e8926a4f2e96bbb94431a2a07dd011169c736",
    "hagge-suite":
        "d270f28934c8f57e61c20323f84e222181581da94656257215e490c69d1b2f0f",
    "perpendicular-concurrency":
        "13b2d796fe220f179235e4b9d9ec7ea623d37194866ca992e6ffba9accc006a1",
    "three-circle-collinearity":
        "955e67613c66181c84a9a7ca3ffc94ce0e5b79afce57a5878aa2f113806381c6",
}


def test_claim_ledger(reference_config):
    ledgers: dict[str, list[str]] = {}
    for config in _ledger_configurations(reference_config):
        for result in verify_all(config).results:
            lines = ledgers.setdefault(result.name, [])
            for claim in result.claims:
                args = " | ".join(map(_argument_text, claim._args))
                lines.append(f"{claim.label}\t{claim.holds}\t{claim._residual.__name__}\t{args}")
            lines.append(f"notes\t{result.notes}")
    digests = {name: _sha256("\n".join(lines)) for name, lines in ledgers.items()}
    assert digests == CLAIM_LEDGER


# --- the undecided arm ----------------------------------------------------------

class _Undecided(verifier.ClaimSet):
    """Decides every claim itself: drops each passed-in verdict and map."""

    def collinear(self, label, a, b, c, holds=None):
        return super().collinear(label, a, b, c)

    def on_line(self, label, line, p, holds=None):
        return super().on_line(label, line, p)

    def on_circle(self, label, circle, p, holds=None):
        return super().on_circle(label, circle, p)

    def concyclic(self, label, a, b, c, d, holds=None):
        return super().concyclic(label, a, b, c, d)

    def maps_to(self, label, sim, src, dst, holds=None):
        return super().maps_to(label, sim, src, dst)

    def similarity(self, label, source, target, pinned=None):
        return super().similarity(label, source, target)

    def fixed_at(self, label, sim, expected, holds=None):
        return super().fixed_at(label, sim, expected)

    def lines_meet_at(self, label, l1, l2, target, holds, *notes):
        return super().lines_meet_at(label, l1, l2, target, False, *notes)


def _radical_route(c1, c2, known):
    return second_intersection_with_line(c1, radical_axis(c1, c2), known)


def _through_known(o1, o2, known):
    # the reflected meet's circles: about each centre, through known
    return _radical_route(*(Circle(o, distance_squared(known, o)) for o in (o1, o2)), known)


def _claims(results) -> dict:
    return {r.name: (r.records, r.notes) for r in results}


def _undecided_claims(config) -> dict:
    """Each registered check's records and notes with every shortcut withheld:
    no verdict or map passed to a ClaimSet method (each such method must be
    overridden), no derived half turn, perspectrix or join verdict, no build
    maps and no reflected second meet."""
    claim_set = _Undecided.__base__  # the package's, even while a test patches the name
    shortcuts = {name for name, method in vars(claim_set).items() if callable(method)
                 and {"holds", "pinned"} & set(inspect.signature(method).parameters)}
    assert shortcuts <= set(vars(_Undecided)), shortcuts - set(vars(_Undecided))
    with pytest.MonkeyPatch.context() as mp:
        for module in (configuration, verifier):
            mp.setattr(module, "_reflected_meet", _through_known)
            mp.setattr(module, "second_intersection_of_circles", _radical_route)
        config = dataclasses.replace(config)  # drops build_maps
        derived = dataclasses.replace(
            derive_figures(config), half_turns={}, centre_half_turn=None,
            collinear=(False,) * len(PERSPECTIVE_TABLE), joins={},
            quadrangle_maps=derive_quadrangle_maps(config))
        return _claims(run_check(name, config, derived, _Undecided)
                       for name, _ in verifier.CHECKS)


# one field changed: a point, centre, J or circle centre moved, or a point
# copied onto a point or a centre
_tampering = st.one_of(
    *(st.tuples(st.just(kind), st.sampled_from(labels), st.sampled_from("xy"),
                st.integers(-3, 3).filter(bool))
      for kind, labels in (("point", POINT_LABELS), ("center", CENTER_LABELS), ("j", "J"),
                           ("circle", CIRCLE_LABELS))),
    st.tuples(st.just("copy"), st.sampled_from(POINT_LABELS),
              st.sampled_from(POINT_LABELS + CENTER_LABELS)))


def _tampered(config, kind, label, *change):
    if kind != "copy":
        return mutate_configuration(config, kind, label, *change)
    named = {**config.points, **config.centers}
    return dataclasses.replace(config, points={**config.points, label: named[change[0]]})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 63), st.sampled_from([12, 10 ** 12]), st.none() | _tampering)
def test_every_shortcut_leaves_every_claim_record(rng_seed, magnitude, tampering):
    # each check gives the same records and notes with every verdict, map and
    # derived shortcut withheld; on a built seed the float oracle audits the
    # decided objects, whose residuals a wrong one would raise
    _, config, _, _ = next(generate_configurations(FuzzPolicy(1, rng_seed, magnitude)))
    if tampering is not None:
        config = _tampered(config, *tampering)
    report = verify_all(config)
    assert _claims(report.results) == _undecided_claims(config)
    if tampering is None:
        assert not report.failed and verifier.float_cross_residuals(report) < 1e-9


def test_every_shortcut_is_taken_on_the_fixed_configurations(reference_config, monkeypatch):
    # the ledger configurations and twenty wide campaign seeds: both arms
    # agree, and each shortcut is taken where its precondition holds
    policy = FuzzPolicy(count=20, rng_seed=42, max_magnitude=10 ** 12)
    configs = [*_ledger_configurations(reference_config),
               *(built for _, built, _, _ in generate_configurations(policy))]
    taken = Counter()

    class Counting(verifier.ClaimSet):
        def similarity(self, label, source, target, pinned=None):
            taken[label.split("~")[1], pinned is not None] += 1
            return super().similarity(label, source, target, pinned)

    monkeypatch.setattr(verifier, "ClaimSet", Counting)
    for config in configs:
        decided = _claims(verify_all(config).results)
        assert decided == _undecided_claims(config)
        taken["built", config.build_maps is not None] += 1
        taken.update(("row", holds) for holds in derive_perspectrices(config)[0])
        taken.update(("steiner", holds) for name, (records, _) in decided.items()
                     if name.startswith("steiner-line:") for label, holds, *_ in records
                     if label.startswith("orthocentre line point"))
    # the quadrangles of the 31 built configurations, and those a probe leaves
    # alone, take their half turn; their h-quadrangles take the identity, and
    # 146 more reach the claims; the perspectrix and Steiner verdicts are
    # compared where they fail, which no built seed reaches
    kinds = ("H-quadrangle", "h-quadrangle", "built", "row", "steiner")
    assert {kind: (taken[kind, True], taken[kind, False]) for kind in kinds} == {
        "H-quadrangle": (254, 55), "h-quadrangle": (155, 146), "built": (31, 32),
        "row": (552, 78), "steiner": (361, 146)}
