from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wooddesargues import ConfigurationSeed, FuzzPolicy, run_campaign
from wooddesargues.kernel import INFINITY, Point, point
from wooddesargues.serialize import (
    FormatError,
    configuration_from_document,
    configuration_to_document,
    dumps,
    format_point,
    format_scalar,
    format_seed_text,
    loads,
    parse_point,
    parse_scalar,
    parse_seed_text,
    report_to_document,
    seed_from_dict,
    seed_to_dict,
)
from wooddesargues.verifier import verify_all

from conftest import REFERENCE_SEED, mutate_configuration


def test_parse_seed_text_reference():
    seed = parse_seed_text("tJ=0,tK=1,tA=-1,tB=2,tC=3,s=-3/2")
    assert seed == REFERENCE_SEED


def test_seed_text_round_trip():
    seed = ConfigurationSeed(INFINITY, F(1), F(-1, 3), F(2), F(3), F(7, 2))
    assert parse_seed_text(format_seed_text(seed)) == seed
    assert format_seed_text(seed) == "tJ=inf,tK=1/1,tA=-1/3,tB=2/1,tC=3/1,s=7/2"


@pytest.mark.parametrize("text", [
    "tJ=zebra,tK=1,tA=-1,tB=2,tC=3,s=-3/2",
    "tJ=0,tK=1,tA=-1,tB=2,tC=3",                      # missing key
    "tJ=0,tJ=1,tK=1,tA=-1,tB=2,tC=3,s=0",             # duplicate key
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=inf",                # s must be rational
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=1.5",                # decimals are not rationals
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=1/0",                # zero denominator
    "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=+3",                 # no leading plus
    "nope",
    "tX=0,tK=1,tA=-1,tB=2,tC=3,s=0",
])
def test_parse_seed_text_rejects_bad_input(text):
    with pytest.raises(FormatError):
        parse_seed_text(text)


def test_parse_scalar_strictness():
    assert parse_scalar("-3/2") == F(-3, 2)
    assert parse_scalar("4") == 4
    huge = "7" * 5000  # past the interpreter's default integer-string limit
    for bad in ["3/0", "3/-2", "03/x", "", "1e3", None, huge, f"1/{huge}", f"-{huge}/3",
                "3/4\n", "\u0663/4"]:
        with pytest.raises(FormatError):
            parse_scalar(bad)


@st.composite
def _digit_runs(draw, first: str) -> str:
    """A run of up to 4400 digits that starts with one of ``first``.

    Lengths cluster at both ends and around the interpreter's default
    4300-digit limit; the digits repeat a short drawn block.
    """
    size = draw(st.one_of(st.integers(1, 12), st.integers(4290, 4310), st.integers(1, 4400)))
    block = draw(st.text("0123456789", min_size=1, max_size=16))
    return (draw(st.sampled_from(first)) + block * size)[:size]


_LITERALS = st.builds(
    lambda sign, numerator, denominator: sign + numerator + (denominator and "/" + denominator),
    st.sampled_from(["", "-"]),
    _digit_runs("0123456789"),
    st.one_of(st.just(""), _digit_runs("123456789")),
)


@given(_LITERALS)
@example("-0")
@example("-" + "0" * 4300)
@example("0" * 4301)
@example("1" * 4301)
@example("2/" + "3" * 4301)
@example("1" * 4300 + "/" + "7" * 4300)
def test_parse_scalar_agrees_with_fraction(text):
    try:
        expected = F(text)
    except ValueError:  # an integer part past the interpreter's digit limit
        with pytest.raises(FormatError) as excinfo:
            parse_scalar(text)
        assert str(excinfo.value) == f"rational literal too long ({len(text)} characters)"
    else:
        assert parse_scalar(text) == expected


def test_configuration_document_round_trip(reference_config):
    doc = configuration_to_document(reference_config)
    assert doc["j"] == ["1/1", "0/1"]
    assert doc["points"]["b"] == ["21/5", "12/5"]
    assert doc["circles"]["abcK"] == {"center": ["2/1", "2/1"], "radiusSquared": "5/1"}
    assert doc["seed"]["s"] == "-3/2"

    back = configuration_from_document(loads(dumps(doc)))
    assert back == reference_config


def test_seed_dict_round_trip():
    seed = ConfigurationSeed(F(0), INFINITY, F(-1), F(2), F(3), F(-3, 2))
    assert seed_from_dict(seed_to_dict(seed)) == seed


@pytest.mark.parametrize("corrupt", [
    lambda d: d.pop("points"),
    lambda d: d.pop("circles"),
    lambda d: d["points"].pop("A"),
    lambda d: d["points"].update({"A": ["1/1"]}),
    lambda d: d["points"].update({"ZZ": ["1/1", "1/1"]}),
    lambda d: d["circles"]["ABCK"].update({"radiusSquared": "0/1"}),
    lambda d: d["circles"]["ABCK"].update({"radiusSquared": "-1/1"}),
    lambda d: d["circles"].pop("Aa23"),
    lambda d: d["centers"].pop("U"),
    lambda d: d["circles"].update({"Q": d["circles"]["ABCK"]}),
    lambda d: d["centers"].update({"Q": ["1/1", "1/1"]}),
    lambda d: d.update({"points": "nope"}),
])
def test_document_schema_violations(reference_config, corrupt):
    doc = configuration_to_document(reference_config)
    corrupt(doc)
    with pytest.raises(FormatError):
        configuration_from_document(doc)


def test_loads_rejects_non_json():
    with pytest.raises(FormatError):
        loads("")
    with pytest.raises(FormatError):
        loads("{not json")


def test_report_document_shape(reference_config):
    doc = report_to_document(verify_all(reference_config))
    assert doc["seed"]["tJ"] == "0/1"
    assert len(doc["results"]) == 28
    assert doc["summary"] == {"pass": 27, "fail": 0, "degenerate-pass": 1, "total": 28}
    first = doc["results"][0]
    assert set(first) == {"name", "status", "witnesses", "notes"}
    assert "pentagon-perspective-vertex" in doc["metadata"]


def test_dumps_is_deterministic(reference_config):
    doc = configuration_to_document(reference_config)
    assert dumps(doc) == dumps(configuration_to_document(reference_config))
    assert dumps(doc).endswith("\n")


# every code point, surrogates included, so quotes, backslashes, control
# characters and non-BMP characters are all drawn
_TEXT = st.text(st.characters(blacklist_categories=()))

_JSON_VALUES = st.recursive(
    st.none() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(_JSON_VALUES)
@example({})
@example([])
@example({"": [[], {}, [None]], "\"\\\n\x00\x1f\x7f\u2028\ud800\U0001f600": -0})
def test_dumps_is_the_stdlib_indented_encoding(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("document", ["reference report", "tampered report", "campaign"])
def test_dumps_matches_the_stdlib_on_documents(reference_config, document):
    if document == "campaign":
        value = run_campaign(FuzzPolicy(count=3, rng_seed=42, max_magnitude=12)).to_document()
    else:
        config = reference_config
        if document == "tampered report":
            config = mutate_configuration(config, "point", "A", "x", 1)
        value = report_to_document(verify_all(config))
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


# integers of a few digits and past the interpreter's 4300-digit str limit
_COORDINATES = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda m, e, r: m * 10**e + r,
              st.integers(-999, 999), st.integers(4290, 4410), st.integers(0, 10**6)),
)


@given(_COORDINATES, _COORDINATES, _COORDINATES.filter(bool))
@example(0, 0, 1)
@example(-6, 0, 4)
@example(3 * 10**4400, -(10**4301), 7 * 10**4300)
def test_format_point_formats_each_reduced_coordinate(x, y, z):
    p = point(F(x, z), F(y, z))
    assert format_point(p) == [format_scalar(p.x), format_scalar(p.y)]


@given(_LITERALS, _LITERALS)
@example("6/4", "-0/7")
@example("-12/18", "5")
@example("3/0", "1")
@example("1", "1" * 4301)
def test_parse_point_is_point_of_parsed_scalars(x, y):
    try:
        expected = point(parse_scalar(x), parse_scalar(y))
    except FormatError as exc:
        with pytest.raises(FormatError) as excinfo:
            parse_point([x, y])
        assert str(excinfo.value) == str(exc)
    else:
        parsed = parse_point([x, y])
        assert type(parsed) is Point and parsed.hom == expected.hom
