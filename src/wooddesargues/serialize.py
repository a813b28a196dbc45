"""Exact text formats: seed strings, configuration documents, reports.

Rationals travel as canonical strings ``p/q`` with q > 0 (never floats), so
documents are exact and diff-stable.  Configuration documents carry the base
points, J, the five circles and the centres plus the seed echo; derived
figures are always recomputed on load.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import TYPE_CHECKING, Callable, TypeVar

from .configuration import (
    CENTER_LABELS,
    CIRCLE_LABELS,
    POINT_LABELS,
    ConfigurationSeed,
    WoodDesarguesConfiguration,
)
from .kernel import (
    INFINITY,
    Circle,
    Line,
    Point,
    UnitParameter,
    _Infinity,
    _point_of_ratios,
    decimal,
)

if TYPE_CHECKING:  # the verifier imports this module
    from .verifier import VerificationReport, Witness

# the seed's document and text keys, in ConfigurationSeed's field order
SEED_KEYS = ("tJ", "tK", "tA", "tB", "tC", "s")

_T = TypeVar("_T")

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class FormatError(ValueError):
    """Malformed seed text or document (CLI exit code 3 territory)."""


def format_scalar(x: Fraction) -> str:
    return f"{decimal(x.numerator)}/{decimal(x.denominator)}"


def _quotient_text(n: int, d: int) -> str:
    """``format_scalar`` of n/d for d > 0, reduced by one gcd."""
    g = gcd(n, d)
    return f"{decimal(n // g)}/{decimal(d // g)}"


def _literal(text: str) -> tuple[int, int]:
    """The numerator and denominator of a rational literal, as written."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise FormatError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        return int(numerator), int(denominator or 1)
    except ValueError:  # past the interpreter's integer-string length limit
        raise FormatError(f"rational literal too long ({len(text)} characters)") from None


def parse_scalar(text: str) -> Fraction:
    return Fraction(*_literal(text))


def _reduced_literal(text: str) -> tuple[int, int]:
    """``parse_scalar(text)`` as its numerator and denominator."""
    n, d = _literal(text)
    g = gcd(n, d)
    return n // g, d // g


def format_parameter(value: UnitParameter) -> str:
    return "inf" if isinstance(value, _Infinity) else format_scalar(value)


def parse_parameter(text: str) -> UnitParameter:
    if text == "inf":
        return INFINITY
    return parse_scalar(text)


def format_point(p: Point) -> list[str]:
    X, Y, Z = p.hom
    return [_quotient_text(X, Z), _quotient_text(Y, Z)]


def format_witness(value: Witness) -> str:
    """Report text of an exact witness: ``p/q``, ``(x, y)``, a line's repr, or the phrase."""
    if isinstance(value, Point):
        return f"({', '.join(format_point(value))})"
    if isinstance(value, Line):
        return repr(value)
    return value if isinstance(value, str) else format_scalar(value)


def parse_point(value) -> Point:
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"point must be a [x, y] pair: {value!r}")
    return _point_of_ratios(*_reduced_literal(value[0]), *_reduced_literal(value[1]))


# ---------------------------------------------------------------------------
# seed text


def parse_seed_text(text: str) -> ConfigurationSeed:
    """Parse ``tJ=..,tK=..,tA=..,tB=..,tC=..,s=..`` with rational or inf values."""
    fields: dict[str, str] = {}
    for part in text.split(","):
        if "=" not in part:
            raise FormatError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in SEED_KEYS:
            raise FormatError(f"unknown seed key {key!r}")
        if key in fields:
            raise FormatError(f"seed key {key!r} given twice")
        fields[key] = value.strip()
    return seed_from_dict(fields)


def format_seed_text(seed: ConfigurationSeed) -> str:
    return ",".join(f"{k}={v}" for k, v in seed_to_dict(seed).items())


def seed_to_dict(seed: ConfigurationSeed) -> dict[str, str]:
    return dict(zip(SEED_KEYS, map(format_parameter, (*seed.t_values(), seed.s))))


def seed_from_dict(value) -> ConfigurationSeed:
    if not isinstance(value, dict):
        raise FormatError("seed must be an object")
    _refuse_unknown_keys(value, SEED_KEYS, "seed key")
    missing = [k for k in SEED_KEYS if k not in value]
    if missing:
        raise FormatError(f"seed missing keys: {', '.join(missing)}")
    if value["s"] == "inf":
        raise FormatError("the offset s must be rational, not inf")
    *ts, s = (value[k] for k in SEED_KEYS)
    return ConfigurationSeed(*map(parse_parameter, ts), parse_scalar(s))


def _refuse_unknown_keys(obj: dict, known: tuple[str, ...], what: str) -> None:
    """Raise ``unknown {what} 'key'`` for the first key of ``obj`` outside ``known``."""
    for key in obj:
        if key not in known:
            raise FormatError(f"unknown {what} {key!r}")


# ---------------------------------------------------------------------------
# configuration documents


def configuration_to_document(config: WoodDesarguesConfiguration) -> dict:
    return {
        "seed": seed_to_dict(config.seed) if config.seed is not None else None,
        "points": {lbl: format_point(config.points[lbl]) for lbl in POINT_LABELS},
        "j": format_point(config.j),
        "circles": {
            lbl: {
                "center": format_point(config.circles[lbl].center),
                "radiusSquared": format_scalar(config.circles[lbl].radius_squared),
            }
            for lbl in CIRCLE_LABELS
        },
        "centers": {lbl: format_point(config.centers[lbl]) for lbl in CENTER_LABELS},
    }


def _read_section(doc: dict, key: str, noun: str, labels: tuple[str, ...],
                  read_entry: Callable[[str, object], _T]) -> dict[str, _T]:
    """The entries of ``doc[key]``, an object holding exactly ``labels``, read in label order."""
    section = doc[key]
    if not isinstance(section, dict):
        raise FormatError(f"{key} must be an object")
    extra = set(section).difference(labels)
    if extra:
        raise FormatError(f"unknown {noun} labels: {sorted(extra)}")
    entries = {}
    for lbl in labels:
        if lbl not in section:
            raise FormatError(f"missing {noun} {lbl!r}")
        entries[lbl] = read_entry(lbl, section[lbl])
    return entries


def _read_point(lbl: str, value) -> Point:
    return parse_point(value)


def _read_circle(lbl: str, entry) -> Circle:
    if not isinstance(entry, dict) or "center" not in entry or "radiusSquared" not in entry:
        raise FormatError(f"circle {lbl!r} needs center and radiusSquared")
    _refuse_unknown_keys(entry, ("center", "radiusSquared"), f"circle {lbl!r} key")
    r2 = parse_scalar(entry["radiusSquared"])
    if r2 <= 0:
        raise FormatError(f"circle {lbl!r} needs radiusSquared > 0")
    return Circle(parse_point(entry["center"]), r2)


def configuration_from_document(doc) -> WoodDesarguesConfiguration:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    _refuse_unknown_keys(doc, ("seed", "points", "j", "circles", "centers"), "document field")
    for key in ("points", "j", "circles", "centers"):
        if key not in doc:
            raise FormatError(f"document missing field {key!r}")
    points = _read_section(doc, "points", "point", POINT_LABELS, _read_point)
    j = parse_point(doc["j"])
    circles = _read_section(doc, "circles", "circle", CIRCLE_LABELS, _read_circle)
    centers = _read_section(doc, "centers", "center", CENTER_LABELS, _read_point)
    seed = seed_from_dict(doc["seed"]) if doc.get("seed") is not None else None
    return WoodDesarguesConfiguration(points=points, j=j, circles=circles,
                                      centers=centers, seed=seed)


# ---------------------------------------------------------------------------
# reports


def report_to_document(report: VerificationReport) -> dict:
    return {
        "seed": seed_to_dict(report.seed) if report.seed is not None else None,
        "metadata": {k: v for k, v in report.metadata},
        "results": [
            {
                "name": r.name,
                "status": r.status,
                "witnesses": [[label, format_witness(value)] for label, value in r.witnesses],
                "notes": r.notes,
            }
            for r in report.results
        ],
        "summary": report.summary,
    }


def dumps(value) -> str:
    """``json.dumps(value, indent=2)`` and a newline, for the values documents
    hold: dicts with str keys, lists, str, int and None.

    Strings are quoted by the stdlib encoder's own C routine; any other type
    raises TypeError.
    """
    out: list[str] = []
    _write(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the indented JSON of value; ``newline`` starts its own lines."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif kind is list or kind is dict:
        if not value:
            out.append("[]" if kind is list else "{}")
            return
        inner = newline + "  "
        separator = ("[" if kind is list else "{") + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            if kind is dict:
                if type(item) is not str:
                    raise TypeError(f"document keys must be str, not {type(item).__name__}")
                out.append(encode_basestring_ascii(item))
                out.append(": ")
                item = value[item]
            _write(item, inner, out)
        out.append(newline + ("]" if kind is list else "}"))
    else:
        raise TypeError(f"{kind.__name__} is not a document value")


def loads(text: str):
    try:
        return json.loads(text)
    # JSONDecodeError, a bare number over the length limit, or nesting past the
    # recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
