"""Deterministic SVG rendering of a configuration.

Output is a pure function of (configuration, style): fixed element order (the
five circles, the pentagon circle, the Hagge circles, the perspectrix lines,
then points with labels), all coordinates converted to double precision and
written with exactly six decimal places.  Geometry is emitted in world
coordinates inside a single y-flipping transform so exact values remain
recognizable in the file; labels live in screen space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .configuration import (
    CENTER_LABELS,
    CIRCLE_LABELS,
    POINT_LABELS,
    WoodDesarguesConfiguration,
    derive_figures,
)
from .kernel import Line, distance_squared, float_point, float_sqrt

LAYERS = ("points", "circles", "perspectrices", "haggeCentres", "pentagon")

_CIRCLE_STROKE = "#1f77b4"
_PENTAGON_STROKE = "#d62728"
_HAGGE_STROKE = "#2ca02c"
_LINE_STROKE = "#7f7f7f"


@dataclass(frozen=True)
class RenderStyle:
    layers: tuple[str, ...] = LAYERS
    size: int = 800
    margin: float = 0.05

    def __post_init__(self) -> None:
        unknown = [l for l in self.layers if l not in LAYERS]
        if unknown:
            raise ValueError(f"unknown layers: {unknown}")
        try:
            size = float(self.size)
        except OverflowError:  # an int past the double range
            size = math.inf
        if not (0.0 < size < math.inf and 0.0 <= self.margin < 0.5):
            raise ValueError("size must be a positive finite double and margin in [0, 0.5)")


class UnrenderableError(ValueError):
    """A drawn coordinate, or the drawing's extent, does not fit in a double."""


def _clip_line(line: Line, box: tuple[float, float, float, float]):
    """Segment of an infinite line inside a rectangle, or None.

    Edge hits are kept, and told apart, up to a tolerance relative to the
    rectangle's size, so a scaled drawing clips the same."""
    a, b, c = line.float_coefficients()
    x0, y0, x1, y1 = box
    tol = 1e-9 * max(x1 - x0, y1 - y0)
    pts = []
    if b != 0.0:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - tol <= y <= y1 + tol:
                pts.append((x, y))
    if a != 0.0:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - tol <= x <= x1 + tol:
                pts.append((x, y))
    dedup: list[tuple[float, float]] = []
    for p in pts:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > tol for q in dedup):
            dedup.append(p)
    if len(dedup) < 2:
        return None
    dedup.sort()
    return dedup[0], dedup[-1]


def render_svg(config: WoodDesarguesConfiguration, style: RenderStyle = RenderStyle()) -> str:
    derived = derive_figures(config)
    layers = set(style.layers)

    # exact figures in draw order: rings as (centre, r^2, stroke), markers as (label, point)
    rings, markers = [], []
    if "circles" in layers:
        rings += [(c.center, c.radius_squared, _CIRCLE_STROKE)
                  for c in map(config.circles.__getitem__, CIRCLE_LABELS)]
    pentagon = derived.pentagon.circle
    if "pentagon" in layers and pentagon is not None:
        rings.append((pentagon.center, pentagon.radius_squared, _PENTAGON_STROKE))
    if "points" in layers:
        markers += [(lbl, config.points[lbl]) for lbl in POINT_LABELS]
        markers += [("J", config.j)] + [(lbl, config.centers[lbl]) for lbl in CENTER_LABELS]
    if "haggeCentres" in layers:  # h(v) in table order; its circle passes J
        hagge = [(v, h) for v, h in derived.hagge.items() if h is not None]
        rings += [(h, distance_squared(h, config.j), _HAGGE_STROKE) for _, h in hagge]
        markers += [(f"h({v})", h) for v, h in hagge]
    perspectrices = ([line for line in derived.perspectrices if line is not None]
                     if "perspectrices" in layers else [])

    # each figure read as doubles once; the box covers every drawn one
    rings = [(float_point(c), float_sqrt(r2), stroke) for c, r2, stroke in rings]
    markers = [(lbl, float_point(p)) for lbl, p in markers]
    corners = [corner for (cx, cy), r, _ in rings
               for corner in ((cx - r, cy - r), (cx + r, cy + r))]
    corners += [p for _, p in markers]
    if perspectrices:  # every labelled point lies on some perspectrix
        corners += map(float_point, config.points.values())
    xs, ys = zip(*corners) if corners else ((0.0, 1.0), (0.0, 1.0))
    if not all(map(math.isfinite, xs + ys)):
        raise UnrenderableError("a drawn coordinate does not fit in a double")

    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    # a drawing of one point takes a floor for its extent; any other is scale-free
    pad = style.margin * (max(x1 - x0, y1 - y0) or 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    if not (math.isfinite(w) and math.isfinite(h)):
        raise UnrenderableError("the drawing's extent does not fit in a double")
    k = style.size / max(w, h) if max(w, h) else math.inf
    width, height = k * w, k * h
    tx, ty = -k * x0, k * y1
    if not (math.isfinite(k) and math.isfinite(tx) and math.isfinite(ty)):
        raise UnrenderableError("the drawing's scale does not fit in a double")

    # every number is written as f"{v + 0.0:.6f}": adding 0.0 turns -0.0 into 0.0
    sw = f"{1.5 / k + 0.0:.6f}"   # stroke width in world units
    ms = 4.0 / k                  # marker size in world units
    ms_text = f"{ms + 0.0:.6f}"

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width + 0.0:.6f}" height="{height + 0.0:.6f}" '
           f'viewBox="0 0 {width + 0.0:.6f} {height + 0.0:.6f}">',
           f'<g transform="matrix({k + 0.0:.6f} 0 0 {-k + 0.0:.6f} {tx + 0.0:.6f} '
           f'{ty + 0.0:.6f})" fill="none">']
    out += [f'<circle cx="{cx + 0.0:.6f}" cy="{cy + 0.0:.6f}" r="{r + 0.0:.6f}" '
            f'stroke="{stroke}" stroke-width="{sw}"/>' for (cx, cy), r, stroke in rings]
    for line in perspectrices:
        seg = _clip_line(line, (x0, y0, x1, y1))
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        out.append(f'<line x1="{ax + 0.0:.6f}" y1="{ay + 0.0:.6f}" '
                   f'x2="{bx + 0.0:.6f}" y2="{by + 0.0:.6f}" '
                   f'stroke="{_LINE_STROKE}" stroke-width="{sw}"/>')
    out += [f'<rect x="{x - ms / 2 + 0.0:.6f}" y="{y - ms / 2 + 0.0:.6f}" '
            f'width="{ms_text}" height="{ms_text}" fill="#000000"/>' for _, (x, y) in markers]
    out.append('</g>')
    if markers:  # labels in screen space, 5 units right of and above each marker
        out.append('<g font-family="monospace" font-size="12" fill="#000000">')
        out += [f'<text x="{k * x + tx + 5.0 + 0.0:.6f}" '
                f'y="{ty - k * y - 5.0 + 0.0:.6f}">{lbl}</text>' for lbl, (x, y) in markers]
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
