from __future__ import annotations

import dataclasses
import re
from fractions import Fraction as F

import pytest

from wooddesargues import FuzzPolicy
from wooddesargues.fuzz import generate_configurations
from wooddesargues.kernel import Circle
from wooddesargues.render import LAYERS, RenderStyle, UnrenderableError, render_svg
from wooddesargues.serialize import configuration_from_document, configuration_to_document

from test_configuration import _count_kernel_calls


def test_render_is_deterministic(reference_config):
    first = render_svg(reference_config)
    second = render_svg(reference_config)
    assert first == second
    assert first.startswith('<?xml version="1.0"')
    assert first.endswith("</svg>\n")


def test_pentagon_circle_appears_in_world_coordinates(reference_config):
    svg = render_svg(reference_config)
    assert 'cx="0.500000" cy="1.500000" r="1.581139"' in svg


def test_layer_toggles(reference_config):
    everything = render_svg(reference_config)
    assert "<circle" in everything and "<line" in everything
    assert "<rect" in everything and "<text" in everything

    points_only = render_svg(reference_config, RenderStyle(layers=("points",)))
    assert "<circle" not in points_only
    assert "<line" not in points_only
    assert "<rect" in points_only and "<text" in points_only

    circles_only = render_svg(reference_config, RenderStyle(layers=("circles",)))
    assert circles_only.count("<circle") == 5
    assert "<rect" not in circles_only

    hagge = render_svg(reference_config, RenderStyle(layers=("haggeCentres",)))
    assert hagge.count("<circle") == 10  # ten Hagge circles
    assert hagge.count("<rect") == 10    # ten Hagge centres

    perspectrices = render_svg(reference_config, RenderStyle(layers=("perspectrices",)))
    assert perspectrices.count("<line") == 10


def test_six_decimal_formatting(reference_config):
    svg = render_svg(reference_config)
    import re
    numbers = re.findall(
        r'(?:cx|cy|r|x|y|x1|y1|x2|y2|width|height|stroke-width)="(-?\d+\.\d+)"', svg)
    assert numbers
    for number in numbers:
        assert len(number.split(".")[1]) == 6
    assert "-0.000000" not in svg


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(layers=("nope",))
    with pytest.raises(ValueError):
        RenderStyle(size=0)
    with pytest.raises(ValueError):
        RenderStyle(margin=0.7)
    assert RenderStyle().layers == LAYERS


def test_render_decides_no_pentagon_join(monkeypatch):
    # the pentagon joins are verify's alone: a reloaded document's render forms
    # one bracket, the collinearity guard of the pentagon circle's centre
    policy = FuzzPolicy(count=20, rng_seed=42, max_magnitude=10 ** 12)
    configs = [configuration_from_document(configuration_to_document(built))
               for _, built, _, _ in generate_configurations(policy)]
    calls = _count_kernel_calls(monkeypatch, "_det3")["_det3"]
    for config in configs:
        render_svg(config)
    assert len(calls) == len(configs)


def _scaled(config, k):
    # every coordinate times k: points, J and centres, and each r^2 times k^2
    return dataclasses.replace(
        config, points={lbl: p.scale(k) for lbl, p in config.points.items()}, j=config.j.scale(k),
        circles={lbl: Circle(c.center.scale(k), c.radius_squared * k * k)
                 for lbl, c in config.circles.items()},
        centers={lbl: p.scale(k) for lbl, p in config.centers.items()})


def _drawn(svg: str) -> tuple:
    return (svg.count("<line"), svg.count("<circle"),
            re.search(r'width="([^"]*)" height="([^"]*)"', svg).groups())


@pytest.mark.parametrize("k", [F(1, 10 ** 12), F(1, 10 ** 20), F(10 ** 12)])
def test_a_scaled_drawing_draws_the_same_figures(reference_config, k):
    # the drawing is similarity-invariant: every perspectrix line and circle
    # is drawn, in a viewport of the same size, at any scale
    assert _drawn(render_svg(_scaled(reference_config, k))) == (
        10, 16, ("800.000000", "751.707713"))
    assert _drawn(render_svg(reference_config)) == (10, 16, ("800.000000", "751.707713"))


def test_a_drawing_too_small_to_scale_is_unrenderable(reference_config):
    # an extent of about 1e-306, or none at all without a margin, has no
    # finite scale to the 800-unit viewport, and no inf or nan is written
    one_point = dataclasses.replace(
        reference_config, points={lbl: p.scale(0) for lbl, p in reference_config.points.items()},
        j=reference_config.j.scale(0),
        centers={lbl: p.scale(0) for lbl, p in reference_config.centers.items()})
    for config, style in ((_scaled(reference_config, F(1, 10 ** 307)), RenderStyle()),
                          (one_point, RenderStyle(layers=("points",), margin=0.0))):
        with pytest.raises(UnrenderableError, match="scale does not fit in a double"):
            render_svg(config, style)
    assert "<rect" in render_svg(one_point, RenderStyle(layers=("points",)))
