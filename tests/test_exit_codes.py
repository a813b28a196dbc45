"""The exit-code contract under hostile documents.

Whatever one field of a configuration document holds, ``verify`` and
``render`` answer with an exit code in {0, 1, 2, 3} and never raise.  Each
example starts from the reference document and changes one field: a rational
literal of up to 4000 digits, a value of a wrong JSON type, a missing key, or
a point snapped onto another point, J or a centre.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wooddesargues.cli import main
from wooddesargues.serialize import configuration_to_document

EXIT_CODES = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def reference_document(reference_config) -> dict:
    return configuration_to_document(reference_config)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _paths(node, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def integer_literals(draw) -> str:
    digits = draw(st.integers(1, 4000))
    return str(draw(st.integers(10 ** (digits - 1), 10 ** digits - 1)))


@st.composite
def rational_literals(draw) -> str:
    text = draw(st.sampled_from(["", "-"])) + draw(integer_literals())
    if draw(st.booleans()):
        text += "/" + draw(integer_literals())
    return text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def hostile_documents(draw, reference: dict):
    doc = copy.deepcopy(reference)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["literal", "wrong-type", "missing-key", "snap"]))
    if kind == "literal":
        path = draw(st.sampled_from([p for p in paths if isinstance(_get(doc, p), str)]))
        _get(doc, path[:-1])[path[-1]] = draw(rational_literals())
    elif kind == "wrong-type":
        path = draw(st.sampled_from(paths))
        value = draw(json_values)
        if not path:
            return value
        _get(doc, path[:-1])[path[-1]] = value
    elif kind == "missing-key":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        del _get(doc, path[:-1])[path[-1]]
    else:
        points = ([("j",)] + [("points", lbl) for lbl in doc["points"]]
                  + [("centers", lbl) for lbl in doc["centers"]]
                  + [("circles", lbl, "center") for lbl in doc["circles"]])
        target, source = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        _get(doc, target[:-1])[target[-1]] = list(_get(doc, source))
    return doc


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_verify_and_render_keep_the_exit_code_contract(data, reference_document, workdir):
    doc = data.draw(hostile_documents(reference_document))
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        verify = main(["verify", str(path), "--report", str(workdir / "report.json")])
        render = main(["render", str(path), "-o", str(workdir / "figure.svg")])
    assert verify in EXIT_CODES and render in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
