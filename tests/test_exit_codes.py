"""The exit-code contract under hostile documents and hostile argv.

Whatever one field of a configuration document holds, ``verify`` and
``render`` answer with an exit code in {0, 1, 2, 3} and never raise.  Each
example starts from the reference document and changes one field: a rational
literal of up to 4000 digits, a value of a wrong JSON type, a missing key, an
unknown key in any object, or a point snapped onto another point, J or a
centre.  An unknown key always exits 3.

The same holds for ``gen``, ``verify``, ``render`` and ``fuzz`` argv built from
hostile integers, floats, seed strings and paths, run in-process through
``cli.main``.  Counts, magnitudes and retry budgets that would be accepted stay
small, so every campaign finishes in milliseconds.  A command that exits 2 or
3 other than on a usage error writes nothing to stdout and one line to stderr.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wooddesargues.cli import main
from wooddesargues.render import LAYERS
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
def hostile_documents(draw, reference: dict,
                      kinds=("literal", "wrong-type", "missing-key", "extra-key", "snap")):
    doc = copy.deepcopy(reference)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(kinds))
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
    elif kind == "extra-key":
        # every object of the reference document holds exactly its known keys
        obj = _get(doc, draw(st.sampled_from([p for p in paths if isinstance(_get(doc, p), dict)])))
        obj[draw(st.text(max_size=8).filter(lambda key: key not in obj))] = draw(json_values)
    else:
        points = ([("j",)] + [("points", lbl) for lbl in doc["points"]]
                  + [("centers", lbl) for lbl in doc["centers"]]
                  + [("circles", lbl, "center") for lbl in doc["circles"]])
        target, source = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        _get(doc, target[:-1])[target[-1]] = list(_get(doc, source))
    return doc


def _verify_and_render(doc, workdir) -> tuple[int, int, str]:
    """Exit codes of ``verify`` and ``render`` on doc, and what both wrote to stderr."""
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        verify = main(["verify", str(path), "--report", str(workdir / "report.json")])
        render = main(["render", str(path), "-o", str(workdir / "figure.svg")])
    return verify, render, stderr.getvalue()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_verify_and_render_keep_the_exit_code_contract(data, reference_document, workdir):
    doc = data.draw(hostile_documents(reference_document))
    verify, render, stderr = _verify_and_render(doc, workdir)
    assert verify in EXIT_CODES and render in EXIT_CODES
    assert "Traceback" not in stderr


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_unknown_keys_exit_3(data, reference_document, workdir):
    doc = data.draw(hostile_documents(reference_document, kinds=("extra-key",)))
    verify, render, stderr = _verify_and_render(doc, workdir)
    assert (verify, render) == (3, 3)
    assert stderr.splitlines()[0].startswith("cannot load document: unknown ")


@pytest.mark.parametrize("path, key, message", [
    ((), "bogus", "unknown document field 'bogus'"),
    (("seed",), "tX", "unknown seed key 'tX'"),
    (("circles", "Aa23"), "foo", "unknown circle 'Aa23' key 'foo'"),
])
def test_unknown_key_is_named(path, key, message, reference_document, workdir):
    doc = copy.deepcopy(reference_document)
    _get(doc, path)[key] = "5/1"
    verify, render, stderr = _verify_and_render(doc, workdir)
    assert (verify, render) == (3, 3)
    assert stderr.splitlines() == [f"cannot load document: {message}"] * 2


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["array", "object"])
def test_deeply_nested_documents_exit_3(opening, closing, depth, workdir):
    path = workdir / "nested.json"
    path.write_text(opening * depth + closing * depth)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        verify = main(["verify", str(path), "--report", str(workdir / "report.json")])
        render = main(["render", str(path), "-o", str(workdir / "figure.svg")])
    assert (verify, render) == (3, 3)
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 2 and all(line.startswith("cannot load document: ") for line in lines)


# --- argv ------------------------------------------------------------------------

SEED_KEYS = ("tJ", "tK", "tA", "tB", "tC", "s")
HOSTILE_TEXT = ["", " ", "-", "--1", "+1", "1.5", "1e3", "nan", "inf", "-inf", "1/0",
                "0/0", "0x10", "7" * 5000, "1/" + "7" * 5000, "1" + "0" * 400]
# file names are placeholders ("@name"), resolved against a per-module directory;
# "@name:<text>" names a file in a subdirectory of its own, away from the fixtures
INPUT_FILES = ["@not-utf8", "@empty", "@bad-json", "@huge-literal", "@directory",
               "@missing"]
OUTPUT_FILES = ["@directory", "@nowhere"]
# a real argv is a C string: no NUL byte, and no surrogate that is not an
# undecodable byte; "/" is left out so that a name stays inside the directory
file_names = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="/\x00"),
                     min_size=1, max_size=300).map(lambda name: "@name:" + name)
hostile_text = st.one_of(st.sampled_from(HOSTILE_TEXT), st.text(max_size=12))


def _ints(lo=None, hi=None):
    return st.integers(lo, hi).map(str)


def _join_seed(pairs) -> str:
    return ",".join(f"{key}={value}" for key, value in pairs)


seed_values = st.one_of(st.fractions(max_denominator=1000).map(str), _ints(), st.just("inf"))
valid_seeds = st.lists(seed_values, min_size=6, max_size=6).map(
    lambda values: _join_seed(zip(SEED_KEYS, values)))
hostile_seeds = st.one_of(
    st.lists(st.tuples(st.sampled_from(SEED_KEYS + ("tX",)),
                       st.one_of(seed_values, hostile_text)), max_size=7).map(_join_seed),
    st.text())
hostile_inputs = st.one_of(st.sampled_from(INPUT_FILES), file_names)
outputs = st.sampled_from(["-", "@out"])
hostile_outputs = st.one_of(st.sampled_from(OUTPUT_FILES), file_names)

# per command: (flag, None for a positional; valid values; hostile values; required).
# Valid counts, magnitudes and retry budgets stay small, so campaigns are quick.
ARGV_SLOTS = {
    "gen": [("--seed", valid_seeds, hostile_seeds, True),
            ("-o", outputs, hostile_outputs, False)],
    "verify": [(None, st.just("@reference"), hostile_inputs, True),
               ("--report", outputs, hostile_outputs, False)],
    "render": [(None, st.just("@reference"), hostile_inputs, True),
               ("-o", outputs, hostile_outputs, True),
               ("--layers", st.lists(st.sampled_from(LAYERS), min_size=1).map(",".join),
                hostile_text, False),
               ("--size", _ints(1, 4000), st.one_of(_ints(), hostile_text), False),
               ("--margin", st.floats(0, 0.49).map(repr),
                st.one_of(st.floats().map(repr), hostile_text), False)],
    "fuzz": [("--count", _ints(1, 3), st.one_of(_ints(hi=0), hostile_text), True),
             ("--rng-seed", _ints(), hostile_text, True),
             ("--max-num", _ints(2, 30), st.one_of(_ints(hi=1), hostile_text), True),
             ("--max-retries", _ints(1, 20), st.one_of(_ints(hi=0), hostile_text), False),
             ("-o", outputs, hostile_outputs, False)],
}


@st.composite
def argvs(draw) -> list[str]:
    """A valid argv, or one with a single hostile slot; now and then a token is dropped."""
    command = draw(st.sampled_from(sorted(ARGV_SLOTS)))
    slots = ARGV_SLOTS[command]
    bad = draw(st.one_of(st.none(), st.integers(0, len(slots) - 1)))
    argv = [command]
    for i, (flag, valid, hostile, required) in enumerate(slots):
        if i != bad and not required and not draw(st.booleans()):
            continue
        value = draw(hostile if i == bad else valid)
        argv += [value] if flag is None else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, reference_document) -> dict[str, str]:
    root = tmp_path_factory.mktemp("argv")
    (root / "reference").write_text(json.dumps(reference_document))
    (root / "not-utf8").write_bytes(b"\xff\xfe")
    (root / "empty").write_text("")
    (root / "bad-json").write_text('{"points": [')
    huge = copy.deepcopy(reference_document)
    huge["points"]["A"][0] = "7" * 5000
    (root / "huge-literal").write_text(json.dumps(huge))
    (root / "directory").mkdir()
    files = {name: str(root / name[1:]) for name in ["@reference", "@out"] + INPUT_FILES}
    (root / "names").mkdir()
    files.update({"@names": str(root / "names"), "@nowhere": str(root / "missing" / "out")})
    return files


def _resolve(token: str, files: dict[str, str]) -> str:
    if token.startswith("@name:"):
        return files["@names"] + "/" + token[len("@name:"):]
    return files.get(token, token)


@given(argv=argvs())
@example(argv=["verify", "@not-utf8"])
@example(argv=["render", "@reference", "-o", "@out", "--size", "1" + "0" * 400])
@settings(max_examples=150, deadline=None)
def test_argv_keeps_the_exit_code_contract(argv, argv_files):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([_resolve(token, argv_files) for token in argv])
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    # a failure a command reports itself is one line on stderr and nothing on stdout
    if code in (2, 3) and not stderr.getvalue().startswith("usage:"):
        assert stdout.getvalue() == ""
        assert stderr.getvalue().endswith("\n") and stderr.getvalue().count("\n") == 1
