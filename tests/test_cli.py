from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from wooddesargues import check_names, fuzz, verify_all
from wooddesargues.cli import main

from conftest import mutate_configuration
from test_golden import REFERENCE_DOCUMENT, REFERENCE_REPORT, REFERENCE_SVG

SRC = Path(__file__).resolve().parent.parent / "src"

REFERENCE_SEED_TEXT = "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=-3/2"

# longer than the interpreter's default 4300-digit integer-string limit
HUGE_LITERAL = "7" * 5000


@pytest.fixture()
def reference_document(tmp_path: Path) -> Path:
    out = tmp_path / "config.json"
    assert main(["gen", "--seed", REFERENCE_SEED_TEXT, "-o", str(out)]) == 0
    return out


def test_gen_writes_reference_document(reference_document: Path):
    doc = json.loads(reference_document.read_text())
    assert doc["j"] == ["1/1", "0/1"]
    assert doc["points"]["1"] == ["17/5", "24/5"]


def test_gen_exit_codes(tmp_path: Path):
    assert main(["gen", "--seed", "tJ=0,tK=0,tA=-1,tB=2,tC=3,s=0",
                 "-o", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "--seed", "tJ=zebra,tK=1,tA=-1,tB=2,tC=3,s=0",
                 "-o", str(tmp_path / "x.json")]) == 3
    assert main(["gen", "--seed", f"tJ=0,tK=1,tA=-1,tB=2,tC=3,s=1/{HUGE_LITERAL}",
                 "-o", str(tmp_path / "x.json")]) == 3


def _document_with_huge_literal(reference_document: Path, out: Path) -> Path:
    doc = json.loads(reference_document.read_text())
    doc["points"]["A"] = [HUGE_LITERAL, "0/1"]
    out.write_text(json.dumps(doc))
    return out


def test_verify_reference_document(reference_document: Path, tmp_path: Path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", str(reference_document), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["degenerate-pass"] == 1


def test_verify_tampered_document(reference_document: Path, tmp_path: Path, capsys):
    doc = json.loads(reference_document.read_text())
    doc["points"]["C"] = ["0/1", "0/1"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err


def test_verify_format_errors(reference_document: Path, tmp_path: Path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["verify", str(empty)]) == 3
    assert main(["verify", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": {}}')
    assert main(["verify", str(bad)]) == 3
    huge = _document_with_huge_literal(reference_document, tmp_path / "huge.json")
    assert main(["verify", str(huge)]) == 3
    bad.write_text('{"points": ' + HUGE_LITERAL + '}')  # a bare JSON number
    assert main(["verify", str(bad)]) == 3
    bad.write_bytes(b"\xff\xfe")  # not UTF-8
    assert main(["verify", str(bad)]) == 3


def test_verify_rejects_unknown_circle_label(reference_document: Path, tmp_path: Path, capsys):
    doc = json.loads(reference_document.read_text())
    doc["circles"]["Q"] = doc["circles"]["ABCK"]
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(doc))
    assert main(["verify", str(extra)]) == 3
    assert capsys.readouterr().err == "cannot load document: unknown circle labels: ['Q']\n"


@pytest.mark.parametrize("command, what", [
    (["gen", "--seed", REFERENCE_SEED_TEXT, "-o"], "output"),
    (["verify", "{document}", "--report"], "report"),
    (["fuzz", "--count", "1", "--rng-seed", "42", "--max-num", "12", "-o"], "report"),
    (["render", "{document}", "-o"], "output"),
])
def test_unwritable_output_exits_3(command, what, reference_document: Path, tmp_path: Path,
                                   capsys):
    argv = [arg.format(document=reference_document) for arg in command]
    assert main(argv + [str(tmp_path / "missing" / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"cannot write {what}:")


# every failure a command reports itself: its argv, exit code and stderr line.
# "{out}" is a file holding earlier bytes, "{dir}" a directory, "{huge}" the
# reference document with point 1's x set to 10**400
CLI_FAILURES = {
    "gen-seed-key": (["gen", "--seed", "tX=0", "-o", "{out}"], 3,
                     "seed parse error: unknown seed key 'tX'"),
    "gen-degenerate": (["gen", "--seed", "tJ=0,tK=0,tA=-1,tB=2,tC=3,s=0", "-o", "{out}"], 2,
                       "degenerate seed: duplicate-parameter"),
    "verify-missing": (["verify", "{missing}", "--report", "{out}"], 3,
                       "cannot load document: [Errno 2] No such file or directory: '{missing}'"),
    "fuzz-policy": (["fuzz", "--count", "1", "--rng-seed", "1", "--max-num", "1", "-o", "{out}"],
                    3, "bad policy: max magnitude must be at least 2"),
    "fuzz-budget": (["fuzz", "--count", "1", "--rng-seed", "1", "--max-num", "2",
                     "--max-retries", "8", "-o", "{out}"], 2,
                    "retry budget exhausted at index 0; last rejection reasons: "
                    + str(["duplicate-parameter"] * 5)),
    "render-style": (["render", "{document}", "--layers", "bogus", "-o", "{out}"], 3,
                     "bad style: unknown layers: ['bogus']"),
    "render-double": (["render", "{huge}", "-o", "{out}"], 3,
                      "cannot render: a drawn coordinate does not fit in a double"),
    "gen-write": (["gen", "--seed", REFERENCE_SEED_TEXT, "-o", "{dir}"], 3,
                  "cannot write output: [Errno 21] Is a directory: '{dir}'"),
    "verify-write": (["verify", "{document}", "--report", "{dir}"], 3,
                     "cannot write report: [Errno 21] Is a directory: '{dir}'"),
    "fuzz-write": (["fuzz", "--count", "1", "--rng-seed", "42", "--max-num", "12", "-o", "{dir}"],
                   3, "cannot write report: [Errno 21] Is a directory: '{dir}'"),
    "render-write": (["render", "{document}", "-o", "{dir}"], 3,
                     "cannot write output: [Errno 21] Is a directory: '{dir}'"),
}


@pytest.mark.parametrize("name", CLI_FAILURES)
def test_each_failure_is_its_exit_code_and_one_stderr_line(name: str, reference_document: Path,
                                                          tmp_path: Path, capsys):
    argv, code, message = CLI_FAILURES[name]
    doc = json.loads(reference_document.read_text())
    doc["points"]["1"][0] = str(10 ** 400)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.write_bytes(b"#" * 1000)
    names = {"document": reference_document, "huge": huge, "out": out,
             "dir": tmp_path / "dir", "missing": tmp_path / "missing.json"}
    names["dir"].mkdir()
    assert main([arg.format(**names) for arg in argv]) == code
    assert capsys.readouterr() == ("", message.format(**names) + "\n")
    # each failure comes before the write: an earlier output file is untouched
    assert out.read_bytes() == b"#" * 1000


LONGER_SEED_TEXT = "tJ=1/7,tK=13/11,tA=-17/5,tB=23/9,tC=31/4,s=-37/29"


# each command twice: the second output is longer than the first
@pytest.mark.parametrize("shorter, longer", [
    (["gen", "--seed", REFERENCE_SEED_TEXT, "-o"], ["gen", "--seed", LONGER_SEED_TEXT, "-o"]),
    (["verify", "{document}", "--report"], ["verify", "{moved}", "--report"]),
    (["render", "{document}", "--layers", "points", "-o"], ["render", "{document}", "-o"]),
    (["fuzz", "--count", "1", "--rng-seed", "42", "--max-num", "12", "-o"],
     ["fuzz", "--count", "3", "--rng-seed", "42", "--max-num", "12", "-o"]),
], ids=["gen", "verify", "render", "fuzz"])
def test_output_files_are_overwritten_in_place(shorter, longer, reference_document: Path,
                                               tmp_path: Path, capsys):
    doc = json.loads(reference_document.read_text())
    doc["points"]["A"][0] = "7/1"  # A off its circles: a longer, failing report
    moved = tmp_path / "moved-a.json"
    moved.write_text(json.dumps(doc))

    def to_stdout(argv: list) -> tuple:
        # verify prints its report when it has no --report; the rest take -o -
        status = main(argv[:-1] if argv[-1] == "--report" else argv + ["-"])
        return status, capsys.readouterr().out.encode("utf-8")

    out = tmp_path / "out"
    out.write_bytes(b"#" * 100_000)
    inode = os.stat(out).st_ino
    expected_lengths = []
    for command in (shorter, longer):
        argv = [arg.format(document=reference_document, moved=moved) for arg in command]
        status, expected = to_stdout(argv)
        assert main(argv + [str(out)]) == status
        assert out.read_bytes() == expected
        assert os.stat(out).st_ino == inode
        expected_lengths.append(len(expected))
    assert expected_lengths[0] < expected_lengths[1] < 100_000


def test_output_to_targets_that_are_not_plain_files(reference_document: Path, tmp_path: Path,
                                                     capsys):
    gen = ["gen", "--seed", REFERENCE_SEED_TEXT, "-o"]
    # a device cannot be cut to length: the write goes through untruncated
    assert main(gen + [os.devnull]) == 0
    assert main(gen + [str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("cannot write output:")

    target = tmp_path / "target.json"
    target.write_bytes(b"#" * 10_000)
    inode = os.stat(target).st_ino
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(gen + [str(link)]) == 0
    assert link.is_symlink()
    assert _sha256(target) == REFERENCE_DOCUMENT
    assert os.stat(target).st_ino == inode


def test_fuzz_exit_codes(tmp_path: Path):
    out = tmp_path / "campaign.json"
    assert main(["fuzz", "--count", "5", "--rng-seed", "42", "--max-num", "12",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["verified"] == 5 and doc["summary"]["fail"] == 0
    # an exhausted retry budget exits 2
    assert main(["fuzz", "--count", "1", "--rng-seed", "1", "--max-num", "2",
                 "--max-retries", "5", "-o", str(out)]) == 2
    # magnitude 1 cannot produce five distinct parameters: refused at once
    assert main(["fuzz", "--count", "1", "--rng-seed", "1", "--max-num", "1",
                 "--max-retries", "5", "-o", str(out)]) == 3
    assert main(["fuzz", "--count", "0", "--rng-seed", "1", "--max-num", "5",
                 "-o", str(out)]) == 3


def test_a_failing_campaign_exits_1_and_names_each_failed_check(tmp_path: Path, monkeypatch,
                                                               capsys):
    # every built configuration passes: verify each one with A moved by +3 in x
    monkeypatch.setattr(fuzz, "verify_all", lambda config: verify_all(
        mutate_configuration(config, "point", "A", "x", 3)))
    out = tmp_path / "campaign.json"
    assert main(["fuzz", "--count", "2", "--rng-seed", "42", "--max-num", "12",
                 "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    order = {name: n for n, name in enumerate(check_names())}
    fails = Counter()
    for entry in doc["seeds"]:
        for key in ("failedChecks", "degenerateChecks"):
            names = entry.get(key, [])
            assert names == sorted(names, key=order.__getitem__)
        assert entry["fail"] == len(entry["failedChecks"])
        fails.update(entry["failedChecks"])
    assert {name: tally["fail"] for name, tally in doc["perCheck"].items()
            if tally["fail"]} == fails
    assert doc["summary"]["fail"] == sum(fails.values()) == 46


def test_fuzz_campaign_bytes_are_deterministic(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fuzz", "--count", "10", "--rng-seed", "11", "--max-num", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_cli(reference_document: Path, tmp_path: Path):
    out = tmp_path / "figure.svg"
    assert main(["render", str(reference_document), "-o", str(out)]) == 0
    svg = out.read_text()
    assert 'cx="0.500000" cy="1.500000" r="1.581139"' in svg

    points_only = tmp_path / "points.svg"
    assert main(["render", str(reference_document), "-o", str(points_only),
                 "--layers", "points"]) == 0
    assert "<circle" not in points_only.read_text()

    assert main(["render", str(reference_document), "-o", str(out),
                 "--layers", "bogus"]) == 3
    assert main(["render", str(tmp_path / "missing.json"), "-o", str(out)]) == 3
    huge = _document_with_huge_literal(reference_document, tmp_path / "huge.json")
    assert main(["render", str(huge), "-o", str(out)]) == 3
    assert main(["render", str(reference_document), "-o", str(out),
                 "--size", "1" + "0" * 400]) == 3  # past the double range


def test_usage_errors_map_to_format_exit(capsys):
    assert main(["bogus-command"]) == 3
    assert main(["fuzz", "--count", "notanint", "--rng-seed", "1", "--max-num", "2"]) == 3
    assert main(["--help"]) == 0


# legal coordinates that do not fit in a double: 10**3999, its inverse, and a
# ratio of two 4000-digit integers whose value (about 10) does fit
OUT_OF_RANGE_COORDINATES = {
    "huge": str(10 ** 3999),
    "tiny": f"1/{10 ** 3999}",
    "ratio": f"{10 ** 4000 + 3}/{10 ** 3999}",
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_COORDINATES))
def test_coordinates_past_the_double_range(name: str, reference_document: Path,
                                           tmp_path: Path, capsys):
    doc = json.loads(reference_document.read_text())
    doc["points"]["1"][0] = OUT_OF_RANGE_COORDINATES[name]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))

    # the point left its place, so the exact checks fail; the floats do not matter
    assert main(["verify", str(moved), "--report", str(tmp_path / "report.json")]) == 1
    assert "FAIL" in capsys.readouterr().err

    svg = tmp_path / "figure.svg"
    if name == "huge":  # point 1 is drawn, and 10**3999 is past the double range
        assert main(["render", str(moved), "-o", str(svg)]) == 3
        assert "cannot render" in capsys.readouterr().err
    else:
        assert main(["render", str(moved), "-o", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")


def _source_env() -> dict:
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parser_is_built_once(reference_document: Path, tmp_path: Path, monkeypatch, capsys):
    assert main(["--help"]) == 0  # warm-up: builds the parser if no earlier call did
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["gen", "--seed", REFERENCE_SEED_TEXT, "-o", str(tmp_path / "a.json")]) == 0
    assert main(["verify", str(reference_document), "--report", str(tmp_path / "r.json")]) == 0
    assert main(["render", str(reference_document), "-o", str(tmp_path / "f.svg")]) == 0
    assert main(["fuzz", "--count", "1", "--rng-seed", "3", "--max-num", "12",
                 "-o", str(tmp_path / "c.json")]) == 0
    assert main(["bogus-command"]) == 3
    assert main(["--help"]) == 0
    assert built == []


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1)\n"
             "import wooddesargues.cli\n"
             "print(len(built))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=_source_env(), capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_the_package_exports_its_pinned_names():
    # the 17 supported names README's "Library use" lists: a name that joins
    # or leaves them changes the Python API, so it is made here on purpose
    import wooddesargues
    assert wooddesargues.__all__ == [
        "INFINITY", "Circle", "Line", "Point", "Similarity", "point",
        "ConfigurationSeed", "DegenerateSeedError", "WoodDesarguesConfiguration",
        "build_configuration",
        "CheckResult", "VerificationReport", "check_names", "float_cross_residuals", "verify_all",
        "FuzzPolicy", "run_campaign",
    ]
    assert all(hasattr(wooddesargues, name) for name in wooddesargues.__all__)
    # and nothing else: besides its submodules the package binds no public name
    assert {name for name, value in vars(wooddesargues).items() if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == set(wooddesargues.__all__)


def test_render_options_do_not_carry_over(reference_document: Path, tmp_path: Path):
    out = tmp_path / "figure.svg"
    assert main(["render", str(reference_document), "-o", str(out),
                 "--size", "400", "--layers", "points"]) == 0
    assert _sha256(out) != REFERENCE_SVG
    assert main(["render", str(reference_document), "-o", str(out)]) == 0
    assert _sha256(out) == REFERENCE_SVG


def test_usage_error_does_not_carry_over(tmp_path: Path, capsys):
    out = tmp_path / "config.json"
    assert main(["gen", "-o", str(out)]) == 3  # --seed is required
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen", "--seed", REFERENCE_SEED_TEXT, "-o", str(out)]) == 0
    assert _sha256(out) == REFERENCE_DOCUMENT


def test_fuzz_retry_budget_does_not_carry_over(tmp_path: Path):
    out = tmp_path / "campaign.json"
    args = ["fuzz", "--count", "1", "--rng-seed", "42", "--max-num", "12", "-o", str(out)]
    assert main(args + ["--max-retries", "5"]) == 0
    assert json.loads(out.read_text())["policy"]["maxRetries"] == 5
    assert main(args) == 0
    assert json.loads(out.read_text())["policy"]["maxRetries"] == 1000


def test_module_entry_point_in_a_process(tmp_path: Path):
    env = _source_env()

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "wooddesargues.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    assert run("gen", "--seed", REFERENCE_SEED_TEXT, "-o", "config.json").returncode == 0
    assert run("verify", "config.json", "--report", "report.json").returncode == 0
    assert run("render", "config.json", "-o", "figure.svg").returncode == 0
    assert _sha256(tmp_path / "config.json") == REFERENCE_DOCUMENT
    assert _sha256(tmp_path / "report.json") == REFERENCE_REPORT
    assert _sha256(tmp_path / "figure.svg") == REFERENCE_SVG

    doc = json.loads((tmp_path / "config.json").read_text())
    doc["points"]["C"] = ["0/1", "0/1"]
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    tampered = run("verify", "tampered.json", "--report", "tampered-report.json")
    assert tampered.returncode == 1
    assert "FAIL" in tampered.stderr
