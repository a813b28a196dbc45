"""Closed-loop benchmark of the wooddesargues engine, single process, stdlib only.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call starts when the previous one returns.  A workload's inputs are
ROUND_SEEDS configuration seeds drawn from ``--seed``; one pass over them is a
round, and rounds repeat while another fits in ``--seconds``.

* ``campaign-small``: one ``fuzz.run_campaign`` call per input, max magnitude
  12, retry budget 1000.  Small coordinates, about one draw in ten rejected:
  per-operation ``Fraction`` overhead, the derive stages and the checks
  dominate.
* ``campaign-wide``: the same at max magnitude 10**12.  Coordinates of a few
  hundred bits, almost no rejections: big-integer multiplication dominates,
  so a kernel that lets coefficients grow shows here.
* ``documents``: ``cli.main`` runs ``gen``, ``verify`` and ``render`` for each
  input's configuration document; one in four documents is tampered.  The
  only workload that parses and formats documents, renders SVG, runs
  argparse and file I/O, and takes the verifier's failing path.

Times are host-scaled (see ``HostClock``): the host's speed swings by up to
a half, so every time is scaled by a calibration loop timed next to it, and
an input's time is its median over rounds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of ``tracing.py``, from fixed passes over the first
TRACE_SEEDS inputs whose exact counts must repeat.  The line before the
result holds the run record: interpreter, cores, revision, seed, output
digests, and for ``documents`` the latency of each command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import types
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "wooddesargues"
MODULES = ("kernel", "configuration", "verifier", "fuzz", "serialize", "render", "cli")

SETUP_REPEATS = 5
ROUND_SEEDS = 80           # inputs per round; documents: 20 tampered, two per point
TRACE_SEEDS = 40           # inputs per traced pass; documents: one tampered per point
CAMPAIGN_RETRIES = 1000
DOC_MAGNITUDE = 100
COMMANDS = ("gen", "verify", "render")
# calibration operands (bound, terms): each slice takes about REFERENCE_SLICE_S
SMALL_OPERANDS = (10 ** 6, 32)
BIG_OPERANDS = (10 ** 40, 14)
CALIBRATION_WINDOW = 8     # slices whose median scales a time
REFERENCE_SLICE_S = 5e-4   # slice time of the reference host
REFERENCE_SEED = (0, 1, -1, 2, 3, Fraction(-3, 2))
RESIDUAL_LIMIT = 1e-6


def fresh_import():
    """Import the package from source, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and those whose outcome differed from the expected one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


@contextlib.contextmanager
def request(tracer, kind: str):
    """Group the spans of one call into a request of the given kind."""
    if tracer is None:
        yield
        return
    tracer.begin(kind)
    try:
        yield
    finally:
        tracer.end()


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 95th percentile."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=20, method="inclusive")[18]


# ---------------------------------------------------------------------------
# workloads: setup draws the inputs, run_input times one, gate checks outputs


class Campaign:
    op_kinds = {"campaign"}

    def __init__(self, magnitude: int, calibration: tuple[int, int]):
        self.magnitude = magnitude
        self.calibration = calibration

    def setup(self, pkg, seed: int, work: Path) -> None:
        self.pkg = pkg
        rng = random.Random(seed)
        self.rng_seeds = [rng.getrandbits(64) for _ in range(ROUND_SEEDS)]
        self.digests: dict[int, str] = {}

    def run_input(self, k: int, tally: Tally, tracer=None) -> dict[str, float] | None:
        """A single-seed campaign; its seconds if it verified without failure."""
        fuzz = self.pkg.fuzz
        policy = fuzz.FuzzPolicy(count=1, rng_seed=self.rng_seeds[k],
                                 max_magnitude=self.magnitude, max_retries=CAMPAIGN_RETRIES)
        tally.attempted += 1
        with request(tracer, "campaign"):
            t0 = perf_counter()
            try:
                outcome = fuzz.run_campaign(policy)
            except Exception as exc:  # any raise is a wrong outcome
                tally.fail(f"campaign {k}: {exc!r}")
                return None
            elapsed = perf_counter() - t0
        document = outcome.to_document()
        summary = document["summary"]
        if summary["verified"] != 1 or summary["fail"] != 0:
            tally.fail(f"campaign {k}: {summary}")
            return None
        if k not in self.digests:
            self.digests[k] = sha256(self.pkg.serialize.dumps(document))
        return {"campaign": elapsed}

    def gate(self, tally: Tally, seeds: int, tracer=None) -> None:
        """Campaign outcomes are checked as they return."""

    def record(self) -> dict:
        return {"campaign_sha256": [self.digests[k] for k in sorted(self.digests)]}


class Documents:
    op_kinds = set(COMMANDS)
    calibration = SMALL_OPERANDS

    def setup(self, pkg, seed: int, work: Path) -> None:
        """Draw the seeds, write every document, tamper with every fourth."""
        self.pkg = pkg
        cfg_mod, ser = pkg.configuration, pkg.serialize
        labels = cfg_mod.POINT_LABELS
        rng = random.Random(seed)
        self.pool = []
        while len(self.pool) < ROUND_SEEDS:
            values = [Fraction(rng.randint(-DOC_MAGNITUDE, DOC_MAGNITUDE),
                               rng.randint(1, DOC_MAGNITUDE)) for _ in range(6)]
            try:
                config = cfg_mod.build_configuration(cfg_mod.ConfigurationSeed(*values))
            except cfg_mod.DegenerateSeedError:
                continue
            i = len(self.pool)
            clean = ser.dumps(ser.configuration_to_document(config))
            tampered = i % 4 == 3
            text = clean
            if tampered:
                doc = json.loads(clean)
                point = doc["points"][labels[(i // 4) % len(labels)]]
                x = Fraction(point[0]) + Fraction(1, rng.randint(50, 1000))
                point[0] = f"{x.numerator}/{x.denominator}"
                text = ser.dumps(doc)
            path = work / f"doc{i}.json"
            path.write_text(text, encoding="utf-8")
            seed_text = ",".join(f"{k}={v.numerator}/{v.denominator}"
                                 for k, v in zip(("tJ", "tK", "tA", "tB", "tC", "s"), values))
            self.pool.append((seed_text, clean, str(path), tampered))
        self.out = {name: str(work / name) for name in ("gen.json", "report.json", "out.svg")}

    def _op(self, i: int, command: str, tally: Tally, tracer) -> float | None:
        """One CLI call on document i; its seconds if the outcome was the expected one."""
        seed_text, clean, path, tampered = self.pool[i]
        argv, expected = {
            "gen": (["gen", "--seed", seed_text, "-o", self.out["gen.json"]], 0),
            "verify": (["verify", path, "--report", self.out["report.json"]], 1 if tampered else 0),
            "render": (["render", path, "-o", self.out["out.svg"]], 0),
        }[command]
        tally.attempted += 1
        with request(tracer, command):
            t0 = perf_counter()
            try:
                code = self.pkg.cli.main(argv)
            except Exception as exc:  # a raise is a wrong outcome, not a crash of the run
                tally.fail(f"{command} doc{i}: {exc!r}")
                return None
            elapsed = perf_counter() - t0
        problem = None
        if code != expected:
            problem = f"exit {code}, expected {expected}"
        elif command == "gen" and Path(self.out["gen.json"]).read_text(encoding="utf-8") != clean:
            problem = "gen output differs from the document built in setup"
        elif command == "render":
            try:
                ET.parse(self.out["out.svg"])
            except ET.ParseError as exc:
                problem = f"SVG does not parse: {exc}"
        if problem:
            tally.fail(f"{command} doc{i}: {problem}")
            return None
        return elapsed

    def run_input(self, i: int, tally: Tally, tracer=None) -> dict[str, float] | None:
        """gen, verify and render document i; their seconds if every outcome was expected."""
        times = {}
        for command in COMMANDS:
            elapsed = self._op(i, command, tally, tracer)
            if elapsed is None:
                return None
            times[command] = elapsed
        return times

    def gate(self, tally: Tally, seeds: int, tracer=None) -> None:
        """Clean documents reload and verify with a float residual under the limit."""
        ser, ver = self.pkg.serialize, self.pkg.verifier
        for i in range(seeds):
            seed_text, clean, path, tampered = self.pool[i]
            if tampered:
                continue
            with request(tracer, "gate"):
                try:
                    report = ver.verify_all(ser.configuration_from_document(ser.loads(clean)))
                    residual = ver.float_cross_residuals(report)
                except Exception as exc:  # a raise is a wrong outcome, not a crash of the run
                    tally.fail(f"gate doc{i}: {exc!r}")
                    continue
            if report.failed or not residual < RESIDUAL_LIMIT:
                tally.fail(f"gate doc{i}: {len(report.failed)} failed checks, residual {residual}")

    def record(self) -> dict:
        return {"tampered_documents": sum(1 for entry in self.pool if entry[3])}


WORKLOADS = {
    # calibration operands match the size of the workload's coordinates
    "campaign-small": lambda: Campaign(12, SMALL_OPERANDS),
    "campaign-wide": lambda: Campaign(10 ** 12, BIG_OPERANDS),
    "documents": Documents,
}


# ---------------------------------------------------------------------------
# host speed


class HostClock:
    """Scales measured seconds to a reference host speed.

    The host's speed swings by up to a half over seconds to minutes, with the
    same program and inputs.  A fixed loop of stdlib ``Fraction`` arithmetic,
    which shares no code with the package, is timed between inputs; a time
    measured next to loops that ran in ``slice`` seconds is multiplied by
    REFERENCE_SLICE_S / ``slice``, so a change to the package moves the scaled
    time and a change of host speed does not.  The loop's operands are as
    large as the workload's coordinates, since small and big integer
    arithmetic slow down differently.
    """

    def __init__(self, bound: int, terms: int) -> None:
        rng = random.Random(0)
        self.values = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                       for _ in range(terms)]

    def slice(self) -> float:
        """Seconds for one pass of the calibration loop."""
        t0 = perf_counter()
        acc = Fraction(0)
        for a in self.values:
            acc = (acc + a * a) / (1 + a * a)
        return perf_counter() - t0

    @staticmethod
    def factor(slices: list[float]) -> float:
        return REFERENCE_SLICE_S / statistics.median(slices)


def scaled_pass(workload, tally: Tally, seeds: int, clock: HostClock,
                tracer=None) -> tuple[dict[int, dict[str, float]], list[float]]:
    """Run the first ``seeds`` inputs, a calibration slice after each.

    Returns each correct input's times scaled by the median of the CALIBRATION_WINDOW
    slices around it, and every slice.
    """
    raw, slices = {}, []
    for k in range(seeds):
        times = workload.run_input(k, tally, tracer)
        slices.append(clock.slice())
        if times is not None:
            raw[k] = times
    half = CALIBRATION_WINDOW // 2
    scaled = {}
    for k, times in raw.items():
        lo = max(0, min(k - half, len(slices) - CALIBRATION_WINDOW))
        f = clock.factor(slices[lo:lo + CALIBRATION_WINDOW])
        scaled[k] = {label: t * f for label, t in times.items()}
    return scaled, slices


# ---------------------------------------------------------------------------
# runs


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, args, tally: Tally, record: dict) -> dict:
    """Untraced run: set-up time, timed rounds while another fits, then the gate.

    Every time is host-scaled; an input's time is its median over rounds.
    """
    clock = HostClock(*workload.calibration)
    setup_times, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        before = [clock.slice() for _ in range(CALIBRATION_WINDOW // 2)]
        t0 = perf_counter()
        pkg = fresh_import()
        workload.setup(pkg, args.seed, args.work)
        elapsed = perf_counter() - t0
        after = [clock.slice() for _ in range(CALIBRATION_WINDOW // 2)]
        setup_times.append(elapsed * clock.factor(before + after))
        raw_setup.append(elapsed)

    per_input: dict[int, list[float]] = {}
    per_label: dict[tuple[int, str], list[float]] = {}
    all_slices = []
    deadline = perf_counter() + args.seconds
    rounds = 0
    last = 0.0
    with contextlib.redirect_stderr(io.StringIO()):
        while rounds == 0 or perf_counter() + last <= deadline:
            t0 = perf_counter()
            scaled, slices = scaled_pass(workload, tally, ROUND_SEEDS, clock)
            for k, times in scaled.items():
                per_input.setdefault(k, []).append(sum(times.values()))
                for label, t in times.items():
                    per_label.setdefault((k, label), []).append(t)
            all_slices += slices
            last = perf_counter() - t0
            rounds += 1
        workload.gate(tally, ROUND_SEEDS)

    seed_ms = [statistics.median(v) * 1e3 for v in per_input.values()]
    p50, p95 = percentiles(seed_ms)
    labels = sorted({label for _, label in per_label})
    for label in labels:
        lp50, lp95 = percentiles([statistics.median(v) * 1e3
                                  for (k, lab), v in per_label.items() if lab == label])
        record[f"{label}_ms_p50"], record[f"{label}_ms_p95"] = lp50, lp95
    record.update(rounds=rounds, inputs=len(seed_ms), setup_s_raw=raw_setup,
                  calibration_slice_ms_p50=statistics.median(all_slices) * 1e3)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "seeds_per_s": (1e3 * len(seed_ms) / sum(seed_ms) if seed_ms else 0.0, "1/s"),
        "seed_ms_p50": (p50, "ms"),
        "seed_ms_p95": (p95, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - tally.failed / max(tally.attempted, 1), "ratio"),
    }


def fixed_pass(workload, tally: Tally, clock: HostClock, tracer=None) -> tuple[int, float, float]:
    """The first TRACE_SEEDS inputs and their gate: inputs done, scaled busy seconds, factor."""
    scaled, slices = scaled_pass(workload, tally, TRACE_SEEDS, clock, tracer)
    workload.gate(tally, TRACE_SEEDS, tracer)
    busy = sum(t for times in scaled.values() for t in times.values())
    return len(scaled), busy, clock.factor(slices)


def measure_traced(workload, args, tally: Tally, record: dict) -> dict:
    """Alternate untraced and traced fixed passes until time is up, at least two of each.

    Layer times are scaled by the pass's median calibration slice; each is the
    median over traced passes.  Exact counts must agree between passes.
    """
    workload.setup(fresh_import(), args.seed, args.work)
    clock = HostClock(*workload.calibration)
    tracer = tracing.Tracer(PACKAGE)
    untraced, traced, timings = [], [], []
    exact = None
    deadline = perf_counter() + args.seconds
    with contextlib.redirect_stderr(io.StringIO()):
        while len(traced) < 2 or perf_counter() < deadline:
            units, busy, _ = fixed_pass(workload, tally, clock)
            untraced.append(busy / max(units, 1))
            tracer.reset()
            tracer.install()
            try:
                units, busy, factor = fixed_pass(workload, tally, clock, tracer)
            finally:
                tracer.uninstall()
            traced.append(busy / max(units, 1))
            times, counts = tracing.pass_metrics(tracer, units, workload.op_kinds)
            timings.append({name: t * factor for name, t in times.items()})
            if exact is None:
                exact = counts
            elif counts != exact:
                diff = {k: (exact[k], counts[k]) for k in exact if exact[k] != counts[k]}
                raise SystemExit(f"traced passes disagree on exact counts: {diff}")
    tracer.reset()
    metrics = {name: (statistics.median(t[name] for t in timings), "ms") for name in timings[0]}
    for name, value in exact.items():
        metrics[name] = (value, tracing.EXACT_UNITS.get(name, "count"))
    overhead = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    metrics["trace.overhead_ms_per_seed"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (100 * overhead / (statistics.median(untraced) * 1e3), "%")
    absent = tracer.absent_metrics()
    for name in absent:
        metrics[name] = (None, metrics[name][1])
    record.update(traced_passes=len(traced), absent_metrics=absent,
                  absent_functions=sorted(tracer.absent))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the kernel's cross-check asserts: a weaker program than users run
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "optimize": sys.flags.optimize,
    }
    tally = Tally()
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        args.work = Path(work)
        if args.trace:
            metrics = measure_traced(workload, args, tally, record)
        else:
            metrics = measure(workload, args, tally, record)
    pkg = fresh_import()
    seed = pkg.configuration.ConfigurationSeed(*(Fraction(v) for v in REFERENCE_SEED))
    report = pkg.verifier.verify_all(pkg.configuration.build_configuration(seed))
    record["reference_report_sha256"] = sha256(
        pkg.serialize.dumps(pkg.serialize.report_to_document(report)))
    record.update(workload.record())
    record["error_rate"] = tally.failed / max(tally.attempted, 1)
    record["failures"] = tally.notes
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
