"""In-memory span tracer that wraps the package's public functions from outside.

Modules bind kernel and layer functions with ``from .x import name``, so one
function object can sit under its name in several modules.  ``Tracer.install``
replaces every such binding with a wrapper that records a span (name, parent
span, start, end, request, raised) and keeps the return value for the names
whose results feed a count.  ``Tracer.uninstall`` restores the originals.

A traced name that the package no longer defines is skipped and listed in
``Tracer.absent``; the metrics built from it are then reported as absent
(``None``) rather than failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs traced; the module name is the layer.
KERNEL_CALLS = (
    "line_through", "meet", "circle_through", "orthocentre",
    "perpendicular_bisector", "second_intersection_with_line",
    "second_intersection_of_circles", "collinearity_residual",
    "concyclicity_determinant",
)
# the other public kernel functions, traced so kernel self time is complete
KERNEL_OTHER = (
    "point_on_unit_circle", "midpoint", "distance_squared", "perpendicular_at",
    "parallel_through", "is_collinear", "circumcenter", "radical_axis",
    "antipode", "tangent_at", "is_concyclic", "incident", "similarity_between",
)
CONFIGURATION = ("build_configuration", "derive_figures", "derive_orthocentres",
                 "derive_hagge_centres", "derive_pentagon")
FUZZ = ("run_campaign", "draw_seed")
VERIFIER_FAMILIES = {
    "perspective": ("check_perspective",),
    "five_circles": ("check_five_circles",),
    "core_similarity": ("check_core_similarity",),
    "orthocentre_quadrangle": ("check_orthocentre_quadrangle",),
    "steiner_line": ("check_steiner_line",),
    "pentagon_perspectives": ("check_pentagon_perspectives",),
    "pentagon_quadrangles": ("check_pentagon_quadrangles",),
    "tangent_concurrency": ("check_tangent_concurrency",),
    "hagge_suite": ("check_hagge",),
    "perpendicular_concurrency": ("check_perpendicular_concurrency_instance",
                                  "check_perpendicular_concurrency"),
    "three_circle_collinearity": ("check_three_circle_collinearity_instance",
                                  "check_three_circle_collinearity"),
}
VERIFIER = ("verify_all", "float_cross_residuals") + tuple(
    fn for names in VERIFIER_FAMILIES.values() for fn in names)
SERIALIZE_TIMED = ("configuration_from_document", "configuration_to_document",
                   "report_to_document", "dumps", "parse_seed_text")
# loads is traced so that JSON parsing counts as serialize time, not cli time
SERIALIZE = SERIALIZE_TIMED + ("loads",)
CLI_COMMANDS = ("gen", "verify", "render")

TRACED = (
    [("kernel", fn) for fn in KERNEL_CALLS + KERNEL_OTHER]
    + [("configuration", fn) for fn in CONFIGURATION]
    + [("fuzz", fn) for fn in FUZZ]
    + [("verifier", fn) for fn in VERIFIER]
    + [("serialize", fn) for fn in SERIALIZE]
    + [("render", "render_svg"), ("cli", "main")]
)

# names whose return value (or first argument, for cli.main) is kept for counts
_KEEP_RESULT = {"verifier.verify_all", "serialize.dumps", "render.render_svg"}

# units of the exact counts that are not plain counts
EXACT_UNITS = {
    "kernel.coord_bits_p50": "bits",
    "kernel.coord_bits_max": "bits",
    "fuzz.accept_ratio": "ratio",
    "serialize.bytes_out": "bytes",
    "render.svg_bytes": "bytes",
}

# span fields
NAME, PARENT, START, END, REQUEST, RAISED, RESULT = range(7)


class Tracer:
    """Records spans of the wrapped functions; one instance per package import."""

    def __init__(self, package: str = "wooddesargues"):
        self.package = package
        self.spans: list[list] = []
        self.requests: list[str] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for layer, fn_name in TRACED:
            home = sys.modules.get(f"{self.package}.{layer}")
            original = getattr(home, fn_name, None)
            if original is None or not callable(original):
                self.absent.add(f"{layer}.{fn_name}")
                continue
            wrapper = self._wrap(original, f"{layer}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def absent_metrics(self) -> list[str]:
        """Metrics none of whose traced names the installed package defines."""
        return sorted(name for name, sources in metric_sources().items()
                      if all(s in self.absent for s in sources))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, tracer = self.spans, self._stack, self
        keep_result = name in _KEEP_RESULT
        keep_points = name.startswith("kernel.")
        keep_argv = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    tracer._request, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep_result or keep_points:
                span[RESULT] = result
            elif keep_argv:
                span[RESULT] = args[0] if args else kwargs.get("argv")
            return result

        return traced

    # -- requests ----------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Start a request: spans recorded until ``end`` belong to it."""
        self.requests.append(kind)
        self._request = len(self.requests) - 1

    def end(self) -> None:
        self._request = -1

    def reset(self) -> None:
        self.spans.clear()
        self.requests.clear()
        self._request = -1


# ---------------------------------------------------------------------------
# metrics from one traced pass


def _point_bits(value, out: Counter) -> None:
    """Count max(|numerator|, denominator) bit lengths of every point coordinate."""
    x = getattr(value, "x", None)
    if x is not None and hasattr(value, "y"):
        for c in (x, value.y):
            out[max(abs(c.numerator).bit_length(), c.denominator.bit_length())] += 1
        return
    center = getattr(value, "center", None)
    if center is not None:
        _point_bits(center, out)
        return
    if isinstance(value, tuple):
        for item in value:
            _point_bits(item, out)


def _median_from_histogram(hist: Counter) -> int:
    total = sum(hist.values())
    if total == 0:
        return 0
    seen = 0
    for bits in sorted(hist):
        seen += hist[bits]
        if 2 * seen >= total:
            return bits
    raise AssertionError("unreachable")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, units: int, op_kinds: set[str]) -> tuple[dict, dict]:
    """Per-layer timings (ms) and exact counts of one traced pass.

    ``units`` is the number of seeds (campaigns) or documents the pass
    processed; spans under requests of a kind outside ``op_kinds`` (the
    correctness gate) feed only ``verifier.float_cross_residuals_ms``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    op_requests = {i for i, kind in enumerate(tracer.requests) if kind in op_kinds}

    calls: Counter = Counter()
    dur: Counter = Counter()
    self_ms: Counter = Counter()
    layer_self: Counter = Counter()
    family_ms: Counter = Counter()
    cli_self: Counter = Counter()
    cli_calls: Counter = Counter()
    bits: Counter = Counter()
    counts: Counter = Counter()
    residual_ms = residual_calls = 0.0
    family_of = {f"verifier.{fn}": fam
                 for fam, names in VERIFIER_FAMILIES.items() for fn in names}

    for i, s in enumerate(spans):
        name = s[NAME]
        d = (s[END] - s[START]) * 1e3
        if name == "verifier.float_cross_residuals":
            residual_ms += d
            residual_calls += 1
        if s[REQUEST] not in op_requests:
            continue
        own = d - child[i] * 1e3
        calls[name] += 1
        dur[name] += d
        self_ms[name] += own
        layer_self[name.split(".")[0]] += own
        fam = family_of.get(name)
        if fam is not None and family_of.get(
                spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None) != fam:
            family_ms[fam] += d
        result = s[RESULT]
        if name.startswith("kernel."):
            _point_bits(result, bits)
        elif name == "configuration.build_configuration":
            if s[RAISED]:
                counts["build_rejected"] += 1
                dur["build_rejected"] += d
            else:
                counts["build_accepted"] += 1
                dur["build_accepted"] += d
        elif name == "verifier.verify_all":
            counts["claims"] += sum(len(r.claims) for r in result.results)
        elif name == "serialize.dumps":
            counts["bytes_out"] += len(result.encode("utf-8"))
        elif name == "render.render_svg":
            counts["svg_bytes"] += len(result.encode("utf-8"))
        elif name == "cli.main":
            command = result[0] if result else "?"
            cli_self[command] += own
            cli_calls[command] += 1

    n_verify = calls["verifier.verify_all"]
    draws = calls["fuzz.draw_seed"]

    def mean(name):
        return _ratio(dur[name], calls[name])

    times = {
        "kernel.self_ms_per_seed": _ratio(layer_self["kernel"], units),
        "configuration.build_ms": _ratio(dur["build_accepted"], counts["build_accepted"]),
        "configuration.reject_ms_per_seed": _ratio(dur["build_rejected"], units),
        "configuration.derive_orthocentres_ms": mean("configuration.derive_orthocentres"),
        "configuration.derive_hagge_centres_ms": mean("configuration.derive_hagge_centres"),
        "configuration.derive_pentagon_ms": mean("configuration.derive_pentagon"),
        "fuzz.self_ms_per_seed": _ratio(layer_self["fuzz"], units),
        "verifier.verify_all_self_ms": _ratio(self_ms["verifier.verify_all"], n_verify),
        "verifier.float_cross_residuals_ms": _ratio(residual_ms, residual_calls),
        # self time: the derive stages it may run count under configuration
        "render.render_svg_ms": _ratio(self_ms["render.render_svg"], calls["render.render_svg"]),
    }
    for fam in VERIFIER_FAMILIES:
        times[f"verifier.{fam}_ms"] = _ratio(family_ms[fam], n_verify)
    for fn in SERIALIZE_TIMED:
        times[f"serialize.{fn}_ms"] = mean(f"serialize.{fn}")
    for command in CLI_COMMANDS:
        times[f"cli.main_self_ms.{command}"] = _ratio(cli_self[command], cli_calls[command])

    exact = {f"kernel.calls.{fn}": calls[f"kernel.{fn}"] for fn in KERNEL_CALLS}
    exact.update({
        "kernel.coord_bits_p50": _median_from_histogram(bits),
        "kernel.coord_bits_max": max(bits) if bits else 0,
        "fuzz.draws": draws,
        # builds happen in campaigns only through the fuzz layer
        "fuzz.accept_ratio": _ratio(counts["build_accepted"], draws),
        "verifier.claims_per_seed": _ratio(counts["claims"], n_verify),
        "serialize.bytes_out": counts["bytes_out"],
        "render.svg_bytes": counts["svg_bytes"],
    })
    return times, exact


def metric_sources() -> dict[str, tuple[str, ...]]:
    """Metric name -> the traced names it is built from."""
    src = {
        "kernel.self_ms_per_seed": tuple(f"kernel.{fn}" for fn in KERNEL_CALLS + KERNEL_OTHER),
        "kernel.coord_bits_p50": tuple(f"kernel.{fn}" for fn in KERNEL_CALLS + KERNEL_OTHER),
        "kernel.coord_bits_max": tuple(f"kernel.{fn}" for fn in KERNEL_CALLS + KERNEL_OTHER),
        "configuration.build_ms": ("configuration.build_configuration",),
        "configuration.reject_ms_per_seed": ("configuration.build_configuration",),
        "configuration.derive_orthocentres_ms": ("configuration.derive_orthocentres",),
        "configuration.derive_hagge_centres_ms": ("configuration.derive_hagge_centres",),
        "configuration.derive_pentagon_ms": ("configuration.derive_pentagon",),
        "fuzz.draws": ("fuzz.draw_seed",),
        "fuzz.accept_ratio": ("fuzz.draw_seed",),
        "fuzz.self_ms_per_seed": tuple(f"fuzz.{fn}" for fn in FUZZ),
        "verifier.verify_all_self_ms": ("verifier.verify_all",),
        "verifier.claims_per_seed": ("verifier.verify_all",),
        "verifier.float_cross_residuals_ms": ("verifier.float_cross_residuals",),
        "serialize.bytes_out": ("serialize.dumps",),
        "render.render_svg_ms": ("render.render_svg",),
        "render.svg_bytes": ("render.render_svg",),
    }
    for fn in KERNEL_CALLS:
        src[f"kernel.calls.{fn}"] = (f"kernel.{fn}",)
    for fam, names in VERIFIER_FAMILIES.items():
        src[f"verifier.{fam}_ms"] = tuple(f"verifier.{fn}" for fn in names)
    for fn in SERIALIZE_TIMED:
        src[f"serialize.{fn}_ms"] = (f"serialize.{fn}",)
    for command in CLI_COMMANDS:
        src[f"cli.main_self_ms.{command}"] = ("cli.main",)
    return src
