"""Spans around the calls into abcyl's layers, recorded from outside.

install() wraps the public functions of each abcyl module and re-binds
every name that other abcyl modules imported (for example
abcyl.fermi.enumerate_fermi_sea), so calls are caught whichever module
makes them.  Hot per-mode scalars (chi, j_coeff, energy_finite,
mode_components, ...) are left unwrapped: wrapping them would cost more
than they do, so their counts are derived from N_e and grid sizes.

Spans stay in memory; the replay process hands them to the benchmark
at the end.  A span is (id, name, start, end, parent id, request id,
attrs).
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
from collections import defaultdict

# layer (= abcyl module) -> public functions whose calls are spanned
TARGETS = {
    "params": ("resolve_params", "parse_config_text", "validate_regime",
               "to_dimensionless"),
    "spectrum": ("enumerate_fermi_sea",),
    "fermi": ("persistent_exact", "persistent_linearized", "persistent_compact",
              "persistent_short", "persistent_nonrel", "persistent_all",
              "c_coefficient_exact", "c_compact", "sum_lambda_n"),
    "currents": ("packet_grid", "packet_zprofile", "check_resolution",
                 "longitudinal_current_packet_direct",
                 "longitudinal_current_packet_formula", "packet_norm",
                 "circular_current_packet", "packet_energy",
                 "packet_polarization", "packet_total_flux",
                 "packet_velocity_expectation", "circular_current_mode",
                 "circular_current_mode_quadrature"),
    "spinors": ("inner_product", "dirac_residual", "eval_mode",
                "k_operator_apply", "current_density", "apply_restricted_dirac",
                "field_inner_product"),
    "verify": ("run_suites", "suite_clifford", "suite_orthonormality",
               "suite_dirac_residual", "suite_k_operator",
               "suite_circular_current", "suite_derivative_identity",
               "suite_saturation", "suite_beta_expansion", "suite_ladder",
               "suite_appendix_b", "suite_boundary", "suite_hermiticity"),
    "cli": ("main", "build_parser", "_gather_params", "_emit", "cmd_spectrum",
            "cmd_persistent", "cmd_packet", "cmd_sweep", "cmd_verify"),
}

# SuiteResult.suite names, in abcyl.verify.ALL_SUITES order
SUITES = ("clifford", "orthonormality", "dirac_residual", "k_operator",
          "circular_current", "derivative_identity", "saturation",
          "beta_expansion", "persistent_ladder", "appendix_b",
          "boundary_behavior", "hermiticity")

COMPLEX_BYTES = 16


def _scan_size(d) -> int:
    """(n, lambda) pairs the Fermi-sea scan tests: two signs per half-odd
    lambda up to alpha+|beta|+1, in every column n with nu n <= alpha."""
    lam_max = d.alpha + abs(d.beta) + 1.0
    per_column = 2 * (math.floor(lam_max - 0.5) + 1) if lam_max >= 0.5 else 0
    columns = sum(1 for n in range(1, math.ceil(d.alpha / d.nu) + 2)
                  if d.alpha**2 - (d.nu * n) ** 2 >= 0.0)
    return columns * per_column


def _korder(args) -> int:
    rule = args.get("rule")
    return rule.order if rule is not None else 400  # MomentumRule's default


def _nz(z) -> int:
    return len(z) if hasattr(z, "__len__") else 1


def _sea_attrs(args, out):
    return {"scanned": _scan_size(args["d"]),
            "occupied": out.N_e}


def _formula_attrs(args, out):
    nz, nk = _nz(args["z"]), _korder(args)
    return {"kernel_elems": nz * nk * nk,
            "phase_bytes": nz * nk * nk * COMPLEX_BYTES}


def _zprofile_attrs(args, out):
    return {"phase_bytes": _nz(args["z"]) * _korder(args) * COMPLEX_BYTES}


def _suite_attrs(args, out):
    return {"suite": out.suite, "margin": out.worst / out.tolerance}


# span name -> attrs(bound arguments, return value): sizes of hot inner work
ATTRS = {
    "spectrum.enumerate_fermi_sea": _sea_attrs,
    "fermi.persistent_exact": lambda args, out: {"chi_evals": out.N_e},
    "currents.longitudinal_current_packet_formula": _formula_attrs,
    "currents.packet_zprofile": _zprofile_attrs,
    **{f"verify.{fn}": _suite_attrs for fn in TARGETS["verify"]
       if fn.startswith("suite_")},
}


class Recorder:
    """In-memory span store with the stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.request = None

    def span(self, name: str, fn, args, kwargs, attrs=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        extra = {}
        if attrs is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            extra = attrs(bound.arguments, out)
        self.spans.append((sid, name, start, end, parent, self.request, extra))
        return out


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in TARGETS; returns the targets not found."""
    import abcyl.cli  # noqa: F401  (loads cli and verify with the package)

    wrapped = {}
    missing = []
    for layer, names in TARGETS.items():
        module = sys.modules[f"abcyl.{layer}"]
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            if not inspect.isfunction(fn):
                missing.append(f"{layer}.{fn_name}")
                continue
            name = f"{layer}.{fn_name}"

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                return recorder.span(_name, _fn, args, kwargs, ATTRS.get(_name))

            wrapped[fn] = functools.update_wrapper(wrapper, fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "abcyl" and not mod_name.startswith("abcyl."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
            elif isinstance(value, tuple) and any(
                    inspect.isfunction(v) and v in wrapped for v in value):
                setattr(module, attr, tuple(wrapped.get(v, v) for v in value))
    return missing


# --- analysis ---------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _name, start, end, _parent, _req, _attrs in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_cumulative(stderr: str, packages) -> dict[str, float]:
    """Seconds spent importing each package, from `python -X importtime`.

    A package's time is the summed cumulative time of its outermost
    entries, those not nested inside another entry of the same package.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    totals = dict.fromkeys(packages, 0)
    open_entries: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, each
    # entry's ancestors are the open entries at lower levels
    for level, name, cumulative in reversed(entries):
        while open_entries and open_entries[-1][0] >= level:
            open_entries.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in open_entries):
            totals[top] += cumulative
        open_entries.append((level, name))
    return {p: us * 1e-6 for p, us in totals.items()}


# --- per-layer metrics --------------------------------------------------------

def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SHARES = ("spectrum.enumerate_fermi_sea", "fermi.persistent_exact",
          "fermi.persistent_linearized", "fermi.persistent_compact",
          "fermi.persistent_short", "fermi.persistent_nonrel",
          "currents.packet_grid", "currents.packet_zprofile",
          "currents.longitudinal_current_packet_direct",
          "currents.longitudinal_current_packet_formula",
          "currents.packet_norm", "spinors.inner_product")


def layer_metrics(spans, commands: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay: name -> (value, unit).

    Shares are self time (or total time, for persistent_all) as a
    percentage of the traced requests' wall time; `commands` gives each
    request's CLI command, by request id.
    """
    self_s = self_times(spans)
    wall = sum(s[3] - s[2] for s in spans if s[1] == "request")
    n_req = len(commands)
    n_persistent = commands.count("persistent")
    n_packet = commands.count("packet")
    by_name = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0,
                                   "in_persistent": 0, "in_packet": 0})
    by_layer = defaultdict(float)
    attrs = defaultdict(float)
    suite_self = dict.fromkeys(SUITES, 0.0)
    margin = dict.fromkeys(SUITES, 0.0)
    for s in spans:
        sid, name, start, end, _parent, req, extra = s
        agg = by_name[name]
        agg["calls"] += 1
        agg["self"] += self_s[sid]
        agg["total"] += end - start
        command = commands[req] if req is not None else None
        agg["in_persistent"] += command == "persistent"
        agg["in_packet"] += command == "packet"
        by_layer[name.split(".")[0]] += self_s[sid]
        if "suite" in extra:
            suite_self[extra["suite"]] += self_s[sid]
            margin[extra["suite"]] = max(margin[extra["suite"]], extra["margin"])
        else:
            for key, value in extra.items():
                attrs[key] += value
    out = {"cli.self_s": (_ratio(by_layer["cli"], n_req), "s")}
    for layer in TARGETS:
        out[f"{layer}.self_pct"] = (_pct(by_layer[layer], wall), "%")
    for name in SHARES:
        out[f"{name}.self_pct"] = (_pct(by_name[name]["self"], wall), "%")
    out["fermi.persistent_all.total_pct"] = (
        _pct(by_name["fermi.persistent_all"]["total"], wall), "%")
    for suite in SUITES:
        out[f"verify.{suite}.self_pct"] = (_pct(suite_self[suite], wall), "%")
    sea = by_name["spectrum.enumerate_fermi_sea"]
    out.update({
        "params.validate_regime.calls_per_persistent": (_ratio(
            by_name["params.validate_regime"]["in_persistent"], n_persistent),
            "count"),
        "spectrum.enumerate_fermi_sea.calls_per_request": (
            _ratio(sea["calls"], n_req), "count"),
        "spectrum.sea_builds_per_persistent": (
            _ratio(sea["in_persistent"], n_persistent), "count"),
        "spectrum.states_scanned_per_request": (
            _ratio(attrs["scanned"], n_req), "count"),
        "spectrum.states_occupied_per_request": (
            _ratio(attrs["occupied"], n_req), "count"),
        "spectrum.scan_useful_ratio": (
            _ratio(attrs["occupied"], attrs["scanned"]), "ratio"),
        "fermi.chi_evals_per_request": (_ratio(attrs["chi_evals"], n_req), "count"),
        "currents.packet_grid.calls_per_request": (
            _ratio(by_name["currents.packet_grid"]["calls"], n_req), "count"),
        "currents.grid_reuse_ratio": (_ratio(
            n_packet, by_name["currents.packet_grid"]["in_packet"]), "ratio"),
        "currents.formula_kernel_elems_per_request": (
            _ratio(attrs["kernel_elems"], n_req), "count"),
        "currents.phase_matrix_bytes_computed_per_request": (
            _ratio(attrs["phase_bytes"], n_req), "B"),
        "spinors.inner_product.calls_per_request": (
            _ratio(by_name["spinors.inner_product"]["calls"], n_req), "count"),
    })
    for suite in SUITES:
        out[f"verify.{suite}.margin"] = (margin[suite], "ratio")
    return out


def span_summary(spans) -> dict[str, dict[str, float]]:
    """Span name -> calls, self seconds and total seconds."""
    self_s = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        agg = out[s[1]]
        agg["calls"] += 1
        agg["self_s"] += self_s[s[0]]
        agg["total_s"] += s[3] - s[2]
    return dict(out)
