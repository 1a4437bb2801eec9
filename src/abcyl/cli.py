"""Command-line interface.

Commands: spectrum | persistent | packet | sweep | verify.

Data goes to stdout (or --out) in CSV or JSON; diagnostics go to
stderr only, so the data streams stay machine-clean and byte-identical
across runs with the same configuration.  Exit codes: 0 ok, 1 verify
failure, 2 config error, 3 regime error, 4 resolution error.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import importlib.util
import io
import math
import os
import sys

from .params import (_CONFLICTS, E_TIMES_C, HBARC_EV_NM, PARAM_KEYS,
                     ConfigError, RegimeError, ResolutionError,
                     parse_config_text, resolve_params, validate_regime)

# numpy's bundled OpenBLAS reads this once, when a numpy layer first
# loads.  Its largest call here is a (64 x Nk) by (Nk x 8) product with
# Nk <= 2000, which a second thread does not speed up, while the idle
# helper thread burns CPU in every packet and verify process.  A value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _lazy(name: str):
    """abcyl.<name>, in sys.modules from now on but executed (and, for a
    numpy layer, numpy imported) only when one of its attributes is first
    read."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# spectrum is read by spectrum, persistent and sweep; fermi by persistent
# and the persistent sweeps only; the numpy layers currents and verify by
# packet and verify only, and spinors by verify.  spinors is registered
# too, so every layer is in sys.modules once cli is imported (perfbench's
# tracer looks the layers up there)
spectrum, fermi, currents, spinors, verify = (_lazy(m) for m in (
    "spectrum", "fermi", "currents", "spinors", "verify"))

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_RESOLUTION = 4

# Largest table that spectrum and sweep build; every row is held in
# memory until the table is printed.
MAX_ROWS = 1_000_000

# Largest (z, k) phase matrix a packet request builds.  At the cap, on a
# 2-core x86-64 host with one BLAS thread: korder 400 with 2500 z points
# takes 0.34 s and 61 MB peak RSS, korder 2000 with 500 takes 0.35 s and
# 61 MB, and korder 2 with 500 000 (all at z = 0, so no phase to
# resolve) takes 3.2 s and 231 MB, mostly in its CSV rows.
MAX_PHASE_ELEMENTS = 1_000_000


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("parameters (dimensionless or physical)")
    for flag in PARAM_KEYS:
        g.add_argument(f"--{flag.replace('_', '-')}", dest=f"par_{flag}",
                       type=float, default=None)


def _gather_params(args):
    return resolve_params(_read_request(args))


# each flag that a request may leave unread: (its dest, its default)
_UNREAD = {"--config": ("config", None), "--seed": ("seed", 0),
           "--physical": ("physical", None), "--nmax": ("nmax", 3),
           "--lmax": ("lmax", 2.5), "--k": ("k", None),
           "--lambda": ("lam", 0.5), "--steps": ("steps", 11),
           "--scale": ("scale", "linear"), "--n": ("n", 1)}


def _reads(args, given) -> tuple[str, set[str]]:
    """The name of the request kind of args, and the flags of _UNREAD and
    parameter keys that it reads (and `--param p` for each p one point of
    a sweep reads); given, the names it gives, decides on radius_nm."""
    if args.command == "verify":
        return "verify", {"--seed"}
    request, reads = args.command, {"--config", "mu", "nu", "beta"}
    if args.command == "spectrum":
        request = f"the {args.geometry} spectrum"
        reads.add("--physical")
        if args.geometry == "finite":
            reads |= {"--nmax", "--lmax"}
        elif args.lam is None:
            reads |= {"--k", "--lmax"}
        else:
            request += " at one --lambda"
            reads |= {"--k", "--lambda"}
    elif args.command == "packet":
        reads.add("--lambda")
    elif args.command == "persistent":
        reads.add("alpha")
    elif args.command == "sweep":
        request = f"the {args.observable} sweep over {args.param}"
        # a Fermi level for a persistent current, a mode for chi and energy
        if args.observable.startswith("persistent_"):
            reads.add("alpha")
        else:
            reads |= {"--n", "--lambda"}
        # the sweep sets the quantity it sweeps at each point
        swept = {"beta": "beta", "mu": "mu", "nu": "nu", "alpha": "alpha",
                 "lambda": "--lambda", "n": "--n"}.get(args.param)
        if swept in reads:
            reads = reads - {swept} | {f"--param {args.param}"}
        if args.param not in ("lambda", "n"):
            reads |= {"--steps", "--scale"}
    drivers = {key for group, key in _CONFLICTS.items() if group in reads}
    if "mu" not in reads:  # fermi_eV sets alpha only together with mass_eV
        drivers.discard("fermi_eV")
    if "--physical" in given or drivers & given:
        drivers.add("radius_nm")
    return request, reads | drivers


def _read_request(args) -> dict[str, float]:
    """The parameter keys of --config, overridden by the flags given.  A
    flag (before --config is opened) or key given and not read exits 2; a
    flag of _UNREAD that is read and not given takes its default."""
    given = {flag for flag, (dest, _) in _UNREAD.items()
             if getattr(args, dest, None) is not None}
    if args.command == "sweep":
        given.add(f"--param {args.param}")
    request, reads = _reads(args, given)
    if given - reads:
        raise ConfigError(f"{request} does not read {min(given - reads)}")
    values: dict[str, float] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    for key in PARAM_KEYS:
        v = getattr(args, f"par_{key}", None)
        if v is not None:
            values[key] = v
    given |= values.keys()
    request, reads = _reads(args, given)
    if given - reads:
        raise ConfigError(f"{request} does not read {min(given - reads)}")
    for flag in reads & _UNREAD.keys() - given:
        dest, default = _UNREAD[flag]
        setattr(args, dest, default)
    return values


def _emit(args, header: list[str], rows: list[list], json_payload=None) -> None:
    stream = io.StringIO()
    if args.format == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    else:
        import json
        payload = json_payload
        if payload is None:
            payload = {"schema_version": SCHEMA_VERSION,
                       "columns": header,
                       "rows": rows}
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    data = stream.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _check_rows(count: int) -> None:
    if count > MAX_ROWS:
        raise ConfigError(f"the table would hold {count} rows; the cap is "
                          f"{MAX_ROWS}")


def cmd_spectrum(args, values) -> int:
    d = resolve_params(values)
    energy_scale = 1.0
    current_scale = 1.0
    if args.geometry == "finite":
        if args.nmax < 1:
            raise ConfigError(f"spectrum needs nmax >= 1, got {args.nmax}")
        if d.nu <= 0.0:
            raise RegimeError("finite spectrum needs nu > 0 (or length_nm)")
        key, keys, energy = "n", range(1, args.nmax + 1), spectrum.energy_finite
    elif d.nu != 0.0:
        raise RegimeError("infinite spectrum modes live on the infinite "
                          "cylinder (nu must be 0)")
    elif args.k is None:
        raise ConfigError("infinite geometry needs --k")
    else:
        key, keys, energy = "k", (args.k,), spectrum.energy_infinite
    if args.physical:
        if "radius_nm" not in values:
            raise ConfigError("--physical needs radius_nm, the radius R "
                              "that sets the units hbar c/R and e c/R")
        energy_scale = HBARC_EV_NM / values["radius_nm"]        # -> eV
        current_scale = E_TIMES_C / (values["radius_nm"] * 1e-9)  # -> A
    lams, count = [args.lam], 1
    if args.lam is None:
        lo, hi = -args.lmax - 1e-12, args.lmax + 1e-12
        lams = spectrum.half_odd_run(lo, hi)
        count = spectrum.half_odd_count(lo, hi)
        if count == 0:
            raise ConfigError(f"spectrum needs lmax >= 0.5, got {args.lmax:g}")
    # from nmax, since len() of a range past sys.maxsize overflows
    _check_rows(count * (args.nmax if key == "n" else 1))
    rows = []
    for lam in lams:
        for x in keys:
            # chi = d(R*E)/d(beta) = (lambda+beta)/(R*E), of the row's R*E
            re_ = energy(x, lam, d)
            ch = (lam + d.beta) / re_
            rows.append([x, lam, re_ * energy_scale,
                         ch, ch / (2 * math.pi) * current_scale])
    rows.sort(key=lambda r: (r[2], r[0], r[1]))
    _emit(args, [key, "lambda", "R_E", "chi", "R_Ic"], rows)
    return EXIT_OK


def _report_dict(rep: fermi.PersistentReport) -> dict:
    out = rep._asdict()
    out.update(flags=sorted(rep.flags), notes=list(rep.notes))
    return out


def cmd_persistent(args, values) -> int:
    d = resolve_params(values)
    reports = fermi.persistent_all(d)
    if reports["exact"].N_e == 0:
        _diag("warning: empty Fermi sea (no state below the Fermi level)")
    names = sorted(reports)
    deviations = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, vb = reports[a].value, reports[b].value
            scale = max(abs(va), abs(vb))
            deviations[f"{a}_vs_{b}"] = (abs(va - vb) / scale if scale else 0.0)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {"mu": d.mu, "nu": d.nu, "beta": d.beta, "alpha": d.alpha},
        "regime": sorted(validate_regime(d)),
        "methods": {name: _report_dict(rep) for name, rep in reports.items()},
        "pairwise_relative_deviation": deviations,
    }
    header = ["method", "value", "N_e", "n_F", "lambda_F", "c"]
    rows = [[r.method, r.value, r.N_e, r.n_F,
             "" if r.lambda_F is None else r.lambda_F,
             "" if r.c is None else r.c]
            for r in (reports[n] for n in names)]
    _emit(args, header, rows, json_payload=payload)
    return EXIT_OK


def cmd_packet(args, values) -> int:
    d = resolve_params(values)
    if d.nu != 0.0:
        raise RegimeError("packet states live on the infinite cylinder "
                          "(nu must be 0)")
    if args.zsteps < 2:
        raise ConfigError("packet needs zsteps >= 2")
    packet = currents.GaussianPacket(lam=args.lam, k0=args.k0,
                                     width=args.width,
                                     weight_plus=args.mix_plus,
                                     weight_minus=args.mix_minus,
                                     order=args.korder)
    if args.zsteps * packet.order > MAX_PHASE_ELEMENTS:
        raise ConfigError(f"the (zsteps, korder) phase matrix would hold "
                          f"{args.zsteps * packet.order} elements; the cap "
                          f"is {MAX_PHASE_ELEMENTS}")
    if not math.isfinite(args.zmax - args.zmin):
        raise ConfigError(f"the z span --zmax - --zmin = "
                          f"{args.zmax - args.zmin} must be finite")
    zs = [args.zmin + i * (args.zmax - args.zmin) / (args.zsteps - 1)
          for i in range(args.zsteps)]
    window = (abs(args.t) + currents._WINDOW_SIGMAS / args.width
              + max(abs(args.zmin), abs(args.zmax)))
    # one gate of the reach and the norm window: its advice passes both
    currents.check_resolution(packet, d, args.t, zs, window)
    direct = currents.longitudinal_current_packet_direct(
        packet, d, args.t, zs)
    formula = currents.longitudinal_current_packet_formula(
        packet, d, args.t, zs)
    ric = currents.circular_current_packet(packet, d)
    re_ = currents.packet_energy(packet, d)
    pol = currents.packet_polarization(packet)
    norm = currents.packet_norm(packet, d, args.t, window)
    header = ["row", "z", "I3_direct", "I3_formula", "difference"]
    rows = [["I3", z, float(a), float(b), float(a - b)]
            for z, a, b in zip(zs, direct, formula)]
    rows.append(["R_Ic", "", ric, "", ""])
    rows.append(["R_E", "", re_, "", ""])
    rows.append(["polarization", "", pol, "", ""])
    rows.append(["norm", "", norm, "", ""])
    _emit(args, header, rows)
    return EXIT_OK


# the single-mode sweep observables: the spectrum function of each, a
# value at (n, lambda, d)
_MODE_OBSERVABLES = {"chi": "chi", "energy": "energy_finite"}


def _observable(name: str):
    """The sweep observable name, a function of (n, lambda, d) on the finite
    cylinder.  persistent_<tag> reads fermi.persistent_<tag> at each call,
    so that only its sweep runs fermi and each point calls that method."""
    if name in _MODE_OBSERVABLES:
        return getattr(spectrum, _MODE_OBSERVABLES[name])
    tag = name.removeprefix("persistent_")
    if tag != name and tag in fermi.METHODS:
        return lambda n, lam, d: getattr(fermi, name)(d).value
    raise ConfigError(f"unknown observable {name!r}")


def cmd_sweep(args, values) -> int:
    mode_param = args.param in ("lambda", "n")
    # each point sets the swept group, which the request does not give
    base = resolve_params(values if mode_param
                          else {**values, args.param: args.start})
    observable = _observable(args.observable)
    persistent = args.observable.startswith("persistent_")
    if args.param == "lambda":
        count = spectrum.half_odd_count(args.start, args.stop + 1e-12)
        points = spectrum.half_odd_run(args.start, args.stop + 1e-12)
    elif args.param == "n":
        first, last = max(1, math.ceil(args.start)), math.floor(args.stop)
        count, points = last - first + 1, range(first, last + 1)
    else:
        count = steps = args.steps
        if steps < 2:
            raise ConfigError("sweep needs steps >= 2")
        if not args.stop > args.start:
            raise ConfigError("sweep needs stop > start")
        if args.scale == "log":
            if args.start <= 0:
                raise ConfigError("log sweep needs start > 0")
            lo, hi = math.log(args.start), math.log(args.stop)
            points = (math.exp(lo + i * (hi - lo) / (steps - 1))
                      for i in range(steps))
        else:
            points = (args.start + i * (args.stop - args.start) / (steps - 1)
                      for i in range(steps))
    _check_rows(count)
    if count < 1:
        raise ConfigError(f"the sweep over {args.param} has no point from "
                          f"{args.start:g} to {args.stop:g}")
    grid = [(x, base if mode_param else base._replace(**{args.param: x}))
            for x in points]
    if persistent and args.observable != "persistent_short":
        # exact's sea is at the point's beta, the other three's beta-free
        exact = args.observable == "persistent_exact"
        for _, d in grid:
            spectrum.check_sea_columns(d if exact else d._replace(beta=0.0))
    rows = []
    for x, d in grid:
        rows.append([x, observable(x if args.param == "n" else args.n,
                                   x if args.param == "lambda" else args.lam, d)])
    _emit(args, [args.param, args.observable], rows)
    return EXIT_OK


def cmd_verify(args, values) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = verify.run_suites(seed=args.seed)
    ok = all(r.passed for r in results)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "passed": ok,
        "suites": [r._asdict() for r in results],
    }
    header = ["suite", "tolerance", "worst", "passed"]
    rows = [[r.suite, r.tolerance, r.worst, r.passed] for r in results]
    _emit(args, header, rows, json_payload=payload)
    return EXIT_OK if ok else EXIT_VERIFY


def _add_global_flags(p: argparse.ArgumentParser, top: bool) -> None:
    # the same flags live on the top parser (with real defaults) and on
    # every subparser (defaults suppressed), so they work in either
    # position without the subparser default clobbering a top-level value
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--config", default=d(None), help="key=value parameter file")
    p.add_argument("--format", choices=("csv", "json"), default=d("csv"))
    p.add_argument("--out", default=d(None),
                   help="write data here instead of stdout")
    p.add_argument("--seed", type=int, default=d(None),
                   help="seed for randomized residual sample points (verify)")
    p.add_argument("--physical", action="store_true", default=d(None),
                   help="emit energies in eV and currents in amperes "
                        "(spectrum)")


def _check_finite_flags(args) -> None:
    """Exit 2 on a NaN or infinite float flag; the parameter flags are
    checked where they become the four groups."""
    for dest, value in vars(args).items():
        if (isinstance(value, float) and not dest.startswith("par_")
                and not math.isfinite(value)):
            flag = "lambda" if dest == "lam" else dest.replace("_", "-")
            raise ConfigError(f"--{flag} must be finite, got {value}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abcyl",
        description="Relativistic currents on ideal Aharonov-Bohm cylinders")
    _add_global_flags(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="mode energies and circular currents")
    _add_global_flags(sp, top=False)
    _add_param_flags(sp)
    sp.add_argument("--geometry", choices=("finite", "infinite"), default="finite")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--lmax", type=float, default=None)
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("persistent", help="T=0 persistent current, all methods")
    _add_global_flags(pp, top=False)
    _add_param_flags(pp)
    pp.set_defaults(func=cmd_persistent)

    kp = sub.add_parser("packet", help="packet currents on the infinite cylinder")
    _add_global_flags(kp, top=False)
    _add_param_flags(kp)
    kp.add_argument("--k0", type=float, default=0.0)
    kp.add_argument("--width", type=float, default=1.0)
    kp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    kp.add_argument("--mix-plus", type=float, default=1.0)
    kp.add_argument("--mix-minus", type=float, default=0.0)
    kp.add_argument("--t", type=float, default=0.0)
    kp.add_argument("--zmin", type=float, default=-5.0)
    kp.add_argument("--zmax", type=float, default=5.0)
    kp.add_argument("--zsteps", type=int, default=21)
    kp.add_argument("--korder", type=int, default=400)
    kp.set_defaults(func=cmd_packet)

    sw = sub.add_parser("sweep", help="one-parameter scan of an observable")
    _add_global_flags(sw, top=False)
    _add_param_flags(sw)
    sw.add_argument("--param", required=True)
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--steps", type=int, default=None)
    sw.add_argument("--scale", choices=("linear", "log"), default=None)
    sw.add_argument("--observable", default="chi")
    sw.add_argument("--n", type=int, default=None)
    sw.add_argument("--lambda", dest="lam", type=float, default=None)
    sw.set_defaults(func=cmd_sweep)

    vf = sub.add_parser("verify", help="run every invariant suite")
    _add_global_flags(vf, top=False)
    vf.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    """Run one command and return its exit code; a refusal instead prints
    one `error: ...` line on stderr and returns 2 (config), 3 (regime) or
    4 (resolution)."""
    # freeze the heap at exit, once per process, so that the final
    # collections skip it; a caller keeps a live collector until then
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        _check_finite_flags(args)
        return args.func(args, _read_request(args))
    except ValueError as exc:
        _diag(f"error: {exc}")
        if isinstance(exc, RegimeError):
            return EXIT_REGIME
        if isinstance(exc, ResolutionError):
            return EXIT_RESOLUTION
        return EXIT_CONFIG
    except OverflowError as exc:
        _diag(f"error: numeric overflow: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
