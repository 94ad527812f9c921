"""Command line front end.

Subcommands: fbm, integrate, solve, check, converge. Configuration
precedence is CLI flags over manifest file over built-in defaults; every
command is a pure function of (arguments, seed), so replaying a manifest
reproduces output files bit for bit. Floating point output uses 17
significant digits. The MIXEDSDE_OUT environment variable sets the
default output directory.

Exit codes: 0 success, 1 usage error, 2 hypothesis refusal, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, fraccalc
from .coefficients import (
    _SAMPLES_MAX,
    _SAMPLES_MIN,
    check_hypotheses,
    coefficients_from_expressions,
    compile_expression,
    preset,
    preset_names,
)
from .convergence import (
    _CHUNK, _EVAL_N_MAX, _FINE_N_MAX, _PATHS_MAX, _WORKERS_MAX, DEFAULT_R, SolverConfig, _checked_run, mc_strong_error
)
from .euler import EulerBlowupError, euler_solve, write_solution_csv
from .fbm import (
    _DEPENDENCE_ALIASES,
    _HOLDER_MIN_STEPS,
    _METHODS,
    generate_fbm,
    generate_noise_pair,
    holder_functional,
    write_pair_csv,
    write_path_csv,
)
from .fraccalc import SampledFunction, young_integral
from .grid import GridResourceError, TimeGrid, _real


class HypothesisRefusal(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(given: str | None) -> Path:
    d = Path(given) if given is not None else Path(os.environ.get("MIXEDSDE_OUT", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _out_path(given: str | None, default_name: str) -> Path:
    path = Path(given) if given is not None else _out_dir(None) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# a preset name, or else every custom key (in coefficients_from_expressions order)
_COEFFICIENT_KEYS = ("preset", "a", "b", "c", "dc", "k", "beta")


def _coefficients(spec: dict):
    given = [k for k in _COEFFICIENT_KEYS if spec.get(k) is not None]
    if "preset" in given:
        if len(given) > 1:
            flags = " ".join("--" + k for k in given)
            raise ValueError(f"a preset excludes custom coefficients (given: {flags})")
        return preset(spec["preset"])
    custom = _COEFFICIENT_KEYS[1:]
    missing = ", ".join(k for k in custom if k not in given)
    if missing:
        need = " ".join("--" + k for k in custom)
        raise ValueError(f"custom coefficients need {need} (missing: {missing})")
    return coefficients_from_expressions("custom", *(spec[k] for k in custom))


# ---------------------------------------------------------------------------
# fbm


def cmd_fbm(args) -> int:
    grid = TimeGrid(args.t, args.n)
    if args.pair:
        pair = generate_noise_pair(grid, args.h, args.seed, args.dependence, args.method)
        paths = {"w": pair.w, "bh": pair.bh}
        write = partial(write_pair_csv, pair)
    else:
        paths = {"bh": generate_fbm(grid, args.h, args.seed, args.method)}
        write = partial(write_path_csv, paths["bh"])
    kind = "pair" if args.pair else "fbm"
    out = _out_path(args.out, f"{kind}_h{args.h}_n{args.n}_seed{args.seed}.csv")
    with open(out, "w") as fh:
        write(fh)
    for label, path in paths.items():
        if args.n > fraccalc._PAIR_N_MAX:  # the functional's kernel would refuse it
            k = f" not computed (n > {fraccalc._PAIR_N_MAX}, O(n^2))"
        elif args.n < _HOLDER_MIN_STEPS:
            k = f" not computed (n < {_HOLDER_MIN_STEPS}, too few steps)"
        else:
            k = f"={holder_functional(path, args.eta).value:.6g}"
        print(f"{label}: min={path.values.min():.6g} max={path.values.max():.6g} K^({args.eta})_T{k}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# integrate


def _load_sampled(path: str) -> SampledFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return SampledFunction(data[:, 0], data[:, 1])


_F_ALIASES = {"one": "1.0"}


def cmd_integrate(args) -> int:
    g = _load_sampled(args.g)
    src = _F_ALIASES.get(args.f, args.f)
    if Path(src).exists() and not src.replace(".", "").isdigit():
        f = _load_sampled(src)  # young_integral refuses other nodes than g's
    else:
        fn = compile_expression(src, variables=("t",))
        f = SampledFunction(g.t, np.asarray(fn(g.t), dtype=float) * np.ones_like(g.t))
    value = young_integral(f, g, args.alpha)
    print(f"{value:.17g}")
    return 0


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    coeffs = _coefficients(vars(args))
    coeffs.validate_for_hurst(args.h)
    grid, x0 = TimeGrid(args.t, args.n), _real("x0", args.x0, finite=True)  # refused before any noise
    pair = generate_noise_pair(grid, args.h, args.seed, args.dependence, args.method)
    sol = euler_solve(coeffs, pair, x0)
    out = _out_path(args.out, f"solve_{coeffs.name}_h{args.h}_n{args.n}_seed{args.seed}.csv")
    with open(out, "w") as fh:
        write_solution_csv(sol, fh)
    print(f"X_T = {sol.values[-1]:.17g}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    coeffs = _coefficients(vars(args))
    report = check_hypotheses(
        coeffs,
        t_range=(args.t_min, args.t_max),
        x_range=(args.x_min, args.x_max),
        samples=args.samples,
        seed=args.seed,
    )
    print(report)
    return 0 if report.all_passed else 2


# ---------------------------------------------------------------------------
# converge


# in the order converge lists their flags
_CONVERGE_DEFAULTS = {
    "h": 0.7,
    "t": 1.0,
    "x0": 1.0,
    "seed": 0,
    "alpha": 0.35,
    "eta": 0.1,
    "threshold": 50.0,
    "epsilon": 0.05,
    "r_bound": DEFAULT_R,
    "levels": [16, 32, 64, 128, 256],
    "m_fine": 4,
    "paths": 10000,
    "dependence": "independent",
    "method": "circulant-embedding",
    "eval_n": 256,
    "coefficients": {"preset": "linear"},
}


# what a setting of each default type must hold; a float one is a number (grid._real); mc_strong_error checks integers
_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _check_kind(name: str, value, kind: type) -> None:
    if kind is float:
        _real(name, value)
    elif not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _resolve_converge_settings(args) -> dict:
    """Flags over manifest over defaults; any coefficient flag replaces the whole spec."""
    settings = dict(_CONVERGE_DEFAULTS)
    if args.manifest:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        unknown = set(manifest) - set(_CONVERGE_DEFAULTS) - {"version"}
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        spec = manifest.get("coefficients")
        stray = set(spec) - set(_COEFFICIENT_KEYS) if isinstance(spec, dict) else ()
        if stray:
            raise ValueError(f"unknown manifest coefficient keys: {sorted(stray)}")
        manifest.pop("version", None)
        settings.update(manifest)
    given = {k: v for k, v in vars(args).items() if v is not None}
    settings.update((k, v) for k, v in given.items() if k in _CONVERGE_DEFAULTS)
    if args.levels is not None:
        try:
            settings["levels"] = [int(x) for x in args.levels.split(",")]
        except ValueError:
            raise ValueError(f"--levels must be comma-separated integers, got {args.levels!r}") from None
    coefficient_flags = [k for k in _COEFFICIENT_KEYS if k in given]
    if coefficient_flags == ["preset"]:
        settings["coefficients"] = {"preset": given["preset"]}
    elif coefficient_flags:
        settings["coefficients"] = {k: given.get(k) for k in _COEFFICIENT_KEYS}
    for key, default in _CONVERGE_DEFAULTS.items():
        if type(default) is float or type(default) in _KINDS:
            _check_kind(key, settings[key], type(default))
    for key, value in settings["coefficients"].items():  # None: not given
        if value is not None:
            _check_kind(f"coefficients entry {key}", value, float if key in ("k", "beta") else str)
    return settings


def cmd_converge(args) -> int:
    settings = _resolve_converge_settings(args)
    coeffs = _coefficients(settings["coefficients"])
    config = SolverConfig(**{k: settings[k] for k in ("alpha", "eta", "threshold", "epsilon")})
    names = ("h", "levels", "m_fine", "paths", "r_bound", "x0", "seed", "dependence", "method", "eval_n")
    run = dict(config=config, t_horizon=settings["t"], workers=args.workers, **{k: settings[k] for k in names})
    _checked_run(coeffs, **run)  # a refused setting costs no gate
    if not args.force:
        gate = check_hypotheses(coeffs)
        if not gate.all_passed:
            lines = [str(gate.results[k]) for k in gate.failed]
            raise HypothesisRefusal(
                "coefficient hypotheses failed (rerun with --force to override):\n"
                + "\n".join(lines)
            )
    report = mc_strong_error(coeffs, **run)
    outdir = _out_dir(args.outdir)
    (outdir / "report.json").write_text(report.to_json() + "\n")
    with open(outdir / "report.csv", "w") as fh:
        report.write_csv(fh)
    with open(outdir / "report_loglog.csv", "w") as fh:
        report.write_loglog_csv(fh)
    resolved = dict(settings, version=__version__)
    (outdir / "manifest.json").write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n")
    for l in report.levels:
        print(
            f"n={l.n:5d} delta={l.delta:.5g} err2_norm2={l.err2_norm2:.6e} "
            f"err2_sup={l.err2_sup:.6e} retained={l.retained} discarded={l.discarded} "
            f"aborted={l.aborted}"
        )
    print(f"tau_N < T on {report.localization_fraction:.2%} of paths")
    if report.degenerate:
        print("degenerate model (all errors zero); rate fit skipped")
        print(f"wrote report to {outdir}")
        return 0
    if report.fit_norm2 is None or report.fit_sup is None:
        print("could not fit a rate (fewer than 3 usable levels)")
        return 3
    for name, fit in (("norm2", report.fit_norm2), ("sup", report.fit_sup)):
        slope, stderr = fit[:2]
        print(
            f"{name}: slope={slope:.4f} (stderr {stderr:.4f}) rate={slope / 2:.4f} "
            f"floor={report.rate_floor:.4f} -> {'pass' if report.fit_passes(fit) else 'FAIL'}"
        )
    print(f"wrote report to {outdir}")
    return 0 if report.passes_rate_floor() else 3


# ---------------------------------------------------------------------------
# parser


# argparse keywords of the flags that subcommands share and of every run
# setting, by destination; the flag is the key with "-" for "_"
_FLAGS = {
    "preset": dict(choices=preset_names(), help="named coefficient preset"),
    "a": dict(help="drift expression a(t, x)"),
    "b": dict(help="Wiener coefficient expression b(t, x)"),
    "c": dict(help="fBm coefficient expression c(t, x)"),
    "dc": dict(help="expression for dc/dx(t, x)"),
    "k": dict(type=float, help="claimed hypothesis constant K"),
    "beta": dict(type=float, help="claimed time-Holder exponent, in (1-H, 1)"),
    "h": dict(type=float, help="Hurst index, in (1/2, 1)"),
    "n": dict(type=int, help="number of grid steps, >= 1"),
    "t": dict(type=float, help="horizon T > 0"),
    "x0": dict(type=float, help="initial value"),
    "seed": dict(type=int, help="RNG seed, >= 0"),
    "alpha": dict(type=float, help="norm order, in (1-H, min(1/2, beta))"),
    "eta": dict(type=float, help="Holder functional exponent"),
    "threshold": dict(type=float, help="localization threshold N"),
    "epsilon": dict(type=float, help="rate slack, in (0, kappa - alpha)"),
    "r_bound": dict(type=float, help="restriction radius R > 0, inf for none"),
    "levels": dict(help="comma-separated coarse level sizes, each >= 2"),
    "m_fine": dict(type=int, help=f"fine grid is max(levels) * 2^m_fine cells, at most {_FINE_N_MAX}"),
    "paths": dict(type=int, help=f"Monte Carlo paths, 1..{_PATHS_MAX}"),
    "dependence": dict(choices=list(_DEPENDENCE_ALIASES), help="pair coupling"),
    "method": dict(choices=_METHODS, help="exact sampling method"),
    "eval_n": dict(type=int, help=f"evaluation subgrid, capped at the fine n and then at most {_EVAL_N_MAX}"),
    "out": dict(help="output CSV path (default derived, in $MIXEDSDE_OUT)"),
}


def _shown(default) -> str:
    """A default as the help shows it: 1 for 1.0, 16,...,256 for a list."""
    if isinstance(default, list):
        return f"{default[0]},...,{default[-1]}"
    return f"{default:g}" if isinstance(default, float) else str(default)


def _add_flags(p: argparse.ArgumentParser, *keys: str, required=(), manifest=False) -> None:
    """Add the _FLAGS entries `keys`. An optional run setting defaults to its
    _CONVERGE_DEFAULTS value, or to None when a manifest may set it."""
    for key in keys:
        kw = dict(_FLAGS[key], required=key in required)
        default = None if key in required else _CONVERGE_DEFAULTS.get(key)
        if default is not None:
            kw["help"] += f" (default {_shown(default)})"
        p.add_argument("--" + key.replace("_", "-"), default=None if manifest else default, **kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="mixedsde", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fbm", help="sample an fBm path or a (W, B^H) pair and write CSV")
    _add_flags(p, "h", "n", "t", "seed", "method", required=("h", "n"))
    p.add_argument("--pair", action="store_true", help="write a coupled (W, B^H) pair instead")
    _add_flags(p, "dependence", "eta", "out")
    p.set_defaults(func=cmd_fbm)

    p = sub.add_parser("integrate", help="Young integral of f against dg from CSV samples")
    p.add_argument("--f", required=True, help="integrand: expression in t, CSV path, or 'one'")
    p.add_argument("--g", required=True, help="integrator: CSV path with columns t,value")
    p.add_argument("--alpha", type=float, required=True, help="fractional order, in (0, 1/2]")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("solve", help="run the Euler scheme and write the path CSV")
    solve_flags = ("h", "n", "t", "x0", "seed", "dependence", "method", "out")
    _add_flags(p, *_COEFFICIENT_KEYS, *solve_flags, required=("h", "n"))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="sample-check the coefficient hypotheses (A)-(E)")
    _add_flags(p, *_COEFFICIENT_KEYS)
    p.add_argument("--t-min", type=float, default=0.0, help="time range lower end (default 0)")
    p.add_argument("--t-max", type=float, default=1.0, help="time range upper end (default 1)")
    p.add_argument("--x-min", type=float, default=-10.0, help="state range lower end (default -10)")
    p.add_argument("--x-max", type=float, default=10.0, help="state range upper end (default 10)")
    p.add_argument("--samples", type=int, default=200, help=f"samples per axis, {_SAMPLES_MIN}..{_SAMPLES_MAX}")
    _add_flags(p, "seed")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "converge", help="Monte Carlo strong-error study across dyadic levels with rate fit"
    )
    p.add_argument("--manifest", help="JSON manifest; flags override its entries")
    settings = [k for k in _CONVERGE_DEFAULTS if k != "coefficients"]
    _add_flags(p, *_COEFFICIENT_KEYS, *settings, manifest=True)
    p.add_argument(
        "--workers",
        type=int,
        help=f"worker threads, at most {_WORKERS_MAX} and at most one per {_CHUNK}-path chunk; 1 runs the chunks on "
        f"the calling thread, with no pool (default: usable CPUs, at most {_WORKERS_MAX})",
    )
    p.add_argument("--force", action="store_true", help="skip the hypothesis gate")
    p.add_argument("--outdir", help="output directory (default $MIXEDSDE_OUT or .)")
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, GridResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EulerBlowupError, ArithmeticError, AssertionError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
