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
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import (
    check_hypotheses,
    coefficients_from_expressions,
    compile_expression,
    preset,
    preset_names,
)
from .convergence import DEFAULT_R, mc_strong_error
from .euler import EulerBlowupError, SolverConfig, euler_solve, write_solution_csv
from .fbm import (
    generate_fbm,
    generate_noise_pair,
    holder_functional,
    write_pair_csv,
    write_path_csv,
)
from .fraccalc import SampledFunction, young_integral
from .grid import TimeGrid

_H_RANGE_MSG = "Hurst index must lie in (1/2, 1)"


class HypothesisRefusal(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_path(given: str | None, default_name: str) -> Path:
    path = Path(given) if given is not None else Path(os.environ.get("MIXEDSDE_OUT", ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _out_dir(given: str | None) -> Path:
    d = Path(given) if given is not None else Path(os.environ.get("MIXEDSDE_OUT", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _coefficients(spec: dict):
    if spec.get("preset"):
        return preset(spec["preset"])
    missing = [k for k in ("a", "b", "c", "dc", "k", "beta") if spec.get(k) is None]
    if missing:
        raise ValueError(
            f"custom coefficients need --a --b --c --dc --k --beta (missing: {', '.join(missing)})"
        )
    return coefficients_from_expressions(
        "custom", spec["a"], spec["b"], spec["c"], spec["dc"], float(spec["k"]), float(spec["beta"])
    )


# ---------------------------------------------------------------------------
# fbm


def cmd_fbm(args) -> int:
    grid = TimeGrid(args.t, args.n)
    if args.pair:
        pair = generate_noise_pair(grid, args.h, args.seed, args.dependence, args.method)
        out = _out_path(args.out, f"pair_h{args.h}_n{args.n}_seed{args.seed}.csv")
        with open(out, "w") as fh:
            write_pair_csv(pair, fh)
        for label, path in (("w", pair.w), ("bh", pair.bh)):
            k = holder_functional(path, args.eta)
            print(
                f"{label}: min={path.values.min():.6g} max={path.values.max():.6g} "
                f"K^({args.eta})_T={k.value:.6g}"
            )
    else:
        path = generate_fbm(grid, args.h, args.seed, args.method)
        out = _out_path(args.out, f"fbm_h{args.h}_n{args.n}_seed{args.seed}.csv")
        with open(out, "w") as fh:
            write_path_csv(path, fh)
        k = holder_functional(path, args.eta)
        print(
            f"bh: min={path.values.min():.6g} max={path.values.max():.6g} "
            f"K^({args.eta})_T={k.value:.6g}"
        )
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
        f = _load_sampled(src)
        if not np.array_equal(f.t, g.t):
            raise ValueError("f and g must be sampled on the same nodes")
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
    grid = TimeGrid(args.t, args.n)
    pair = generate_noise_pair(grid, args.h, args.seed, args.dependence, args.method)
    sol = euler_solve(coeffs, pair, args.x0)
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


_CONVERGE_DEFAULTS = {
    "seed": 0,
    "h": 0.7,
    "t": 1.0,
    "x0": 1.0,
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

_MANIFEST_KEYS = tuple(_CONVERGE_DEFAULTS) + ("version",)


def _resolve_converge_settings(args) -> dict:
    settings = dict(_CONVERGE_DEFAULTS)
    if args.manifest:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        unknown = set(manifest) - set(_MANIFEST_KEYS)
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        manifest.pop("version", None)
        settings.update(manifest)
    flag_map = {
        "seed": args.seed,
        "h": args.h,
        "t": args.t,
        "x0": args.x0,
        "alpha": args.alpha,
        "eta": args.eta,
        "threshold": args.threshold,
        "epsilon": args.epsilon,
        "r_bound": args.r_bound,
        "m_fine": args.m_fine,
        "paths": args.paths,
        "dependence": args.dependence,
        "method": args.method,
        "eval_n": args.eval_n,
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value
    if args.levels is not None:
        settings["levels"] = [int(x) for x in args.levels.split(",")]
    coeff_flags = {k: getattr(args, k) for k in ("preset", "a", "b", "c", "dc", "k", "beta")}
    if coeff_flags["preset"] or coeff_flags["a"]:
        settings["coefficients"] = (
            {"preset": coeff_flags["preset"]} if coeff_flags["preset"] else coeff_flags
        )
    return settings


def cmd_converge(args) -> int:
    settings = _resolve_converge_settings(args)
    coeffs = _coefficients(settings["coefficients"])
    if not args.force:
        gate = check_hypotheses(coeffs)
        if not gate.all_passed:
            lines = [str(gate.results[k]) for k in gate.failed]
            raise HypothesisRefusal(
                "coefficient hypotheses failed (rerun with --force to override):\n"
                + "\n".join(lines)
            )
    config = SolverConfig(
        alpha=settings["alpha"],
        eta=settings["eta"],
        threshold=settings["threshold"],
        epsilon=settings["epsilon"],
    )
    report = mc_strong_error(
        coeffs,
        settings["h"],
        config,
        settings["levels"],
        settings["m_fine"],
        settings["paths"],
        settings["r_bound"],
        t_horizon=settings["t"],
        x0=settings["x0"],
        seed=settings["seed"],
        dependence=settings["dependence"],
        method=settings["method"],
        eval_n=settings["eval_n"],
        workers=args.workers,
    )
    outdir = _out_dir(args.outdir)
    (outdir / "report.json").write_text(report.to_json() + "\n")
    with open(outdir / "report.csv", "w") as fh:
        report.write_csv(fh)
    with open(outdir / "report_loglog.csv", "w") as fh:
        report.write_loglog_csv(fh)
    resolved = dict(settings)
    resolved["version"] = __version__
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
    floor = report.rate_floor
    for name, fit in (("norm2", report.fit_norm2), ("sup", report.fit_sup)):
        print(
            f"{name}: slope={fit[0]:.4f} (stderr {fit[1]:.4f}) rate={fit[0] / 2:.4f} "
            f"floor={floor:.4f} -> {'pass' if fit[0] / 2 >= floor else 'FAIL'}"
        )
    print(f"wrote report to {outdir}")
    return 0 if report.passes_rate_floor() else 3


# ---------------------------------------------------------------------------
# parser


def _add_coefficient_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=preset_names(), help="named coefficient preset")
    p.add_argument("--a", help="drift expression a(t, x)")
    p.add_argument("--b", help="Wiener coefficient expression b(t, x)")
    p.add_argument("--c", help="fBm coefficient expression c(t, x)")
    p.add_argument("--dc", help="expression for dc/dx(t, x)")
    p.add_argument("--k", type=float, help="claimed hypothesis constant K")
    p.add_argument("--beta", type=float, help="claimed time-Holder exponent, in (1-H, 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mixedsde", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fbm", help="sample an fBm path or a (W, B^H) pair and write CSV")
    p.add_argument("--h", type=float, required=True, help="Hurst index, in (1/2, 1)")
    p.add_argument("--n", type=int, required=True, help="number of grid steps, >= 1")
    p.add_argument("--t", type=float, default=1.0, help="horizon T > 0 (default 1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--method",
        choices=["cholesky", "circulant-embedding", "circulant"],
        default="circulant-embedding",
        help="exact sampling method (default circulant-embedding)",
    )
    p.add_argument("--pair", action="store_true", help="write a coupled (W, B^H) pair instead")
    p.add_argument(
        "--dependence",
        choices=["independent", "volterra-from-same-wiener", "volterra"],
        default="independent",
        help="pair coupling (default independent)",
    )
    p.add_argument("--eta", type=float, default=0.1, help="eta for the printed Holder functional")
    p.add_argument("--out", help="output CSV path (default derived, in $MIXEDSDE_OUT)")
    p.set_defaults(func=cmd_fbm)

    p = sub.add_parser("integrate", help="Young integral of f against dg from CSV samples")
    p.add_argument("--f", required=True, help="integrand: expression in t, CSV path, or 'one'")
    p.add_argument("--g", required=True, help="integrator: CSV path with columns t,value")
    p.add_argument("--alpha", type=float, required=True, help="fractional order, in (0, 1/2]")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("solve", help="run the Euler scheme and write the path CSV")
    _add_coefficient_flags(p)
    p.add_argument("--h", type=float, required=True, help="Hurst index, in (1/2, 1)")
    p.add_argument("--n", type=int, required=True, help="number of grid steps")
    p.add_argument("--t", type=float, default=1.0, help="horizon T > 0 (default 1)")
    p.add_argument("--x0", type=float, default=1.0, help="initial value (default 1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--dependence",
        choices=["independent", "volterra-from-same-wiener", "volterra"],
        default="independent",
    )
    p.add_argument(
        "--method",
        choices=["cholesky", "circulant-embedding", "circulant"],
        default="circulant-embedding",
    )
    p.add_argument("--out", help="output CSV path (default derived, in $MIXEDSDE_OUT)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="sample-check the coefficient hypotheses (A)-(E)")
    _add_coefficient_flags(p)
    p.add_argument("--t-min", type=float, default=0.0, help="time range lower end (default 0)")
    p.add_argument("--t-max", type=float, default=1.0, help="time range upper end (default 1)")
    p.add_argument("--x-min", type=float, default=-10.0, help="state range lower end (default -10)")
    p.add_argument("--x-max", type=float, default=10.0, help="state range upper end (default 10)")
    p.add_argument("--samples", type=int, default=200, help="samples per axis, >= 100")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "converge", help="Monte Carlo strong-error study across dyadic levels with rate fit"
    )
    p.add_argument("--manifest", help="JSON manifest; flags override its entries")
    _add_coefficient_flags(p)
    p.add_argument("--h", type=float, help="Hurst index, in (1/2, 1) (default 0.7)")
    p.add_argument("--t", type=float, help="horizon T > 0 (default 1)")
    p.add_argument("--x0", type=float, help="initial value (default 1)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--alpha", type=float, help="norm order, in (1-H, min(1/2, beta)) (default 0.35)")
    p.add_argument("--eta", type=float, help="Holder functional exponent (default 0.1)")
    p.add_argument("--threshold", type=float, help="localization threshold N (default 50)")
    p.add_argument("--epsilon", type=float, help="rate slack, in (0, kappa - alpha) (default 0.05)")
    p.add_argument("--r-bound", type=float, help="restriction radius R (default 1000)")
    p.add_argument("--levels", help="comma-separated coarse level sizes (default 16,...,256)")
    p.add_argument("--m-fine", type=int, help="fine grid is max(levels) * 2^m_fine (default 4)")
    p.add_argument("--paths", type=int, help="Monte Carlo paths (default 10000)")
    p.add_argument("--dependence", choices=["independent", "volterra-from-same-wiener", "volterra"])
    p.add_argument("--method", choices=["cholesky", "circulant-embedding", "circulant"])
    p.add_argument("--eval-n", type=int, help="norm/functional evaluation subgrid (default 256)")
    p.add_argument("--workers", type=int, help="worker threads (default: available parallelism)")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EulerBlowupError, ArithmeticError, AssertionError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
