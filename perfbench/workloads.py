"""The benchmark's workloads.

mc-accept and mc-volterra-fine run the Monte Carlo strong-error study
through the stable CLI entry point, in-process:
mixedsde.cli.main(["converge", "--manifest", <generated>, ...]).
single-path runs front-end sessions on the public API.

Every unit of work (one converge run, or one session) draws its inputs
from a seed derived from the benchmark's --seed. Set-up runs the same unit
at the CLI's default seed and checks its outputs against reference.json.

Traced runs wrap the program's layer boundaries from here (see spans.py);
nothing under src/ is touched. Each traced unit is paired with an untraced
unit at the same seed, whose outputs must match it exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import mixedsde
from mixedsde import cli, convergence, fbm, fraccalc
from mixedsde.grid import TimeGrid

from calibrate import Calibration
from spans import BoundaryMissing, Tracer, patched, self_times, union_length
from stats import TAIL_BEYOND, Tally, median, tail

H = 0.7
ALPHA = 0.35
ETA = 0.1
X0 = 1.0
REF_SEED = 0  # the CLI's default seed; set-up runs on it
REF_RTOL = 1e-9  # admits last-bit changes of summation order, nothing more
SETUP_REPEATS = 3
REFERENCE_PATH = Path(__file__).with_name("reference.json")

_BASE_MANIFEST = {
    "coefficients": {"preset": "linear"},
    "h": H,
    "alpha": ALPHA,
    "eval_n": 256,
    "method": "circulant-embedding",
}

MC_MANIFESTS = {
    "mc-accept": dict(_BASE_MANIFEST, levels=[16, 32, 64, 128, 256], m_fine=4, dependence="independent"),
    "mc-volterra-fine": dict(_BASE_MANIFEST, levels=[32, 64, 128], m_fine=6, dependence="volterra-from-same-wiener"),
}
PATHS_PER_WORKER = 256  # one chunk of the harness per worker and converge run
WARMUP_PATHS = 64

# single-path session sizes
N_PAIR = 2**16
N_SOLVE = 2**15
N_HOLDER = 2**13
N_NORM = 2**12
YOUNG_TOL = 2e-6  # |young - exact| over sum |midpoint * dg|; ~1e-7 is typical
SESSION_CALLS = ("pair", "solve", "holder", "norm_inf", "norm_2", "young")

MONITOR_RATIO = 2.0  # moment monitor: max / min of E||X||^2 over levels

# metric -> (aggregate, span names); mc and single-path spans share a metric
# where they do the same job
_SPAN_METRICS = {
    "fbm.noise_s": ("incl", ("convergence._chunk_noise", "fbm.generate_noise_pair")),
    "fbm.fgn_s": ("incl", ("fbm._fbm_values_batch",)),
    "fbm.holder_s": ("incl", ("fbm._holder_cumulative_batch", "fbm.holder_functional")),
    "euler.solve_s": ("self", ("euler._euler_solve_batch", "euler.euler_solve")),
    "euler.interpolate_s": ("self", ("euler._interpolate_on_fine",)),
    "fraccalc.bracket_s": ("incl", ("fraccalc._increment_bracket_batch", "fraccalc.increment_bracket")),
    "fraccalc.bracket_calls": ("calls", ("fraccalc._increment_bracket_batch", "fraccalc.increment_bracket")),
    "fraccalc.bracket_elems": ("size", ("fraccalc._increment_bracket_batch", "fraccalc.increment_bracket")),
    "fraccalc.deriv_s": ("incl", ("fraccalc._left_deriv_nodes",)),
    "convergence.stop_s": ("incl", ("convergence._stop_batch",)),
    "convergence.self_s": ("self", ("convergence.mc_strong_error",)),
    "cli.gate_s": ("incl", ("coefficients.check_hypotheses",)),
    "cli.self_s": ("self", ("cli.main",)),
}

COEFF_LEAF = "coefficients.eval"


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def unit_seed(seed: int, i: int) -> int:
    """Seed of the i-th unit of a run; never the reference seed."""
    return seed * 1_000_000 + i + 1


def clear_caches() -> None:
    """Empty every functools cache of the program, so set-up is cold again."""
    for name, module in list(sys.modules.items()):
        if name == "mixedsde" or name.startswith("mixedsde."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def close_enough(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REF_RTOL * abs(want)


def _span_name(obj, attr: str) -> str:
    """<defining module>.<attr>, e.g. fbm._volterra_weights."""
    home = obj.__name__ if isinstance(obj, types.ModuleType) else obj.__module__
    return f"{home.rsplit('.', 1)[-1]}.{attr}"


def _array_size(values, *rest) -> int:
    return int(np.size(values))


def _coefficient_elems(t, x) -> int:
    return getattr(x, "size", 1)  # cheaper than np.size on the scalar path


# span sizes: Euler grid steps; bracket rows x nodes
_SPAN_SIZES = {
    "_euler_solve_batch": lambda coeffs, t, *rest: len(t) - 1,
    "_increment_bracket_batch": _array_size,
    "increment_bracket": _array_size,
}


def timed_coefficients(tracer: Tracer, coeffs):
    """The same coefficient set with a, b, c timed as leaves."""
    return dataclasses.replace(
        coeffs,
        a=tracer.leaf(coeffs.a, COEFF_LEAF, _coefficient_elems),
        b=tracer.leaf(coeffs.b, COEFF_LEAF, _coefficient_elems),
        c=tracer.leaf(coeffs.c, COEFF_LEAF, _coefficient_elems),
    )


# ---------------------------------------------------------------------------
# per-layer aggregation


def layer_values(tracer: Tracer, selfs: dict) -> dict:
    """Per-layer totals of one traced unit (the _SPAN_METRICS and leaves);
    selfs holds the self time of every span."""
    out = {}
    for metric, (agg, names) in _SPAN_METRICS.items():
        chosen = [s for s in tracer.spans if s.name in names]
        if agg == "incl":
            out[metric] = sum(s.duration for s in chosen)
        elif agg == "self":
            out[metric] = sum(selfs[s.sid] for s in chosen)
        elif agg == "calls":
            out[metric] = len(chosen)
        else:
            out[metric] = sum(s.size for s in chosen)
    leaves = [s.leaves[COEFF_LEAF] for s in tracer.spans if COEFF_LEAF in s.leaves]
    if COEFF_LEAF in tracer.orphan_leaves:
        leaves.append(tracer.orphan_leaves[COEFF_LEAF])
    out["coefficients.eval_s"] = sum(v[0] for v in leaves)
    out["coefficients.eval_calls"] = sum(v[1] for v in leaves)
    out["coefficients.eval_elems"] = sum(v[2] for v in leaves)
    return out


def calibrated_setups(setup) -> tuple[list, list, list]:
    """SETUP_REPEATS cold set-ups: their wall times, the same at the
    reference speed (calibrate.py) and the kernel times around them."""
    cal = Calibration()
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        walls.append(setup())
        scaled.append(walls[-1] * cal.next())
    return walls, scaled, cal.kernel_times


def _mean_dicts(dicts: list[dict]) -> dict:
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in dicts[0]}


def per_layer_result(layers: list[dict], extra: dict) -> dict:
    """Mean per-unit layer values, plus the run-level extras."""
    return {**_mean_dicts(layers), **extra}


# ---------------------------------------------------------------------------
# Monte Carlo workloads


class McWorkload:
    def __init__(self, name: str, workdir: Path, workers: int):
        self.workers = workers
        self.paths = PATHS_PER_WORKER * workers
        self.warmup_paths = WARMUP_PATHS
        manifest = dict(MC_MANIFESTS[name], paths=self.paths)
        self.fine_n = max(manifest["levels"]) << manifest["m_fine"]
        self.workdir = workdir
        self.manifest = workdir / "manifest.json"
        self.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.reference = json.loads(REFERENCE_PATH.read_text())[name]

    # -- one converge run

    def converge(self, seed: int, paths: int, outdir: str, tracer: Tracer | None = None):
        """(problems, wall seconds, report.json bytes or None, report or None)."""
        out = self.workdir / outdir
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "converge",
            "--manifest", str(self.manifest),
            "--seed", str(seed),
            "--paths", str(paths),
            "--workers", str(self.workers),
            "--outdir", str(out),
        ]
        problems = []
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
        except Exception:
            rc = None
            problems.append(f"converge seed={seed} raised:\n{traceback.format_exc()}")
        wall = perf_counter() - t0
        raw = report = None
        if rc is not None and rc != 0:
            problems.append(f"converge seed={seed} exited with {rc} (0 means the rate floor is met)")
        if rc == 0:
            raw = (out / "report.json").read_bytes()
            report = json.loads(raw)
            problems += self.check_report(report, paths, seed)
        return problems, wall, raw, report

    @staticmethod
    def check_report(report: dict, paths: int, seed: int) -> list[str]:
        problems = []
        for lvl in report["levels"]:
            total = lvl["retained"] + lvl["discarded"] + lvl["aborted"]
            if total != paths:
                problems.append(f"seed={seed} n={lvl['n']}: retained+discarded+aborted={total} != paths={paths}")
        monitor = [lvl["mean_norm_inf_sq"] for lvl in report["levels"]]
        if not all(math.isfinite(m) and m > 0 for m in monitor):
            problems.append(f"seed={seed}: moment monitor not finite and positive: {monitor}")
        elif max(monitor) / min(monitor) > MONITOR_RATIO:
            problems.append(f"seed={seed}: moment monitor max/min={max(monitor) / min(monitor):.3f} > {MONITOR_RATIO}")
        return problems

    @staticmethod
    def aborted_paths(report: dict | None) -> int:
        # a path that aborts on the fine grid aborts on every level, so the
        # largest per-level count is the number of distinct aborted paths
        # whenever aborts come from the fine solve
        return max((lvl["aborted"] for lvl in report["levels"]), default=0) if report else 0

    def reference_problems(self, report: dict | None) -> list[str]:
        if report is None:
            return []
        problems = []
        for lvl, ref in zip(report["levels"], self.reference["levels"], strict=True):
            for key in ("retained", "discarded", "aborted"):
                if lvl[key] != ref[key]:
                    problems.append(f"reference n={lvl['n']}: {key}={lvl[key]} != {ref[key]}")
            for key in ("err2_norm2", "err2_sup"):
                if not close_enough(lvl[key], ref[key]):
                    problems.append(f"reference n={lvl['n']}: {key}={lvl[key]!r} != {ref[key]!r}")
        return problems

    def record_reference(self) -> dict:
        problems, _, _, report = self.converge(REF_SEED, self.warmup_paths, "reference")
        if problems:
            raise RuntimeError("\n".join(problems))
        keys = ("n", "retained", "discarded", "aborted", "err2_norm2", "err2_sup")
        return {"paths": self.warmup_paths, "levels": [{k: lvl[k] for k in keys} for lvl in report["levels"]]}

    # -- set-up and measurement

    def setup(self, tally: Tally) -> float:
        """One cold set-up: empty the caches, then a one-chunk converge run on
        the same grid at the reference seed, checked against the reference."""
        clear_caches()
        problems, wall, _, report = self.converge(REF_SEED, self.warmup_paths, "setup")
        tally.converge_run(self.warmup_paths, self.aborted_paths(report), problems + self.reference_problems(report))
        return wall

    def prime(self, seed: int, tally: Tally) -> None:
        """One full-size run, checked but not timed: it grows the heap and
        starts the workers, which the 64-path set-up does not."""
        problems, _, _, report = self.converge(unit_seed(seed, 0), self.paths, "run")
        tally.converge_run(self.paths, self.aborted_paths(report), problems)

    def measure(self, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
        setups, setups_ref, setup_kernel_s = calibrated_setups(lambda: self.setup(tally))
        self.prime(seed, tally)
        rates, scaled = [], []
        cal = Calibration()
        deadline = perf_counter() + seconds
        i = 1
        while i == 1 or perf_counter() < deadline:
            problems, wall, _, report = self.converge(unit_seed(seed, i), self.paths, "run")
            tally.converge_run(self.paths, self.aborted_paths(report), problems)
            rates.append(self.paths / wall)
            scaled.append(rates[-1] / cal.next())
            i += 1
        details = {
            "paths_per_run": self.paths,
            "runs": len(rates),
            "rates": rates,
            "kernel_s": cal.kernel_times,
            "setup_runs_s": setups,
            "setup_kernel_s": setup_kernel_s,
        }
        return {"paths_per_s": median(scaled), "cold_setup_s": median(setups_ref)}, details

    def _targets(self, tracer: Tracer) -> list:
        """Every function cli and convergence import from another program
        module, plus the required boundaries; cli.preset also times the
        coefficient callables of the set it returns."""

        def plain(name, size=None):
            return lambda original: tracer.wrap(original, name, size)

        makes = {}
        for module in (cli, convergence):
            for attr, obj in vars(module).items():
                home = getattr(obj, "__module__", None) or ""
                if callable(obj) and not isinstance(obj, type) and home.startswith("mixedsde.") and home != module.__name__:
                    makes[module, attr] = plain(_span_name(obj, attr), _SPAN_SIZES.get(attr))
        for module, attr in MC_BOUNDARIES:
            makes.setdefault((module, attr), plain(_span_name(module, attr)))

        def timed_preset(original):
            traced = tracer.wrap(original, "coefficients.preset")
            return lambda *args, **kwargs: timed_coefficients(tracer, traced(*args, **kwargs))

        makes[cli, "preset"] = timed_preset
        return [(module, attr, make) for (module, attr), make in makes.items()]

    def traced_unit(self, seed: int, paths: int, outdir: str):
        tracer = Tracer()
        with patched(self._targets(tracer)):
            problems, wall, raw, report = self.converge(seed, paths, outdir, tracer)
        return tracer, problems, wall, raw, report

    def measure_traced(self, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
        clear_caches()
        tracer, problems, _, _, report = self.traced_unit(REF_SEED, self.warmup_paths, "setup")
        tally.converge_run(self.warmup_paths, self.aborted_paths(report), problems + self.reference_problems(report))
        weights = [s for s in tracer.spans if s.name == "fbm._volterra_weights"]
        self.prime(seed, tally)
        layers, walls_u, walls_t, union, reports = [], [], [], 0.0, []
        deadline = perf_counter() + seconds
        i = 1
        while i == 1 or perf_counter() < deadline:
            s = unit_seed(seed, i)
            # alternate which side runs first, so drift favours neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer, p_t, w_t, raw_t, rep_t = self.traced_unit(s, self.paths, "traced")
                else:
                    p_u, w_u, raw_u, rep_u = self.converge(s, self.paths, "untraced")
            problems = p_u + p_t
            if not problems and raw_t != raw_u:
                problems.append(f"seed={s}: traced and untraced report.json differ")
            tally.converge_run(self.paths, self.aborted_paths(rep_u), problems)
            walls_u.append(w_u)
            walls_t.append(w_t)
            union += union_length((sp.start, sp.end) for sp in tracer.spans)
            layers.append(self.unit_layers(tracer))
            if rep_t is not None:
                reports.append(rep_t)
            i += 1
        levels = [lvl for rep in reports for lvl in rep["levels"]]
        extra = {
            "fbm.volterra_weights_s": sum(w.duration for w in weights),
            "fbm.volterra_weights_calls": len(weights),
            "convergence.retained_frac": (
                sum(lvl["retained"] for lvl in levels) / (len(levels) * self.paths) if levels else 0.0
            ),
            "convergence.localized_frac": (
                sum(rep["localization_fraction"] for rep in reports) / len(reports) if reports else 0.0
            ),
            "convergence.aborted_paths": sum(self.aborted_paths(rep) for rep in reports) / max(len(reports), 1),
            "trace.overhead_frac": median(walls_t) / median(walls_u) - 1.0,
            "trace.coverage": union / sum(walls_t),
        }
        details = {"paths_per_run": self.paths, "pairs": len(walls_t), "untraced_s": walls_u, "traced_s": walls_t}
        return per_layer_result(layers, extra), details

    def unit_layers(self, tracer: Tracer) -> dict:
        selfs = self_times(tracer.spans)
        values = layer_values(tracer, selfs)
        euler = [s for s in tracer.spans if s.name == "euler._euler_solve_batch"]
        values["euler.fine_solve_s"] = sum(selfs[s.sid] for s in euler if s.size == self.fine_n)
        values["euler.coarse_solve_s"] = sum(selfs[s.sid] for s in euler if s.size != self.fine_n)
        mc = [s for s in tracer.spans if s.name == "convergence.mc_strong_error"]
        busy = sum(s.duration for s in tracer.spans if mc and s.parent == mc[0].sid)
        values["convergence.worker_util"] = busy / (mc[0].duration * self.workers) if mc else 0.0
        return values


# boundaries whose layers the traces measure; a missing one fails the traced
# run with its name instead of silently dropping the layer
MC_BOUNDARIES = (
    (cli, "mc_strong_error"),
    (cli, "check_hypotheses"),
    (cli, "preset"),
    (convergence, "_chunk_noise"),
    (convergence, "_stop_batch"),
    (convergence, "_wiener_values_batch"),
    (convergence, "_fbm_values_batch"),
    (convergence, "_volterra_weights"),
    (convergence, "_holder_cumulative_batch"),
    (convergence, "_euler_solve_batch"),
    (convergence, "_interpolate_on_fine"),
    (convergence, "_increment_bracket_batch"),
)
SINGLE_BOUNDARIES = (
    (fbm, "_fbm_values_batch"),
    (fraccalc, "increment_bracket"),
    (fraccalc, "_left_deriv_nodes"),
)
PUBLIC_CALLS = {
    "pair": "generate_noise_pair",
    "solve": "euler_solve",
    "holder": "holder_functional",
    "norm_inf": "norm_inf_alpha",
    "norm_2": "norm_2_alpha",
    "young": "young_integral",
}

# ---------------------------------------------------------------------------
# single-path workload


class SinglePathWorkload:
    """Front-end sessions on the public API, one simulated path each."""

    def __init__(self, name: str, workdir: Path, workers: int):
        missing = [f"mixedsde.{fn}" for fn in PUBLIC_CALLS.values() if not hasattr(mixedsde, fn)]
        if missing:
            raise BoundaryMissing(f"public API functions not found: {', '.join(missing)}")
        self.api = {call: getattr(mixedsde, fn) for call, fn in PUBLIC_CALLS.items()}
        self.coeffs = mixedsde.preset("linear")
        self.reference = json.loads(REFERENCE_PATH.read_text())["single-path"]

    def session(self, seed: int, api: dict, coeffs, reference: dict | None = None):
        """Run one session; returns (outputs, latencies, first bad call index
        or None, problems). Each call is timed and checked as it returns."""
        outputs, latencies = {}, {}
        call = SESSION_CALLS[0]

        def timed(name, *args):
            nonlocal call
            call = name
            t0 = perf_counter()
            value = api[name](*args)
            latencies[name] = perf_counter() - t0
            return value

        def record(value: float, ok: bool, what: str) -> None:
            expect(ok and math.isfinite(value), f"seed={seed} {call}: {what} (got {value!r})")
            if reference is not None:
                expect(close_enough(value, reference[call]), f"seed={seed} {call}: {value!r} != reference {reference[call]!r}")
            outputs[call] = value

        try:
            pair = timed("pair", TimeGrid(1.0, N_PAIR), H, seed)
            record(float(pair.bh.values[-1]), True, "B^H_T not finite")
            sol = timed("solve", coeffs, pair, X0, TimeGrid(1.0, N_SOLVE))
            record(float(sol.values[-1]), bool(np.all(np.isfinite(sol.values))), "solution not finite")
            k = timed("holder", pair.bh.restrict(TimeGrid(1.0, N_HOLDER)), ETA)
            record(k.value, k.value > 0.0, "Holder functional not positive")
            grid = TimeGrid(1.0, N_NORM)
            x = mixedsde.SampledFunction(grid.nodes, sol.values[:: N_SOLVE // N_NORM])
            n_inf = timed("norm_inf", x, ALPHA)
            record(n_inf, n_inf > 0.0, "norm_inf_alpha not positive")
            n_2 = timed("norm_2", x, ALPHA)
            bound = mixedsde.norms_comparison_constant(ALPHA, 0.0, 1.0) * n_inf
            record(n_2, n_2 <= bound * (1.0 + 1e-12), f"norm_2_alpha above C * norm_inf_alpha = {bound!r}")
            g = mixedsde.SampledFunction(grid.nodes, pair.bh.values[:: N_PAIR // N_NORM])
            y = timed("young", mixedsde.SampledFunction(grid.nodes, grid.nodes), g, ALPHA)
            # against piecewise-linear g, the integral of t dg is exactly
            # sum over cells of midpoint * increment
            terms = 0.5 * (grid.nodes[1:] + grid.nodes[:-1]) * np.diff(g.y)
            exact = float(np.sum(terms))
            err = abs(y - exact) / float(np.sum(np.abs(terms)))
            record(y, err <= YOUNG_TOL, f"young_integral off the exact sum {exact!r} by {err:.2e} > {YOUNG_TOL}")
        except Exception as exc:
            detail = str(exc) if isinstance(exc, CheckFailed) else f"seed={seed} {call} raised:\n{traceback.format_exc()}"
            return outputs, latencies, SESSION_CALLS.index(call), [detail]
        return outputs, latencies, None, []

    def record_reference(self) -> dict:
        outputs, _, bad, problems = self.session(REF_SEED, self.api, self.coeffs)
        if bad is not None:
            raise RuntimeError("\n".join(problems))
        return outputs

    def _checked_session(self, seed: int, tally: Tally, api=None, coeffs=None, reference=None):
        t0 = perf_counter()
        outputs, latencies, bad, problems = self.session(
            seed, api or self.api, coeffs or self.coeffs, reference
        )
        wall = perf_counter() - t0
        tally.session(len(SESSION_CALLS), bad, problems)
        return outputs, latencies, wall

    def setup(self, tally: Tally) -> float:
        """One cold set-up: empty the caches, then one session at the
        reference seed, checked against the reference."""
        clear_caches()
        return self._checked_session(REF_SEED, tally, reference=self.reference)[2]

    def measure(self, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
        setups, setups_ref, setup_kernel_s = calibrated_setups(lambda: self.setup(tally))
        walls, latencies, scaled = [], [], []
        cal = Calibration()
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            _, lat, wall = self._checked_session(unit_seed(seed, i), tally)
            walls.append(wall)
            scaled.append(wall * cal.next())
            latencies.append(lat)
            i += 1
        details = {
            "sessions": i,
            "session_s": walls,
            "kernel_s": cal.kernel_times,
            "setup_runs_s": setups,
            "setup_kernel_s": setup_kernel_s,
            **_latency_summary(walls, latencies),
        }
        return {"paths_per_s": 1.0 / median(scaled), "cold_setup_s": median(setups_ref)}, details

    def traced_session(self, seed: int):
        """One session with the public calls and SINGLE_BOUNDARIES wrapped and
        the coefficients timed; its failures surface as differing outputs."""
        tracer = Tracer()
        api = {call: tracer.wrap(fn, _span_name(fn, fn.__name__)) for call, fn in self.api.items()}

        def wrap(attr):
            return lambda original: tracer.wrap(original, _span_name(original, attr), _SPAN_SIZES.get(attr))

        with patched([(module, attr, wrap(attr)) for module, attr in SINGLE_BOUNDARIES]):
            outputs, _, wall = self._checked_session(seed, Tally(), api, timed_coefficients(tracer, self.coeffs))
        return tracer, outputs, wall

    def measure_traced(self, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
        self.setup(tally)
        layers, walls_u, walls_t, lat_u, union = [], [], [], [], 0.0
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            s = unit_seed(seed, i)
            # alternate which side runs first, so drift favours neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer, out_t, wall_t = self.traced_session(s)
                else:
                    out_u, lat, wall_u = self._checked_session(s, tally)
            if out_t != out_u:
                tally.unit(0, 0, [f"seed={s}: traced and untraced session outputs differ"])
            walls_u.append(wall_u)
            walls_t.append(wall_t)
            lat_u.append(lat)
            union += union_length((sp.start, sp.end) for sp in tracer.spans)
            layers.append(layer_values(tracer, self_times(tracer.spans)))
            i += 1
        summary = _latency_summary(walls_u, lat_u)
        extra = {f"{call}_p50_ms": summary.get(f"{call}_p50_ms", 0.0) for call in ("pair", "solve", "holder", "norm", "young")}
        extra["trace.overhead_frac"] = median(walls_t) / median(walls_u) - 1.0
        extra["trace.coverage"] = union / sum(walls_t)
        details = {"pairs": i, "untraced_s": walls_u, "traced_s": walls_t, **summary}
        return per_layer_result(layers, extra), details


def _latency_summary(walls: list, latencies: list) -> dict:
    """Median latency of each call (norm_inf and norm_2 together as norm)
    and the session tail, from complete sessions only."""
    done = [lat for lat in latencies if len(lat) == len(SESSION_CALLS)]
    if not done:
        return {}
    out = {}
    for name in ("pair", "solve", "holder", "young"):
        out[f"{name}_p50_ms"] = 1e3 * median([lat[name] for lat in done])
    out["norm_p50_ms"] = 1e3 * median([lat["norm_inf"] + lat["norm_2"] for lat in done])
    if len(walls) > TAIL_BEYOND:
        pct, value = tail(walls)
        out["session_tail"] = {"percentile": pct, "sessions": len(walls), "ms": 1e3 * value}
    return out


WORKLOADS = {"mc-accept": McWorkload, "mc-volterra-fine": McWorkload, "single-path": SinglePathWorkload}
