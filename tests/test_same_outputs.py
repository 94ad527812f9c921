"""The run matrix and the comparison of tools/same_outputs.py."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("same_outputs", Path(__file__).parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _result(**changes):
    base = {"exit": 0, "stdout": b"wrote report to <outdir>\n", "report.json": b"{}", "report.csv": b"level_n\n",
            "report_loglog.csv": b"level_n\n", "manifest.json": b"{}"}
    return {**base, **changes}


def test_matrix_covers_presets_noise_thresholds_and_workers():
    everything = same_outputs.matrix()
    cholesky = {name: args for name, args in everything.items() if "--method" in args}
    off_grid = {name: args for name, args in everything.items() if "--threshold" not in args and name not in cholesky}
    threshold5 = {name: args for name, args in everything.items() if "-threshold5-" in name}
    paths1100 = {name: args for name, args in everything.items() if "-paths1100-" in name}
    high_h = {name: args for name, args in everything.items() if "--h" in args}
    off_grid = {name: args for name, args in off_grid.items() if name not in paths1100 and name not in high_h}
    special = {**off_grid, **cholesky, **threshold5, **paths1100, **high_h}
    runs = {name: args for name, args in everything.items() if name not in special}
    assert len(runs) == 24 and len(everything) == 40
    assert high_h == {
        f"linear-{dep}-h0.9-workers1": [
            "--preset", "linear", "--dependence", dep, "--workers", "1", "--h", "0.9", *same_outputs.COMMON
        ]
        for dep in ("independent", "volterra")
    }
    assert paths1100 == {
        f"linear-{dep}-paths1100-workers{workers}": [
            "--preset", "linear", "--dependence", dep, "--workers", workers, "--paths", "1100",
            *same_outputs.COMMON[2:],
        ]
        for dep in ("independent", "volterra") for workers in ("1", "3")
    }
    assert threshold5 == {
        f"linear-{dep}-threshold5-workers1": [
            "--preset", "linear", "--dependence", dep, "--workers", "1", "--threshold", "5", *same_outputs.COMMON
        ]
        for dep in ("independent", "volterra")
    }
    assert cholesky == {
        f"linear-independent-cholesky-workers{workers}": [
            "--preset", "linear", "--dependence", "independent", "--method", "cholesky", "--workers", workers,
            *same_outputs.COMMON,
        ]
        for workers in ("1", "2")
    }
    assert all(args[-8:] == ["--paths", "300", "--levels", "16,32,64", "--m-fine", "3", "--eval-n", "64"]
               for args in runs.values())
    tails = {
        "t0.3": ["--t", "0.3", *runs["linear-independent-threshold50-workers1"][-8:]],
        "levels2-8-mfine9": ["--paths", "300", "--levels", "2,4,8", "--m-fine", "9", "--eval-n", "64"],
        "eval49": ["--paths", "300", "--levels", "49,98,196", "--m-fine", "2", "--eval-n", "49"],
    }
    assert sorted(off_grid) == sorted(
        [f"linear-{dep}-{label}-workers1" for dep in ("independent", "volterra")
         for label in ("levels2-8-mfine9", "t0.3", "eval49")]
    )
    for name, args in off_grid.items():
        assert args[:6] == ["--preset", "linear", "--dependence", name.split("-")[1], "--workers", "1"]
        assert args[6:] == tails[name.split("-", 2)[2].rsplit("-", 1)[0]]
    forced = [name for name, args in runs.items() if "--force" in args]
    assert len(forced) == 8 and all(name.startswith("unbounded-b-") for name in forced)
    for flag, values in (("--preset", {"linear", "bounded-smooth", "unbounded-b"}),
                         ("--dependence", {"independent", "volterra"}), ("--threshold", {"50", "2"}),
                         ("--workers", {"1", "2"})):
        assert {args[args.index(flag) + 1] for args in runs.values()} == values


def test_identical_runs_have_no_differences():
    side = {"a": _result(), "b": _result(exit=3)}
    assert same_outputs.differences(side, {k: dict(v) for k, v in side.items()}) == {}


def test_differences_name_each_differing_output():
    parent = {"a": _result(), "b": _result(), "c": _result()}
    change = {
        "a": _result(**{"report.json": b"{ }"}),
        "b": _result(exit=1, stdout=b"", **{"manifest.json": None}),
        "c": _result(),
    }
    assert same_outputs.differences(parent, change) == {
        "a": ["report.json"],
        "b": ["exit", "manifest.json", "stdout"],
    }


def test_a_run_missing_on_one_side_differs_in_everything():
    diff = same_outputs.differences({"a": _result()}, {})
    assert diff == {"a": sorted(_result())}


def test_api_cases_cover_strides_presets_and_noise_past_one_block():
    cases = same_outputs.api_cases()
    assert len(cases) == 36
    assert {stride for _, stride, _, _ in cases} == {1, 2, 3, 45, 257, 384}
    assert {name for _, _, name, _ in cases} == {"linear", "bounded-smooth", "additive"}
    assert {dep for _, _, _, dep in cases} == {"independent", "volterra"}
    assert all(coarse_n >= 2 and coarse_n * stride > 512 for coarse_n, stride, _, _ in cases)


def _report(err: float, retained: int = 300) -> bytes:
    return (b'{"h": 0.7, "levels": [{"err2_sup": %r, "n": 16, "retained": %d}], "coefficients": "linear"}'
            % (err, retained))


def test_float_summary_takes_the_largest_relative_float_difference():
    parent = _result(**{"report.json": _report(0.25)})
    worst, same_rest = same_outputs.float_summary(parent, _result(**{"report.json": _report(0.25 * (1 + 3e-13))}))
    assert worst == pytest.approx(0.25 * 3e-13 / 0.7, rel=1e-3) and same_rest  # h = 0.7 is the largest float
    assert same_outputs.float_summary(parent, dict(parent)) == (0.0, True)


def test_float_summary_flags_counts_strings_and_exit_codes():
    parent = _result(**{"report.json": _report(0.25)})
    assert not same_outputs.float_summary(parent, _result(**{"report.json": _report(0.25, retained=299)}))[1]
    assert not same_outputs.float_summary(parent, _result(exit=3, **{"report.json": _report(0.25)}))[1]
    assert not same_outputs.float_summary(parent, _result(**{"report.json": _report(0.25).replace(b"linear", b"cubic")}))[1]
    assert not same_outputs.float_summary(parent, _result(**{"report.json": None}))[1]


def test_float_summary_reads_the_float_literals_of_the_api_text():
    parent = {"exit": 0, "stdout": b"linear volterra 3 0.5 PathwiseError(sup=np.float64(2.0e-3), count=7)\n"}
    change = {"exit": 0, "stdout": b"linear volterra 3 0.5 PathwiseError(sup=np.float64(2.2e-3), count=7)\n"}
    worst, same_rest = same_outputs.float_summary(parent, change)
    assert worst == pytest.approx(0.2e-3 / 0.5) and same_rest
    assert not same_outputs.float_summary(parent, {**change, "stdout": change["stdout"].replace(b"7", b"8")})[1]
    assert same_outputs.float_summary({"exit": 0, "stdout": b"nan -inf"}, {"exit": 0, "stdout": b"nan -inf"}) == (0.0, True)
    assert same_outputs.float_summary({"exit": 0, "stdout": b"1.0"}, {"exit": 0, "stdout": b"inf"})[0] == math.inf


def test_float_summary_keeps_a_last_bit_change_at_roundoff_level_at_roundoff():
    # the additive preset's pathwise error is about 1e-15; a last-bit sampler change moved
    # one such value from 1.55e-15 to 2.44e-15 (0.364 of itself) and a value near 1 by 5.7e-13
    parent = {"exit": 0, "stdout": b"additive (1.55e-15, 2.0e-15)\nlinear (0.5, 1.0)\n"}
    change = {"exit": 0, "stdout": b"additive (2.44e-15, 2.0e-15)\nlinear (0.500000000000285, 1.0)\n"}
    worst, same_rest = same_outputs.float_summary(parent, change)
    assert worst == pytest.approx(2.85e-13, rel=1e-3) and same_rest
