"""A replay does not depend on numpy's SIMD dispatch: every power over a
weight table and in the hypothesis check is np.float_power (libm pow, the
same bits on every CPU) and the rate fit takes math.log, so `converge` writes
the same report.json, and check_hypotheses gives the same ratios, with
numpy's AVX-512 code switched off. On a CPU without AVX-512 the variable
switches nothing off, and the tests pass trivially."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parents[1] / "src"
_AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def _env(disabled: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = _AVX512_OFF
    return env


def _converge(outdir: Path, coefficients: str, dependence: str, disabled: bool) -> tuple[int, bytes]:
    cmd = [sys.executable, "-m", "mixedsde.cli", "converge", "--preset", coefficients, "--dependence", dependence,
           "--paths", "300", "--levels", "16,32,64", "--m-fine", "3", "--eval-n", "64", "--workers", "1",
           "--outdir", str(outdir)]
    proc = subprocess.run(cmd, env=_env(disabled), capture_output=True)
    return proc.returncode, (outdir / "report.json").read_bytes()


@pytest.mark.parametrize("coefficients", ["linear", "bounded-smooth"])
@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_report_is_the_same_with_avx512_dispatch_off(tmp_path, coefficients, dependence):
    on = _converge(tmp_path / "on", coefficients, dependence, disabled=False)
    assert on == _converge(tmp_path / "off", coefficients, dependence, disabled=True)


# a time-dependent set whose (C) ratio read 19.436259490816635 with the AVX-512 pow and
# 19.43625949081663 without it while the check took array ** powers
_HYPOTHESES = """
from mixedsde.coefficients import check_hypotheses, coefficients_from_expressions
tdep = coefficients_from_expressions("tdep", "sin(3*t)*x", "0.2", "cos(t)*0.1*x", "cos(t)*0.1", 2.0, 0.75)
for seed in (3, 5):
    for r in check_hypotheses(tdep, seed=seed).results.values():
        print(repr(r.worst_ratio), r.witness)
"""


def test_hypothesis_ratios_are_the_same_with_avx512_dispatch_off():
    on, off = (subprocess.run([sys.executable, "-c", _HYPOTHESES], env=_env(disabled), capture_output=True, text=True)
               for disabled in (False, True))
    assert on.returncode == 0, on.stderr
    assert (on.returncode, on.stdout) == (off.returncode, off.stdout)
