"""A replay does not depend on numpy's SIMD dispatch: every power over a
weight table is np.float_power (libm pow, the same bits on every CPU) and the
rate fit takes math.log, so `converge` writes the same report.json with
numpy's AVX-512 code switched off. On a CPU without AVX-512 the variable
switches nothing off, and the test passes trivially."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parents[1] / "src"
_AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def _converge(outdir: Path, coefficients: str, dependence: str, disabled: bool) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = _AVX512_OFF
    cmd = [sys.executable, "-m", "mixedsde.cli", "converge", "--preset", coefficients, "--dependence", dependence,
           "--paths", "300", "--levels", "16,32,64", "--m-fine", "3", "--eval-n", "64", "--workers", "1",
           "--outdir", str(outdir)]
    proc = subprocess.run(cmd, env=env, capture_output=True)
    return proc.returncode, (outdir / "report.json").read_bytes()


@pytest.mark.parametrize("coefficients", ["linear", "bounded-smooth"])
@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_report_is_the_same_with_avx512_dispatch_off(tmp_path, coefficients, dependence):
    on = _converge(tmp_path / "on", coefficients, dependence, disabled=False)
    assert on == _converge(tmp_path / "off", coefficients, dependence, disabled=True)
