"""The zeroed-layer check of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LAYERS = ["fbm.fgn_s", "convergence.stop_s", "fbm.volterra_weights_s", "euler.solve_s"]


def _trace(parent: dict, change: dict) -> dict:
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def test_zeroed_layers_lists_nonzero_parent_metrics_that_read_0():
    trace1 = {
        "mc-accept": _trace(
            {"fbm.fgn_s": 0.3, "convergence.stop_s": 0.04, "fbm.volterra_weights_s": 0.0, "euler.solve_s": 0.4},
            {"fbm.fgn_s": 0.2, "convergence.stop_s": 0.0, "fbm.volterra_weights_s": 0.0},
        ),
        "mc-volterra-fine": _trace(
            {"fbm.fgn_s": 0.0, "convergence.stop_s": 0.02, "fbm.volterra_weights_s": 0.002, "euler.solve_s": 0.2},
            {"fbm.fgn_s": 0.1, "convergence.stop_s": 0.01, "fbm.volterra_weights_s": 0.003, "euler.solve_s": 0.1},
        ),
    }
    # a metric missing on the change counts as 0; one that was 0 already, or grew from 0, does not
    assert bench_pairs.zeroed_layers(LAYERS, trace1) == {"mc-accept": ["convergence.stop_s", "euler.solve_s"]}


def test_zeroed_layers_ignores_metrics_that_are_not_per_layer():
    trace1 = {"single-path": _trace({"paths_per_s": 3.0, "fbm.fgn_s": 0.1}, {"paths_per_s": 0.0, "fbm.fgn_s": 0.1})}
    assert bench_pairs.zeroed_layers(LAYERS, trace1) == {}
    assert bench_pairs.zeroed_layers(LAYERS, {}) == {}
