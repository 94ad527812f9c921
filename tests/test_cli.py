import dataclasses
import json
import re

import numpy as np
import pytest

from mixedsde import cli, coefficients, convergence, fbm, fraccalc
from mixedsde.cli import _CONVERGE_DEFAULTS, _resolve_converge_settings, build_parser, main


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("MIXEDSDE_OUT", str(tmp_path))
    return tmp_path


def test_fbm_writes_csv_with_origin(outdir):
    assert main(["fbm", "--h", "0.7", "--n", "256", "--t", "1", "--seed", "42"]) == 0
    lines = (outdir / "fbm_h0.7_n256_seed42.csv").read_text().splitlines()
    assert len(lines) == 258  # header + 257 nodes
    assert lines[0] == "t,value"
    assert lines[1] == "0,0"


def test_output_directory_created_on_demand(outdir, monkeypatch):
    monkeypatch.setenv("MIXEDSDE_OUT", str(outdir / "does" / "not" / "exist"))
    assert main(["fbm", "--h", "0.7", "--n", "16", "--seed", "1"]) == 0
    assert (outdir / "does" / "not" / "exist" / "fbm_h0.7_n16_seed1.csv").exists()


def test_fbm_deterministic(outdir):
    args = ["fbm", "--h", "0.7", "--n", "64", "--seed", "9", "--method", "circulant-embedding"]
    assert main(args + ["--out", str(outdir / "a.csv")]) == 0
    assert main(args + ["--out", str(outdir / "b.csv")]) == 0
    assert (outdir / "a.csv").read_bytes() == (outdir / "b.csv").read_bytes()


def test_fbm_rejects_bad_hurst(capsys):
    assert main(["fbm", "--h", "0.3", "--n", "16"]) == 1
    assert "(1/2, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["fbm", "--h", "0.7", "--n", "65536"],
        ["solve", "--preset", "linear", "--h", "0.7", "--n", "8192"],
        ["converge", "--preset", "linear", "--levels", "16,32,64", "--m-fine", "7", "--paths", "2", "--eval-n", "64"],
    ],
    ids=["fbm", "solve", "converge"],
)
def test_cholesky_above_its_bound_exits_1(outdir, capsys, args):
    assert main(args + ["--method", "cholesky"]) == 1
    assert "O(n^2) memory" in capsys.readouterr().err
    assert not any(outdir.iterdir())


@pytest.mark.parametrize(
    "args",
    [["fbm", "--h", "0.7", "--n", "16777217"], ["solve", "--preset", "linear", "--h", "0.7", "--n", "16777217"]],
    ids=["fbm", "solve"],
)
def test_grid_above_max_steps_exits_1(outdir, capsys, args):
    assert main(args) == 1
    assert "error: n=16777217 exceeds MAX_STEPS=16777216" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_converge_fine_n_above_2_16_exits_1_before_any_noise(outdir, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: drawn.append(args))
    rc = main(
        ["converge", "--preset", "linear", "--levels", "16,32,64", "--m-fine", "11", "--paths", "1",
         "--workers", "1", "--outdir", str(outdir / "f")]
    )
    assert rc == 1
    assert "fine n = 64 * 2^11 exceeds 65536" in capsys.readouterr().err
    assert drawn == []
    assert not any(outdir.iterdir())


@pytest.mark.parametrize(
    "args, message",
    [(["--paths", "4194305"], "paths=4194305 exceeds 4194304"), (["--eval-n", "8192"], "eval_n=8192 exceeds 4096"),
     (["--h", "0.3"], "Hurst"), (["--workers", "65"], "workers=65 exceeds 64")],
)
def test_converge_refuses_a_setting_before_the_hypothesis_gate(outdir, capsys, monkeypatch, args, message):
    monkeypatch.setattr(cli, "check_hypotheses", lambda *a, **k: pytest.fail("gate ran before the settings check"))
    rc = main(["converge", "--preset", "linear", "--m-fine", "6", *args, "--outdir", str(outdir / "g")])
    assert rc == 1 and message in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_converge_norm_comparison_failure_exits_3_naming_the_path(outdir, capsys, monkeypatch):
    monkeypatch.setattr(convergence, "norms_comparison_constant", lambda *args: 1e-6)
    assert main(["converge", "--preset", "linear", *_SMALL_RUN, "--outdir", str(outdir / "c")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: norm comparison ||f||_2 <= C ||f||_inf violated")
    assert "in chunk 0, level n=8, path 0: ||f||_2 / (C ||f||_inf) = " in err
    assert not (outdir / "c" / "report.json").exists()


def test_converge_prints_the_verdicts_its_exit_code_gives(outdir, capsys, monkeypatch):
    reports = []

    def norm2_passes_sup_fails(*args, **kwargs):
        rep = convergence.mc_strong_error(*args, **kwargs)
        slope = 2.0 * rep.rate_floor
        reports.append(dataclasses.replace(rep, fit_norm2=(slope, 0.01, 0.0), fit_sup=(slope - 0.1, 0.01, 0.0)))
        return reports[-1]

    monkeypatch.setattr(cli, "mc_strong_error", norm2_passes_sup_fails)
    assert main(["converge", "--preset", "linear", *_SMALL_RUN, "--outdir", str(outdir / "v")]) == 3
    out = capsys.readouterr().out
    assert re.search(r"^norm2: .* -> pass$", out, re.M) and re.search(r"^sup: .* -> FAIL$", out, re.M)
    assert not reports[0].degenerate and not reports[0].passes_rate_floor()
    assert not reports[0].fit_passes(None)


def test_fbm_pair_output(outdir):
    assert main(["fbm", "--h", "0.7", "--n", "32", "--seed", "1", "--pair"]) == 0
    lines = (outdir / "pair_h0.7_n32_seed1.csv").read_text().splitlines()
    assert lines[0] == "t,w,bh"
    assert len(lines) == 34


def test_integrate_constant_integrand(outdir, capsys):
    assert main(["fbm", "--h", "0.7", "--n", "512", "--seed", "5", "--out", str(outdir / "g.csv")]) == 0
    capsys.readouterr()
    assert main(["integrate", "--f", "one", "--g", str(outdir / "g.csv"), "--alpha", "0.35"]) == 0
    printed = float(capsys.readouterr().out.strip())
    data = np.loadtxt(outdir / "g.csv", delimiter=",", skiprows=1)
    assert printed == pytest.approx(data[-1, 1] - data[0, 1], rel=1e-3)


def test_integrate_expression_integrand(outdir, capsys):
    # int_0^1 t d(t^2) = 2/3 with g sampled from a solve-free route
    t = np.arange(1025) / 1024
    with open(outdir / "gq.csv", "w") as fh:
        fh.write("t,value\n")
        for ti in t:
            fh.write(f"{ti:.17g},{ti*ti:.17g}\n")
    assert main(["integrate", "--f", "t", "--g", str(outdir / "gq.csv"), "--alpha", "0.3"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(2.0 / 3.0, rel=1e-4)


def test_integrate_csv_integrand(outdir, capsys):
    # int_0^1 g dg = g(1)^2 / 2 = 1/2 for g(t) = t^2; f must share g's nodes
    for name, n in (("g.csv", 1024), ("f.csv", 512)):
        t = np.arange(n + 1) / n
        np.savetxt(outdir / name, np.column_stack([t, t * t]), fmt="%.17g", delimiter=",", header="t,value",
                   comments="")
    assert main(["integrate", "--f", str(outdir / "g.csv"), "--g", str(outdir / "g.csv"), "--alpha", "0.3"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, rel=1e-4)
    assert main(["integrate", "--f", str(outdir / "f.csv"), "--g", str(outdir / "g.csv"), "--alpha", "0.3"]) == 1
    assert "error: f and g must be sampled on the same nodes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0\n", "a sampled function needs at least 2 nodes, got 1"),
        ("0,0\n0.5,1\n0.25,2\n1,3\n", "nodes must be strictly increasing"),
        ("0,0\n0.1,1\n0.3,2\n0.6,3\n", "nodes must be uniformly spaced"),
        ("0,0\n0.25,nan\n0.5,2\n0.75,3\n1,4\n", "values must be finite"),
    ],
)
def test_integrate_refuses_a_bad_sample_csv(outdir, capsys, rows, message):
    (outdir / "g.csv").write_text("t,value\n" + rows)
    assert main(["integrate", "--f", "one", "--g", str(outdir / "g.csv"), "--alpha", "0.3"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expression, message",
    [("x +", "cannot parse expression 'x +'"), ("exp(x=1)", "keyword arguments not allowed in expressions")],
)
def test_coefficient_flag_refuses_a_bad_expression(capsys, expression, message):
    coefficients = ["--a", expression, "--b", "0", "--c", "0", "--dc", "0", "--k", "1", "--beta", "0.75"]
    assert main(["check", *coefficients]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_solve_writes_path(outdir, capsys):
    assert main(["solve", "--preset", "linear", "--h", "0.7", "--n", "128", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "X_T" in out
    lines = (outdir / "solve_linear_h0.7_n128_seed7.csv").read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 130
    assert lines[1] == "0,1"


def test_solve_custom_coefficients(outdir):
    rc = main(
        [
            "solve", "--a", "0.1 * x", "--b", "0.1", "--c", "0.2 * x", "--dc", "0.2",
            "--k", "1.0", "--beta", "0.75", "--h", "0.8", "--n", "64", "--seed", "3",
            "--out", str(outdir / "c.csv"),
        ]
    )
    assert rc == 0


def test_check_exit_codes():
    assert main(["check", "--preset", "linear"]) == 0
    assert main(["check", "--preset", "quadratic-c"]) == 2
    assert main(["check", "--preset", "unbounded-b"]) == 2


def test_check_names_failed_hypothesis(capsys):
    main(["check", "--preset", "quadratic-c"])
    out = capsys.readouterr().out
    assert "(A) FAIL" in out and "(E) FAIL" in out


def test_converge_degenerate_zero_model(outdir, capsys):
    rc = main(
        [
            "converge", "--preset", "zero", "--paths", "5", "--levels", "8,16,32",
            "--m-fine", "2", "--eval-n", "32", "--outdir", str(outdir / "z"), "--workers", "1",
        ]
    )
    assert rc == 0
    assert "degenerate" in capsys.readouterr().out


def test_converge_refuses_bad_preset(capsys):
    rc = main(["converge", "--preset", "quadratic-c", "--paths", "5", "--levels", "8,16,32", "--m-fine", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(A)" in err


def test_converge_force_overrides_gate(outdir):
    rc = main(
        [
            "converge", "--preset", "unbounded-b", "--force", "--paths", "10",
            "--levels", "8,16,32", "--m-fine", "2", "--eval-n", "32",
            "--outdir", str(outdir / "f"), "--workers", "1",
        ]
    )
    assert rc == 0


def test_converge_manifest_replay_bit_for_bit(outdir):
    manifest = {"paths": 40, "levels": [8, 16, 32], "m_fine": 3, "seed": 9, "eval_n": 64}
    (outdir / "m.json").write_text(json.dumps(manifest))
    rc = main(
        ["converge", "--manifest", str(outdir / "m.json"), "--outdir", str(outdir / "r1"), "--workers", "1"]
    )
    assert rc == 0
    rc = main(
        ["converge", "--manifest", str(outdir / "r1" / "manifest.json"),
         "--outdir", str(outdir / "r2"), "--workers", "4"]
    )
    assert rc == 0
    for name in ("report.json", "report.csv", "report_loglog.csv", "manifest.json"):
        assert (outdir / "r1" / name).read_bytes() == (outdir / "r2" / name).read_bytes()


def test_converge_flag_overrides_manifest(outdir):
    manifest = {"paths": 40, "levels": [8, 16, 32], "m_fine": 3, "seed": 9, "eval_n": 64}
    (outdir / "m.json").write_text(json.dumps(manifest))
    rc = main(
        ["converge", "--manifest", str(outdir / "m.json"), "--paths", "12",
         "--outdir", str(outdir / "o"), "--workers", "1"]
    )
    assert rc == 0
    report = json.loads((outdir / "o" / "report.json").read_text())
    assert report["paths"] == 12


def test_converge_rejects_unknown_manifest_keys(outdir):
    (outdir / "bad.json").write_text(json.dumps({"paths": 5, "bogus": 1}))
    assert main(["converge", "--manifest", str(outdir / "bad.json")]) == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"preset": "linear", "K": 9},
        {"preset": None, "a": "0.1 * x", "b": "0.1", "c": "0.2 * x", "dc": "0.2", "k": 1.0, "beta": 0.75, "gamma": 2},
    ],
)
def test_converge_rejects_unknown_coefficient_keys(outdir, capsys, spec):
    (outdir / "m.json").write_text(json.dumps({"paths": 5, "coefficients": spec}))
    rc = main(["converge", "--manifest", str(outdir / "m.json"), *_SMALL_RUN, "--outdir", str(outdir / "r")])
    assert rc == 1
    stray = "K" if "K" in spec else "gamma"
    assert f"unknown manifest coefficient keys: ['{stray}']" in capsys.readouterr().err
    assert not (outdir / "r").exists()


def test_converge_numerical_failure_exit_code(outdir, capsys):
    # an impossible restriction radius discards every path, so no rate fits
    rc = main(
        [
            "converge", "--preset", "linear", "--paths", "10", "--levels", "8,16,32",
            "--m-fine", "2", "--eval-n", "32", "--r-bound", "1e-9",
            "--outdir", str(outdir / "n"), "--workers", "1",
        ]
    )
    assert rc == 3
    assert "could not fit" in capsys.readouterr().out


def test_converge_rejects_zero_workers(outdir, capsys):
    rc = main(
        [
            "converge", "--preset", "linear", "--paths", "4", "--levels", "8,16,32",
            "--m-fine", "2", "--outdir", str(outdir / "w"), "--workers", "0",
        ]
    )
    assert rc == 1
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("levels", [16, 32.5, 64]), ("eval_n", 32.5), ("m_fine", 2.0), ("paths", 20.5), ("paths", "20")],
)
def test_converge_refuses_a_manifest_setting_that_is_not_an_integer(outdir, capsys, key, value):
    manifest = {"paths": 20, "levels": [16, 32, 64], "m_fine": 2, "eval_n": 64, key: value}
    (outdir / "m.json").write_text(json.dumps(manifest))
    assert main(["converge", "--manifest", str(outdir / "m.json"), "--outdir", str(outdir / "r")]) == 1
    err = capsys.readouterr().err
    assert key in err and "must be an integer" in err and "Traceback" not in err
    assert [p.name for p in outdir.iterdir()] == ["m.json"]


_CUSTOM_SPEC = {"a": "0.1 * x", "b": "0.1", "c": "0.2 * x", "dc": "0.2", "k": 1.0, "beta": 0.75}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("threshold", "50", "threshold must be a number, got '50'"),
        ("h", "0.7", "h must be a number, got '0.7'"),
        ("r_bound", True, "r_bound must be a number, got True"),
        ("levels", 16, "levels must be a list, got 16"),
        ("dependence", 3, "dependence must be a string, got 3"),
        ("coefficients", "linear", "coefficients must be an object, got 'linear'"),
        ("coefficients", dict(_CUSTOM_SPEC, a=1), "coefficients entry a must be a string, got 1"),
        ("coefficients", dict(_CUSTOM_SPEC, k="1"), "coefficients entry k must be a number, got '1'"),
    ],
)
def test_converge_refuses_a_manifest_setting_of_the_wrong_type(outdir, capsys, key, value, message):
    manifest = {"paths": 20, "levels": [16, 32, 64], "m_fine": 2, "eval_n": 64, key: value}
    (outdir / "m.json").write_text(json.dumps(manifest))
    assert main(["converge", "--manifest", str(outdir / "m.json"), "--outdir", str(outdir / "r")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert [p.name for p in outdir.iterdir()] == ["m.json"]


def test_help_documents_flags():
    parser = build_parser()
    for cmd, flags in {
        "fbm": ["--h", "--n", "--t", "--seed", "--method", "--pair", "--out"],
        "integrate": ["--f", "--g", "--alpha"],
        "solve": ["--preset", "--h", "--n", "--x0", "--seed"],
        "check": ["--preset", "--samples", "--seed"],
        "converge": ["--manifest", "--levels", "--paths", "--workers", "--force", "--epsilon"],
    }.items():
        sub = None
        for action in parser._subparsers._group_actions:
            sub = action.choices[cmd]
        text = sub.format_help()
        for flag in flags:
            assert flag in text, (cmd, flag)
    # admissible ranges are stated
    fbm_help = [a for a in parser._subparsers._group_actions][0].choices["fbm"].format_help()
    assert "(1/2, 1)" in fbm_help


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["fbm"])  # missing required flags
    assert exc.value.code == 1


_CUSTOM = ["--a", "0.1 * x", "--b", "0.1", "--c", "0.2 * x", "--dc", "0.2", "--k", "1.0", "--beta", "0.75"]
_SMALL_RUN = ["--paths", "5", "--levels", "8,16,32", "--m-fine", "2", "--eval-n", "32", "--workers", "1"]


def test_converge_partial_custom_flags_refused(outdir, capsys):
    # no --a: the flags still select custom coefficients, which are incomplete
    rc = main(
        ["converge", "--b", "0.9", "--c", "x", "--dc", "1", "--k", "2", "--beta", "0.75",
         *_SMALL_RUN, "--outdir", str(outdir / "p")]
    )
    assert rc == 1
    assert "missing: a" in capsys.readouterr().err
    assert not (outdir / "p" / "manifest.json").exists()


def test_solve_preset_with_custom_flag_refused(outdir, capsys):
    rc = main(["solve", "--preset", "linear", "--a", "x*100", "--h", "0.7", "--n", "16"])
    assert rc == 1
    assert "--preset --a" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command", ["check", "converge"])
def test_preset_with_custom_flags_refused(outdir, capsys, command):
    rc = main([command, "--preset", "linear", "--k", "3", "--beta", "0.8"])
    assert rc == 1
    assert "--preset --k --beta" in capsys.readouterr().err


def test_converge_manifest_with_preset_and_custom_refused(outdir, capsys):
    manifest = {"paths": 5, "coefficients": {"preset": "linear", "c": "x"}}
    (outdir / "m.json").write_text(json.dumps(manifest))
    assert main(["converge", "--manifest", str(outdir / "m.json")]) == 1
    assert "--preset --c" in capsys.readouterr().err


def test_converge_custom_flags_replace_manifest_preset(outdir):
    manifest = {"paths": 5, "coefficients": {"preset": "bounded-smooth"}}
    (outdir / "m.json").write_text(json.dumps(manifest))
    rc = main(
        ["converge", "--manifest", str(outdir / "m.json"), *_CUSTOM, *_SMALL_RUN, "--outdir", str(outdir / "c")]
    )
    assert rc == 0
    written = json.loads((outdir / "c" / "manifest.json").read_text())
    assert written["coefficients"] == {
        "preset": None, "a": "0.1 * x", "b": "0.1", "c": "0.2 * x", "dc": "0.2", "k": 1.0, "beta": 0.75,
    }
    assert json.loads((outdir / "c" / "report.json").read_text())["coefficients"] == "custom"


# two values of each converge setting, both off its default, as flag strings
_ALTERNATIVES = {
    "dependence": ("volterra", "volterra-from-same-wiener"),
    "method": ("cholesky", "circulant"),
    "levels": ("8,16,32", "8,16"),
}


@pytest.mark.parametrize("key", [k for k in _CONVERGE_DEFAULTS if k != "coefficients"])
def test_every_converge_setting_can_be_overridden(outdir, key):
    default = _CONVERGE_DEFAULTS[key]
    if key in _ALTERNATIVES:
        flag_text, manifest_text = _ALTERNATIVES[key]
    else:
        flag_text, manifest_text = str(default + 1), str(default + 2)
    flag = "--" + key.replace("_", "-")
    parse = build_parser().parse_args
    manifest_value = _resolve_converge_settings(parse(["converge", flag, manifest_text]))[key]
    (outdir / "m.json").write_text(json.dumps({key: manifest_value}))
    from_manifest = _resolve_converge_settings(parse(["converge", "--manifest", str(outdir / "m.json")]))
    assert from_manifest == dict(_CONVERGE_DEFAULTS, **{key: manifest_value})
    overridden = _resolve_converge_settings(
        parse(["converge", "--manifest", str(outdir / "m.json"), flag, flag_text])
    )
    assert overridden[key] not in (default, manifest_value)
    assert overridden == dict(_CONVERGE_DEFAULTS, **{key: overridden[key]})


def test_eval_n_above_4096_refused(outdir, capsys):
    rc = main(
        ["converge", "--preset", "linear", "--paths", "4", "--levels", "16,32,64", "--m-fine", "7",
         "--eval-n", "8192", "--workers", "1", "--outdir", str(outdir / "e")]
    )
    assert rc == 1
    assert "eval_n=8192 exceeds 4096" in capsys.readouterr().err


def _no_holder(*args):
    raise AssertionError("Holder functional computed above the fbm bound")


@pytest.mark.parametrize("extra, name, labels", [
    ([], "fbm_h0.7_n32768_seed2.csv", ["bh"]),
    (["--pair"], "pair_h0.7_n32768_seed2.csv", ["w", "bh"]),
])
def test_fbm_skips_holder_functional_above_bound(outdir, capsys, monkeypatch, extra, name, labels):
    monkeypatch.setattr(cli, "holder_functional", _no_holder)
    assert main(["fbm", "--h", "0.7", "--n", "32768", "--seed", "2", *extra]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == labels
    for line in lines[:-1]:
        assert "min=" in line and "max=" in line
        assert line.endswith("K^(0.1)_T not computed (n > 16384, O(n^2))")
    assert len((outdir / name).read_text().splitlines()) == 32770


def test_fbm_holder_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(fraccalc, "_PAIR_N_MAX", 64)
    assert main(["fbm", "--h", "0.7", "--n", "64"]) == 0
    assert "K^(0.1)_T=" in capsys.readouterr().out
    assert main(["fbm", "--h", "0.7", "--n", "128"]) == 0
    assert "not computed (n > 64" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eval-n", "0"], "eval_n must be at least 1, got 0"),
        (["--r-bound", "-1"], "r_bound must be positive (inf for no restriction), got -1.0"),
        (["--r-bound", "nan"], "r_bound must be positive (inf for no restriction), got nan"),
        (["--x0", "nan"], "x0 must be finite, got nan"),
        (["--paths", "4194305"], "paths=4194305 exceeds 4194304"),
        (["--workers", "65"], "workers=65 exceeds 64"),
        (["--seed", "-1"], "seed must be at least 0, got -1"),
    ],
    ids=["eval-n-0", "r-bound-negative", "r-bound-nan", "x0-nan", "paths-above-2-22", "workers-above-64",
         "seed-negative"],
)
def test_converge_refuses_a_bad_setting_before_any_noise(outdir, capsys, monkeypatch, flags, message):
    drawn = []
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: drawn.append(args))
    monkeypatch.setattr(convergence, "ThreadPoolExecutor", lambda *args, **kwargs: drawn.append("pool"))
    rc = main(["converge", "--preset", "linear", "--paths", "4", "--levels", "8,16,32", "--m-fine", "2",
               "--workers", "2", *flags, "--outdir", str(outdir / "b")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert drawn == []
    assert not any(outdir.iterdir())


_SOLVE = ["solve", "--preset", "linear", "--h", "0.7", "--n", "16"]
# (arguments, what stderr states); each names the refused input
_REFUSED = {
    "check-x-degenerate": (["check", "--preset", "linear", "--x-min", "0", "--x-max", "0"],
                           "error: x_range must be an interval with lo < hi, got [0.0, 0.0]"),
    "check-x-inverted": (["check", "--preset", "linear", "--x-min", "1", "--x-max", "-1"],
                         "error: x_range must be an interval with lo < hi, got [1.0, -1.0]"),
    "check-t-inverted": (["check", "--preset", "linear", "--t-min", "1", "--t-max", "0"],
                         "error: t_range must be an interval with lo < hi, got [1.0, 0.0]"),
    "check-x-nan": (["check", "--preset", "linear", "--x-min", "nan"], "error: x_range entry must be finite, got nan"),
    "check-t-inf": (["check", "--preset", "linear", "--t-max", "inf"], "error: t_range entry must be finite, got inf"),
    "check-samples-2049": (["check", "--preset", "linear", "--samples", "2049"], "error: samples=2049 exceeds 2048"),
    "solve-x0-nan": ([*_SOLVE, "--x0", "nan"], "error: x0 must be finite, got nan"),
    "solve-x0-inf": ([*_SOLVE, "--x0", "inf"], "error: x0 must be finite, got inf"),
    "fbm-seed-negative": (["fbm", "--h", "0.7", "--n", "16", "--seed", "-1"], "error: seed must be at least 0, got -1"),
    "fbm-pair-seed-negative": (["fbm", "--h", "0.7", "--n", "16", "--seed", "-1", "--pair"],
                               "error: seed must be at least 0, got -1"),
    "converge-levels-not-integers": (["converge", "--preset", "linear", "--levels", "16,x", "--paths", "4"],
                                     "error: --levels must be comma-separated integers, got '16,x'"),
}


@pytest.mark.parametrize("name", list(_REFUSED))
def test_a_refused_input_exits_1_naming_it_before_any_noise(outdir, capsys, monkeypatch, name):
    argv, message = _REFUSED[name]
    drawn, real_stream = [], fbm.stream

    def spy_stream(*args):
        generator = real_stream(*args)  # refuses a bad seed before any generator exists
        drawn.append(args)
        return generator

    for module in (fbm, coefficients, convergence):
        monkeypatch.setattr(module, "stream", spy_stream)
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: drawn.append(args))
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert drawn == []
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_converge_refuses_an_unknown_method_before_any_noise(outdir, capsys, monkeypatch, dependence):
    # argparse refuses --method bogus; a manifest reaches mc_strong_error
    drawn = []
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: drawn.append(args))
    (outdir / "m.json").write_text(json.dumps({"method": "bogus", "dependence": dependence}))
    rc = main(["converge", "--manifest", str(outdir / "m.json"), "--preset", "linear", "--paths", "4", "--levels",
               "8,16,32", "--m-fine", "2", "--workers", "1", "--outdir", str(outdir / "r")])
    assert rc == 1
    assert "error: unknown method 'bogus'" in capsys.readouterr().err
    assert drawn == [] and [p.name for p in outdir.iterdir()] == ["m.json"]


@pytest.mark.parametrize("extra", [[], ["--pair"]])
def test_fbm_below_8_steps_skips_holder_functional(outdir, capsys, extra):
    assert main(["fbm", "--h", "0.7", "--n", "7", "--seed", "2", *extra]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] and all(line.endswith("K^(0.1)_T not computed (n < 8, too few steps)") for line in lines[:-1])
    name = f"{'pair' if extra else 'fbm'}_h0.7_n7_seed2.csv"
    assert len((outdir / name).read_text().splitlines()) == 9
    assert main(["fbm", "--h", "0.7", "--n", "8"]) == 0
    assert "K^(0.1)_T=" in capsys.readouterr().out
