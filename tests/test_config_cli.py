import hashlib
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import (DivergenceError, SimConfig, ValidationError, equilibrium_convergence,
                          granular_media_model, parse_config, quadratic_potential,
                          serialize_config)
from meanfieldlab.cli import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from meanfieldlab.plots import emit_plot
from meanfieldlab import rng
from meanfieldlab.rng import REFERENCE_NAMESPACE
from meanfieldlab.runner import RunManifest, load_config_or_manifest, run

CHAOS_CFG = """
[model]
family = granular_quadratic
dim = 1

[sim]
dt = 0.02
t_final = 0.2
n_grid = 8, 16
replicas = 4
seed = 7

[reference]
m = 256

[output]
directory = {out}
"""

DEVIATION_CFG = """
[model]
family = granular_quadratic
w_coeff = 0.0

[sim]
dt = 0.02
t_final = 0.2
n_particles = 16
replicas = 10
seed = 3

[reference]
m = 512

[experiment]
kind = observable_deviation
r_grid = 0.05, 0.2
observable = x0

[output]
directory = {out}
"""


DIVERGING_CFG = """
[model]
family = granular_cubic
w_coeff = 50.0
init_mean = 40.0

[sim]
dt = 0.1
t_final = 2.0
n_particles = 8
replicas = 2
n_grid = 8
allow_large_dt = true
taming = false
seed = 1

[reference]
m = 128

[output]
directory = {out}
plots = false
"""

GAUSSIAN_TARGET_CFG = """
[model]
family = granular_quadratic

[sim]
dt = 0.05
t_final = 0.5
n_particles = 32
replicas = 2
seed = 1

[experiment]
kind = equilibrium
t_equilibrium = 0.5
target = gaussian
target_var = 0.5

[output]
directory = {out}
plots = false
"""


# ---------------------------------------------------------------------------
# config parsing


def test_round_trip_identity():
    cfg = parse_config(CHAOS_CFG.format(out="runs/x"))
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_defaults_fill_missing_sections():
    cfg = parse_config("[sim]\nn_grid = 4, 8\n")
    assert cfg.model.family == "granular_quadratic"
    assert cfg.sim.dt == 0.01
    assert cfg.experiment.kind == "chaos_rate"


def test_unknown_key_suggests_closest_match():
    with pytest.raises(ValidationError) as exc:
        parse_config("[sim]\nn_partcles = 8\nn_grid = 4, 8\n")
    msg = str(exc.value)
    assert "n_partcles" in msg
    assert "n_particles" in msg


def test_unknown_section_suggests_closest_match():
    with pytest.raises(ValidationError) as exc:
        parse_config("[modle]\nfamily = kinetic\n[sim]\nn_grid = 4, 8\n")
    msg = str(exc.value)
    assert "modle" in msg and "model" in msg


def test_all_violations_reported_at_once():
    bad = "[sim]\ndt = -1\nreplicas = 0\nn_grid = 4\n[experiment]\nkind = nonsense\n"
    with pytest.raises(ValidationError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    assert "dt must be positive" in msg
    assert "replicas" in msg
    assert "nonsense" in msg


def test_step_mismatch_names_both_values():
    with pytest.raises(ValidationError) as exc:
        parse_config("[sim]\ndt = 0.03\nt_final = 0.1\nn_grid = 4\n")
    msg = str(exc.value)
    assert "0.03" in msg and "0.1" in msg


def test_reserved_step_count_rejected():
    # the step count must stay below the init-step key that SimConfig reserves
    with pytest.raises(ValidationError) as exc:
        parse_config("[sim]\ndt = 1e-10\nt_final = 1.0\nn_grid = 4\n")
    assert "reserved init-step key" in str(exc.value)


def test_zero_step_time_grid_rejected():
    # t_final below dt/2 passes the integer-multiple rule with zero steps
    with pytest.raises(ValidationError) as exc:
        parse_config("[sim]\ndt = 0.01\nt_final = 1e-12\nn_grid = 4\n")
    assert "t_final must be at least dt" in str(exc.value)


def test_list_and_bool_parsing():
    cfg = parse_config("[sim]\nn_grid = 4 8 16\ntaming = yes\n")
    assert cfg.sim.n_grid == [4, 8, 16]
    assert cfg.sim.taming is True
    with pytest.raises(ValidationError):
        parse_config("[sim]\ntaming = maybe\nn_grid = 4\n")


def _with_retired_keys(text, rate="1", mean0="0", var0="1", picard_iters="2"):
    """`text` with the four retired keys, where a manifest written before they retired has them."""
    text = re.sub(r"^(\[model\])$", rf"\1\nrate = {rate}\nmean0 = {mean0}\nvar0 = {var0}",
                  text, flags=re.M)
    return re.sub(r"^(\[reference\])$", rf"\1\npicard_iters = {picard_iters}", text, flags=re.M)


def test_a_retired_key_at_any_value_parses_and_changes_no_byte(tmp_path):
    # the linear family's rate, mean0 and var0 and the reference flow's
    # picard_iters are read by no family that still parses
    values = [dict(), dict(rate="0", mean0="nan", var0="-1", picard_iters="0"),
              dict(rate="inf", mean0="x", var0="", picard_iters="-3")]
    for text, names in ((CHAOS_CFG, ["rate_fit.csv", "rate_fit_summary.csv"]),
                        (DEVIATION_CFG, ["deviation_table.csv", "deviation_summary.csv"])):
        out = str(tmp_path / names[0])
        base = parse_config(text.format(out=out))
        run(base)
        for k, kw in enumerate(values):
            old = _with_retired_keys(text, **kw)
            assert "picard_iters" in old and "var0" in old
            cfg = parse_config(old.format(out=f"{out}-{k}"))
            assert cfg == replace(base, output=replace(base.output, directory=f"{out}-{k}"))
            assert not re.search("^(rate|mean0|var0|picard_iters) =", serialize_config(cfg),
                                 flags=re.M)
            run(cfg)
            assert _sha_files(f"{out}-{k}", names) == _sha_files(out, names)


# ---------------------------------------------------------------------------
# runner artifacts and reproducibility


def _sha_files(out, names):
    digests = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_run_writes_expected_artifacts(tmp_path):
    out = str(tmp_path / "a")
    cfg = parse_config(CHAOS_CFG.format(out=out))
    manifest = run(cfg)
    for name in ("rate_fit.csv", "rate_fit_summary.csv", "rate_fit.svg", "manifest.jsonl"):
        assert os.path.exists(os.path.join(out, name))
        assert name in manifest.files
    # manifest checksums match the bytes on disk
    on_disk = _sha_files(out, [n for n in manifest.files if manifest.files[n]])
    for name, sha in on_disk.items():
        assert manifest.files[name] == sha


def test_rerun_is_byte_identical(tmp_path):
    names = ["rate_fit.csv", "rate_fit_summary.csv", "rate_fit.svg"]
    digests = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run(parse_config(CHAOS_CFG.format(out=out)))
        digests.append(_sha_files(out, names))
    assert digests[0] == digests[1]


def test_debias_fallback_writes_nan_stderr(tmp_path):
    # 90 replicas against M = 256 leave fewer than three disjoint reference
    # chunks: the W2^2 estimate is a raw one with no stderr to report
    out = str(tmp_path / "a")
    run(parse_config(CHAOS_CFG.replace("replicas = 4", "replicas = 90").format(out=out)))
    with open(os.path.join(out, "rate_fit.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert rows[0][3:] == ["w2_sq_estimate", "w2_sq_stderr"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert np.isfinite(float(row[3]))
        assert row[4] == "nan"


def test_manifest_rerun_reproduces_results(tmp_path):
    out1 = str(tmp_path / "one")
    run(parse_config(DEVIATION_CFG.format(out=out1)))
    cfg2 = load_config_or_manifest(os.path.join(out1, "manifest.jsonl"))
    out2 = str(tmp_path / "two")
    run(cfg2, output_dir=out2)
    names = ["deviation_table.csv", "deviation_summary.csv"]
    assert _sha_files(out1, names) == _sha_files(out2, names)


def test_cli_reruns_a_manifest_byte_for_byte(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text(DEVIATION_CFG.format(out=str(tmp_path / "one")))
    assert main(["run", str(p)]) == EXIT_OK
    manifest = tmp_path / "one" / "manifest.jsonl"
    head = json.loads(manifest.read_text().splitlines()[0])
    assert head["kind"] == "run" and head["noise"] == "philox4x64-v3"
    assert head["numpy"] == np.__version__
    assert main(["run", str(manifest), "--output-dir", str(tmp_path / "two")]) == EXIT_OK
    names = ["deviation_table.csv", "deviation_summary.csv"]
    assert _sha_files(str(tmp_path / "one"), names) == _sha_files(str(tmp_path / "two"), names)


class _MovedSampler(np.random.Generator):
    """A Generator whose normals are one ulp off numpy's: a sampler that moved."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        z = super().standard_normal(size, dtype, out)
        z *= 1.0 + 2.0 ** -52
        return z


def test_cli_refuses_a_manifest_when_numpys_sampler_moved(tmp_path, capsys, monkeypatch):
    p = tmp_path / "run.cfg"
    p.write_text(DEVIATION_CFG.format(out=str(tmp_path / "one")))
    assert main(["run", str(p)]) == EXIT_OK
    manifest = str(tmp_path / "one" / "manifest.jsonl")
    capsys.readouterr()
    monkeypatch.setattr(np.random, "Generator", _MovedSampler)
    assert rng.stream_errors() != []
    for argv in (["run", manifest, "--output-dir", str(tmp_path / "two")],
                 ["validate", manifest]):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"numpy {np.__version__}" in err and "philox4x64-v3" in err
    assert not (tmp_path / "two").exists()
    # a config file is not a manifest, so it runs, and a plain run checks nothing
    assert main(["run", str(p), "--output-dir", str(tmp_path / "three")]) == EXIT_OK
    monkeypatch.undo()
    assert rng.stream_errors() == []
    assert main(["run", manifest, "--output-dir", str(tmp_path / "two")]) == EXIT_OK


@pytest.mark.parametrize("noise", ["philox4x64-v2", "philox4x32-v1", None],
                         ids=["v2-stream", "other-stream", "no-stream"])
def test_cli_refuses_a_manifest_of_another_noise_stream(noise, tmp_path, capsys):
    run(parse_config(DEVIATION_CFG.format(out=str(tmp_path / "one"))))
    lines = (tmp_path / "one" / "manifest.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    if noise is None:
        del head["noise"]
    else:
        head["noise"] = noise
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join([json.dumps(head, sort_keys=True)] + lines[1:]) + "\n")
    for argv in (["run", str(old), "--output-dir", str(tmp_path / "two")],
                 ["validate", str(old)]):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "philox4x64-v3" in err and "would not rerun to the same bytes" in err
        assert ("names no noise stream" in err) is (noise is None)
    assert not (tmp_path / "two").exists()


def test_cli_reruns_a_manifest_that_lists_the_retired_keys(tmp_path, capsys):
    run(parse_config(DEVIATION_CFG.format(out=str(tmp_path / "one"))))
    lines = (tmp_path / "one" / "manifest.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    recorded = {a["path"]: a["sha256"] for a in map(json.loads, lines[1:])
                if a["path"].endswith(".csv")}
    old = tmp_path / "old.jsonl"
    for family, code in (("granular_quadratic", EXIT_OK), ("linear", EXIT_VALIDATION)):
        text = _with_retired_keys(head["config_text"]).replace(
            "family = granular_quadratic", f"family = {family}")
        old.write_text("\n".join([json.dumps(dict(head, config_text=text), sort_keys=True)]
                                 + lines[1:]) + "\n")
        assert main(["validate", str(old)]) == code
        assert main(["run", str(old), "--output-dir", str(tmp_path / family)]) == code
    assert _sha_files(str(tmp_path / "granular_quadratic"), recorded) == recorded
    assert "[model] family 'linear' not in" in capsys.readouterr().err
    assert not (tmp_path / "linear").exists()


def test_seed_override_changes_results(tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    run(parse_config(DEVIATION_CFG.format(out=out1)))
    run(parse_config(DEVIATION_CFG.format(out=out2)), seed=99)
    with open(os.path.join(out1, "deviation_summary.csv")) as fh:
        a = fh.read()
    with open(os.path.join(out2, "deviation_summary.csv")) as fh:
        b = fh.read()
    assert a != b


def test_seed_override_leaves_input_config_alone(tmp_path):
    cfg = parse_config(DEVIATION_CFG.format(out=str(tmp_path / "s")))
    manifest = run(cfg, seed=99)
    assert cfg.sim.seed == 3
    assert manifest.seed == 99
    assert parse_config(manifest.config_text).sim.seed == 99


@pytest.mark.parametrize("seed", [1.5, np.float64(3.0)])
def test_a_non_integer_seed_override_is_refused_before_any_output(seed, tmp_path):
    # run(cfg, seed=1.5) once ran, and wrote, seed 1
    out = tmp_path / "out"
    cfg = parse_config(DEVIATION_CFG.format(out=str(out)))
    with pytest.raises(ValidationError, match=re.escape(f"seed override {seed}: seed must be")):
        run(cfg, seed=seed)
    assert not out.exists()


def test_gaussian_target_is_drawn_from_the_seed(tmp_path):
    cfg = parse_config(GAUSSIAN_TARGET_CFG.format(out=str(tmp_path / "unused")))
    names = ["equilibrium_curve.csv", "equilibrium_summary.csv"]
    runs = {}
    for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
        out = str(tmp_path / sub)
        run(cfg, output_dir=out, seed=seed)
        with open(os.path.join(out, "equilibrium_summary.csv")) as fh:
            floor = float(fh.read().splitlines()[1].split(",")[1])
        runs[sub] = (_sha_files(out, names), floor)
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]


@pytest.mark.parametrize("init_mean, fitted", [(0.0, False), (3.0, True)])
def test_an_equilibrium_run_plots_its_curve_with_its_fitted_line(init_mean, fitted, tmp_path):
    # the W2 curve is drawn on log y; a fitted decay rate adds its line, which
    # starts at the first plotted point
    text = GAUSSIAN_TARGET_CFG.replace("plots = false", "plots = true").replace(
        "[model]\n", f"[model]\ninit_mean = {init_mean}\n")
    manifest = run(parse_config(text.format(out=str(tmp_path))))
    assert "equilibrium_curve.svg" in manifest.files
    rate = float((tmp_path / "equilibrium_summary.csv").read_text().splitlines()[1].split(",")[0])
    svg = (tmp_path / "equilibrium_curve.svg").read_text()
    assert bool(np.isfinite(rate)) is fitted
    assert ("slope=" in svg) is fitted
    if fitted:
        assert f"slope={format(-rate, '.2f')}" in svg
        start = re.search(r'<line x1="([-\d.]+)" y1="([-\d.]+)"[^>]*stroke="firebrick"', svg)
        first = re.search(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)
        assert np.allclose([float(v) for v in start.groups()],
                           [float(v) for v in first.groups()], atol=0.05)


def test_manifest_jsonl_structure(tmp_path):
    out = str(tmp_path / "m")
    cfg = parse_config(DEVIATION_CFG.format(out=out))
    manifest = run(cfg)
    with open(os.path.join(out, "manifest.jsonl")) as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    head = lines[0]
    assert head["kind"] == "run"
    assert head["complete"] is True
    assert head["seed"] == 3
    assert "config_text" in head
    assert {ln["kind"] for ln in lines[1:]} == {"artifact"}
    reparsed = RunManifest.from_jsonl("\n".join(json.dumps(ln) for ln in lines))
    assert reparsed.files == manifest.files
    assert reparsed.error is None


# ---------------------------------------------------------------------------
# plots


def test_emit_plot_slope_annotation():
    x = [10.0, 100.0, 1000.0]
    y = [1.0, 0.095, 0.0105]
    svg = emit_plot(x, y, kind="loglog", slope=-1.02, intercept=1.0)
    assert svg.startswith("<svg")
    assert "slope=-1.02" in svg


def test_emit_plot_single_point_no_fit_line():
    svg = emit_plot([1.0], [2.0], kind="timeseries", slope=-1.0, intercept=0.0)
    assert "slope=" not in svg


def test_emit_plot_deterministic_bytes():
    x = list(np.linspace(1, 10, 30))
    y = list(np.exp(-np.asarray(x)))
    a = emit_plot(x, y, kind="loglinear", slope=-1.0, intercept=0.0, title="decay")
    b = emit_plot(x, y, kind="loglinear", slope=-1.0, intercept=0.0, title="decay")
    assert a == b


@pytest.mark.parametrize("x, y, kind, rule", [
    ([], [], "loglog", "cannot plot an empty table"),
    ([1.0, 2.0], [1.0, 2.0], "bar", "unknown plot kind 'bar'"),
    ([0.0, 1.0], [1.0, 2.0], "loglog", "log-scale x needs positive values"),
    ([1.0, 2.0], [0.0, -1.0], "loglinear", "no plottable points"),
], ids=["empty", "unknown-kind", "nonpositive-log-x", "nonpositive-log-y"])
def test_emit_plot_refuses_what_it_cannot_draw(x, y, kind, rule):
    with pytest.raises(ValidationError, match=re.escape(rule)):
        emit_plot(x, y, kind=kind)


@pytest.mark.parametrize("kind", ["loglog", "timeseries"])
def test_emit_plot_draws_no_bar_for_a_nan_stderr(kind):
    # a one-replica chaos run writes a nan gap stderr; its bar is left out
    svg = emit_plot([8, 16, 32], [0.1, 0.05, 0.02], yerr=[0.01, float("nan"), 0.002],
                    kind=kind)
    assert "nan" not in svg
    assert svg.count('stroke="gray"') == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "ok.cfg"
    p.write_text(CHAOS_CFG.format(out=str(tmp_path / "out")))
    assert main(["validate", str(p)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("[sim]\nn_partcles = 8\n", "n_particles"),
    # validated; the observable is the norm of a 0-coordinate state
    (DEVIATION_CFG.replace("w_coeff = 0.0", "dim = 0").replace("= x0", "= norm"),
     "[model] dim must be >= 1"),
    # validated, then numpy's unlabelled "negative dimensions are not allowed"
    (DEVIATION_CFG.replace("w_coeff = 0.0", "dim = -2").replace("= x0", "= norm"),
     "[model] dim must be >= 1"),
    # validated, then wrote an all-nan curve and summary and exited 0
    (GAUSSIAN_TARGET_CFG.replace("target_var = 0.5", "target_var = -1"),
     "[experiment] target_var must be nonnegative"),
    (GAUSSIAN_TARGET_CFG.replace("[sim]", "init_var = -1\n\n[sim]"),
     "[model] init_var must be nonnegative"),
    # count_errors is the one count rule, and its message names the value
    (CHAOS_CFG.replace("replicas = 4", "replicas = 0"), "[sim] replicas must be >= 1, not 0\n"),
    (CHAOS_CFG.replace("[output]", "[output]\nsnapshot_stride = 0"),
     "[output] snapshot_stride must be >= 1, not 0\n"),
    ("[sim\nn_particles = 8\n", "config parse error"),
    (GAUSSIAN_TARGET_CFG.replace("target = gaussian", "target = foo"),
     "[experiment] target must be 'burn_in' or 'gaussian'"),
], ids=["unknown-key", "zero-dim", "negative-dim", "negative-target-var",
        "negative-init-var", "zero-replicas", "zero-snapshot-stride", "malformed-ini",
        "unknown-target"])
def test_cli_validate_bad_config(text, message, tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    out = tmp_path / "out"
    p.write_text(text.replace("{out}", str(out)))
    for command in ("validate", "run"):
        assert main([command, str(p)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("model", "init_mean", "inf"),     # validate passed it, and the run failed
    ("model", "init_var", "nan"),
    ("model", "v_coeff", "nan"),       # the run diverged at step 0
    ("sim", "t_final", "inf"),         # validate crashed on round(inf)
    ("sim", "dt", "nan"),
    ("experiment", "r_grid", "0.1, nan"),
])
def test_non_finite_numbers_are_refused_before_any_output(section, key, value, tmp_path,
                                                          capsys):
    p = tmp_path / "bad.cfg"
    out = tmp_path / "out"
    text = DEVIATION_CFG.format(out=str(out))
    if re.search(rf"^{key} = ", text, flags=re.M):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    else:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    p.write_text(text)
    for command in ("validate", "run"):
        assert main([command, str(p)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[{section}] {key}: cannot parse" in err
    assert not out.exists()


EQUILIBRIUM_CFG = """
[model]
family = granular_quadratic

[sim]
dt = 0.05
n_particles = 8
replicas = 2

[experiment]
kind = equilibrium
t_equilibrium = {t_eq}
gap_times = {gaps}
"""


@pytest.mark.parametrize("t_eq, gaps, key", [
    (1.0, "0.5, 3.0", "gap_times"),   # past t_equilibrium: an IndexError at run time
    (1.0, "-0.5", "gap_times"),       # read the last step
    (1.0, "0.52", "gap_times"),       # rounded to the step at 0.5
    (1.03, "", "t_equilibrium"),      # off the dt grid: failed only at run time
    (1.0, "0.4, 0.4", "gap_times"),   # one time twice: a gap slope fitted to noise
])
def test_cli_validate_rejects_equilibrium_times_it_cannot_run(t_eq, gaps, key, tmp_path,
                                                              capsys):
    p = tmp_path / "eq.cfg"
    p.write_text(EQUILIBRIUM_CFG.format(t_eq=t_eq, gaps=gaps))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert f"[experiment] {key}" in capsys.readouterr().err
    # the run applies the same rule, before it simulates anything; it runs
    # over [0, t_equilibrium], which its SimConfig carries as t_final
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    with pytest.raises(ValidationError, match="gap_times" if key == "gap_times" else "t_final"):
        equilibrium_convergence(m, SimConfig(dt=0.05, t_final=t_eq, n_particles=8, seed=1),
                                gap_times=[float(g) for g in gaps.split(",") if g.strip()])


def test_cli_validate_accepts_gap_times_on_the_grid(tmp_path, capsys):
    p = tmp_path / "eq.cfg"
    p.write_text(EQUILIBRIUM_CFG.format(t_eq=1.0, gaps="0, 0.05, 0.5, 1.0"))
    assert main(["validate", str(p)]) == EXIT_OK


@pytest.mark.parametrize("m, valid", [
    (100, False),  # below 16 max(n_grid): validate passed it, and only the run refused it
    (-5, False),
    (0, True),     # the default size, 16 max(n_grid)
    (512, True),   # exactly 16 max(n_grid)
])
def test_chaos_reference_size_is_checked_before_the_run(m, valid, tmp_path, capsys):
    p = tmp_path / "chaos.cfg"
    out = tmp_path / "out"
    p.write_text(CHAOS_CFG.format(out=str(out)).replace("n_grid = 8, 16", "n_grid = 16, 32")
                 .replace("m = 256", f"m = {m}"))
    code = EXIT_OK if valid else EXIT_VALIDATION
    assert main(["validate", str(p)]) == code
    assert main(["run", str(p)]) == code
    assert ("[reference]" in capsys.readouterr().err) is not valid
    assert out.exists() is valid


@pytest.mark.parametrize("n_grid", ["16, 16", "16, 16, 32", "0, 16"])
def test_chaos_grid_sizes_must_be_distinct_and_positive(n_grid, tmp_path, capsys):
    # a repeated N passed validate, then the run failed its fit ("16, 16") or
    # wrote the N twice and fitted it twice ("16, 16, 32")
    p = tmp_path / "chaos.cfg"
    out = tmp_path / "out"
    p.write_text(CHAOS_CFG.format(out=str(out)).replace("n_grid = 8, 16", f"n_grid = {n_grid}")
                 .replace("m = 256", "m = 512"))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert main(["run", str(p)]) == EXIT_VALIDATION
    assert "[sim] n_grid entries must be >= 1 and distinct" in capsys.readouterr().err
    assert not out.exists()


def test_negative_reference_size_is_named_on_every_kind(tmp_path, capsys):
    p = tmp_path / "dev.cfg"
    p.write_text(DEVIATION_CFG.format(out=str(tmp_path / "out")).replace("m = 512", "m = -5"))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "[reference] m must be >= 0" in err and "n_particles" not in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_seed_override_is_checked_before_any_output(seed, tmp_path, capsys):
    p = tmp_path / "run.cfg"
    out = tmp_path / "out"
    p.write_text(DEVIATION_CFG.format(out=str(out)))
    assert main(["run", str(p), "--seed", seed]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("name, valid", [
    ("x-1", False),  # ran on the last coordinate
    ("xa", False),   # an unlabelled ValueError at run time
    ("x1.5", False),
    ("y", False),
    ("x", True), ("x1", True), ("norm", True),
])
def test_cli_validate_checks_the_observable_name(name, valid, tmp_path, capsys):
    p = tmp_path / "obs.cfg"
    p.write_text(DEVIATION_CFG.format(out=str(tmp_path / "out"))
                 .replace("w_coeff = 0.0", "w_coeff = 0.0\ndim = 2")
                 .replace("observable = x0", f"observable = {name}"))
    assert main(["validate", str(p)]) == (EXIT_OK if valid else EXIT_VALIDATION)
    assert ("[experiment] observable" in capsys.readouterr().err) is not valid


@pytest.mark.parametrize("family, dim, name, valid", [
    ("granular_quadratic", 2, "x1", True), ("granular_quadratic", 2, "x2", False),
    ("granular_quadratic", 2, "x5", False),
    ("kinetic", 1, "x1", True), ("kinetic", 1, "x2", False),  # (position, velocity)
    ("kinetic", 2, "x3", True), ("kinetic", 2, "x4", False),
])
def test_cli_checks_the_observable_coordinate_against_the_state(family, dim, name, valid,
                                                                 tmp_path, capsys):
    p = tmp_path / "obs.cfg"
    out = tmp_path / "out"
    p.write_text(DEVIATION_CFG.format(out=str(out))
                 .replace("family = granular_quadratic", f"family = {family}\ndim = {dim}")
                 .replace("observable = x0", f"observable = {name}"))
    assert main(["validate", str(p)]) == (EXIT_OK if valid else EXIT_VALIDATION)
    assert main(["run", str(p)]) == (EXIT_OK if valid else EXIT_VALIDATION)
    err = capsys.readouterr().err
    assert ("[experiment] observable" in err) is not valid
    assert (out / "deviation_table.csv").exists() is valid


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.cfg")]) == EXIT_IO


def test_cli_run_and_replot(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    out = tmp_path / "out"
    p.write_text(CHAOS_CFG.format(out=str(out)))
    assert main(["run", str(p)]) == EXIT_OK
    listed = capsys.readouterr().out.splitlines()
    assert "manifest.jsonl" in listed

    table = str(out / "rate_fit.csv")
    dest = str(tmp_path / "re.svg")
    assert main(["replot", table, "loglog", "--output", dest]) == EXIT_OK
    with open(dest) as fh:
        svg1 = fh.read()
    assert svg1.startswith("<svg")
    assert main(["replot", table, "loglog", "--output", dest]) == EXIT_OK
    with open(dest) as fh:
        assert fh.read() == svg1


@pytest.mark.parametrize("table, line", [
    ("x\n1\n2\n", 2),               # one column: an IndexError
    ("n,y\n8,0.5\n16\n", 3),         # a short row
    ("n,y\n8,0.5\n16,big\n", 3),     # a text cell: a ValueError
], ids=["one-column", "short-row", "text-cell"])
def test_cli_replot_names_the_line_of_a_malformed_table(table, line, tmp_path, capsys):
    p = tmp_path / "table.csv"
    p.write_text(table)
    assert main(["replot", str(p), "loglog"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{p}, line {line}" in err
    assert list(tmp_path.iterdir()) == [p]


def test_cli_usage_error_is_validation_exit(tmp_path, capsys):
    # argparse's own usage-error code is 2, which here means divergence
    p = tmp_path / "run.cfg"
    p.write_text(CHAOS_CFG.format(out=str(tmp_path / "out")))
    assert main(["run", str(p), "--threads", "2"]) == EXIT_VALIDATION
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_run_output_dir_override(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(DEVIATION_CFG.format(out=str(tmp_path / "unused")))
    target = tmp_path / "elsewhere"
    assert main(["run", str(p), "--output-dir", str(target)]) == EXIT_OK
    assert (target / "deviation_table.csv").exists()
    assert not (tmp_path / "unused").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow must not warn
def test_cli_divergence_exit_code(tmp_path, capsys):
    p = tmp_path / "div.cfg"
    p.write_text(DIVERGING_CFG.format(out=str(tmp_path / "out")))
    code = main(["run", str(p)])
    assert code == EXIT_DIVERGENCE
    assert "divergence" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow must not warn
def test_failed_run_leaves_a_labelled_manifest(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(DivergenceError) as caught:
        run(parse_config(DIVERGING_CFG.format(out=str(out))))
    err = caught.value
    assert sorted(os.listdir(out)) == ["manifest.jsonl"]
    text = (out / "manifest.jsonl").read_text()
    lines = [json.loads(ln) for ln in text.splitlines()]
    assert [ln["kind"] for ln in lines] == ["run", "artifact", "error"]
    assert lines[0]["complete"] is False
    assert lines[2] == {"kind": "error", "type": "DivergenceError", "message": str(err),
                        "step": err.step, "particle": err.particle, "replica": err.replica}
    # the reference flow's first particle overflows first, at step 7
    assert (err.step, err.particle, err.replica) == (7, 0, REFERENCE_NAMESPACE)

    manifest = RunManifest.from_jsonl(text)
    assert manifest.complete is False
    assert manifest.error == {k: v for k, v in lines[2].items() if k != "kind"}
    assert manifest.files == {"manifest.jsonl": None}
