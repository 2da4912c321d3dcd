import hashlib
import json
import os

import numpy as np
import pytest

from meanfieldlab import DivergenceError, ValidationError, parse_config, serialize_config
from meanfieldlab.cli import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from meanfieldlab.plots import emit_plot
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
picard_iters = 1

[output]
directory = {out}
"""

DEVIATION_CFG = """
[model]
family = linear
rate = 1.0

[sim]
dt = 0.02
t_final = 0.2
n_particles = 16
replicas = 10
seed = 3

[reference]
m = 512
picard_iters = 1

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
picard_iters = 1

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
        parse_config("[modle]\nfamily = linear\n[sim]\nn_grid = 4, 8\n")
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


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "ok.cfg"
    p.write_text(CHAOS_CFG.format(out=str(tmp_path / "out")))
    assert main(["validate", str(p)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[sim]\nn_partcles = 8\n")
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert "n_particles" in capsys.readouterr().err


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
