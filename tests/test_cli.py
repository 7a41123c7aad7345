import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paswipt
from paswipt.cli import main
from paswipt.config import default_config
from paswipt.energy import avg_energy_lm_closed
from paswipt.geometry import Scheme


def test_dist_emits_table(tmp_path, capsys):
    out = tmp_path / "points.csv"
    assert main(["dist", "--scheme", "dds", "--emit-cdf", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1000
    assert float(rows[-1]["cdf"]) == pytest.approx(1.0, abs=1e-12)
    ls = np.array([float(r["l_m2"]) for r in rows])
    assert np.all(np.diff(ls) > 0)


def test_energy_row(capsys):
    assert main(["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("scheme,model,pt_w,closed_w,quadrature_w")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["closed_w"]) == pytest.approx(8.1878e-3, rel=1e-4)
    assert float(fields["quadrature_w"]) == pytest.approx(float(fields["closed_w"]), rel=1e-8)


def test_energy_nlm_includes_bound(capsys):
    assert main(["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "0.3"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["bound_w"]) >= float(fields["quadrature_w"]) - 1e-12


def test_rate_methods_side_by_side(capsys):
    assert main([
        "rate", "--scheme", "cds", "--pt-w", "0.3",
        "--method", "closed", "--method", "quad", "--method", "mc",
        "--samples", "200000", "--seed", "5",
    ]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    closed = float(fields["closed_bits_s_hz"])
    assert float(fields["quadrature_bits_s_hz"]) == pytest.approx(closed, rel=1e-8)
    assert abs(float(fields["mc_bits_s_hz"]) - closed) <= 4 * float(fields["mc_stderr_bits_s_hz"])


def test_rate_requires_power():
    with pytest.raises(SystemExit):
        main(["rate", "--scheme", "eds"])


def test_sweep_writes_outputs(tmp_path, capsys):
    assert main(["sweep", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "plot_region.py").exists()


LM_HARVEST = "harvest:\n  model: lm\n  eta: 1.0\n"
NLM_HARVEST = "harvest:\n  model: nlm\n  saturation_mw: 20\n  slope_per_uw: 100\n  turn_on_uw: 2.9\n"


def _config_file(tmp_path, harvest=LM_HARVEST):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "system:\n"
        "  carrier_frequency_ghz: 28\n"
        "  noise_power_dbm: -90\n"
        "  transmit_power_w: 0.3\n"
        "protocol:\n  alpha: 0.8\n  beta: 0.8\n"
        "geometry:\n  d_x_m: 15\n  d_y_m: 10\n  height_m: 3\n"
        + harvest
    )
    return cfg


def _exit_code(argv, capsys):
    """Run the CLI expecting a clean failure; return (code, stderr)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


def test_config_file_flag(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    assert main(["energy", "--scheme", "eds", "--pt-w", "0.3", "--config", str(cfg)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["closed_w"]) == pytest.approx(8.1878e-3, rel=1e-4)


def _output(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = _config_file(tmp_path)  # 0.3 W, 15 m room
    out = _output(["energy", "--scheme", "eds", "--pt-w", "0.5", "--dx", "40",
                   "--config", str(cfg)], capsys)
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    c = default_config(0.5, d_x=40.0)
    expected = avg_energy_lm_closed(Scheme.EDS, c.system, c.protocol, c.geometry, c.harvest)
    assert fields["pt_w"] == "0.5"
    assert fields["closed_w"] == f"{expected:.17g}"
    assert out == _output(["energy", "--scheme", "eds", "--pt-w", "0.5", "--dx", "40"], capsys)


def test_rate_power_from_config_file(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    out = _output(["rate", "--scheme", "dds", "--config", str(cfg)], capsys)
    assert out.splitlines()[1].split(",")[1] == f"{0.3:.17g}"
    assert out == _output(["rate", "--scheme", "dds", "--pt-w", "0.3"], capsys)
    # every other flag is applied on top of the file too
    out = _output(["rate", "--scheme", "dds", "--config", str(cfg), "--noise-dbm", "-100",
                   "--fc-ghz", "10", "--dy", "4", "--height", "1", "--alpha", "0.5",
                   "--beta", "0.6"], capsys)
    assert out == _output(["rate", "--scheme", "dds", "--pt-w", "0.3", "--noise-dbm", "-100",
                           "--fc-ghz", "10", "--dy", "4", "--height", "1", "--alpha", "0.5",
                           "--beta", "0.6"], capsys)


@pytest.mark.parametrize("argv, header", [
    (["energy", "--model", "lm"], "scheme,model,pt_w,closed_w,quadrature_w"),
    (["energy", "--model", "lm", "--mc"],
     "scheme,model,pt_w,closed_w,quadrature_w,mc_w,mc_stderr_w"),
    (["energy", "--model", "nlm"], "scheme,model,pt_w,bound_w,quadrature_w"),
    (["energy", "--model", "nlm", "--mc"],
     "scheme,model,pt_w,bound_w,quadrature_w,mc_w,mc_stderr_w"),
    (["rate"], "scheme,pt_w,closed_bits_s_hz,quadrature_bits_s_hz"),
    (["rate", "--method", "mc", "--method", "closed"],
     "scheme,pt_w,closed_bits_s_hz,mc_bits_s_hz,mc_stderr_bits_s_hz"),
])
def test_output_header(argv, header, capsys):
    out = _output([*argv, "--scheme", "cds", "--pt-w", "0.3", "--samples", "1000"], capsys)
    assert out.splitlines()[0] == header
    assert len(out.splitlines()[1].split(",")) == len(header.split(","))


def test_energy_model_label_comes_from_config_file(tmp_path, capsys):
    cfg = _config_file(tmp_path, NLM_HARVEST)
    assert main(["energy", "--scheme", "eds", "--pt-w", "0.3", "--config", str(cfg)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["model"] == "nlm"
    assert "bound_w" in fields
    # a flag that repeats the file is accepted
    assert main(["energy", "--scheme", "eds", "--model", "nlm", "--pt-w", "0.3",
                 "--config", str(cfg)]) == 0


def test_energy_model_contradicting_config_file_fails(tmp_path, capsys):
    cfg = _config_file(tmp_path, LM_HARVEST)
    code, err = _exit_code(["energy", "--scheme", "eds", "--model", "nlm", "--pt-w", "0.3",
                            "--config", str(cfg)], capsys)
    assert code == 2
    assert "--model nlm contradicts" in err


@pytest.mark.parametrize("argv, field", [
    (["rate", "--scheme", "eds", "--pt-w", "0"], "transmit_power_w"),
    (["rate", "--scheme", "eds", "--pt-w", "-1"], "transmit_power_w"),
    (["energy", "--scheme", "dds", "--pt-w", "0.3", "--dx", "-3"], "d_x"),
    (["energy", "--scheme", "dds", "--pt-w", "0.3", "--alpha", "1.5"], "alpha"),
    (["dist", "--scheme", "cds", "--emit-cdf", "unused.csv", "--height", "0"], "height"),
    (["dist", "--scheme", "cds", "--emit-cdf", "unused.csv", "--points", "0"], "points"),
    (["rate", "--scheme", "eds", "--pt-w", "0.3", "--method", "mc", "--samples", "1000",
      "--workers", "-2"], "workers"),
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--mc", "--samples", "1000",
      "--workers", "0"], "workers"),
    (["rate", "--scheme", "eds", "--pt-w", "0.3", "--method", "mc", "--samples", "1000",
      "--seed", "-1"], "seed"),
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--mc", "--samples", "1000",
      "--seed", str(1 << 64)], "seed"),
    # MC flags are checked even where no MC column or row runs
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--workers", "-2", "--seed", "-1"],
     "workers"),
    (["rate", "--scheme", "eds", "--pt-w", "0.3", "--samples", "1"], "samples"),
    (["sweep", "--preset", "fig4", "--out", "unused", "--mc", "--workers", "-2",
      "--samples", "1"], "samples"),
    (["sweep", "--preset", "c1", "--out", "unused", "--seed", "-1"], "seed"),
])
def test_bad_flag_fails_with_one_line(argv, field, capsys):
    code, err = _exit_code(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"paswipt {argv[0]}: error:")
    assert field in err
    assert "Traceback" not in err


def test_bad_config_file_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    code, err = _exit_code(["rate", "--scheme", "eds", "--pt-w", "0.3",
                            "--config", str(missing)], capsys)
    assert code == 2 and "missing.yaml" in err
    broken = tmp_path / "broken.yaml"
    broken.write_text("system: [unclosed\n")
    code, err = _exit_code(["rate", "--scheme", "eds", "--pt-w", "0.3",
                            "--config", str(broken)], capsys)
    assert code == 2 and "not valid YAML" in err and err.count("\n") == 1


@pytest.mark.parametrize("old, new, message", [
    ("system:\n  carrier_frequency_ghz: 28\n  noise_power_dbm: -90\n  transmit_power_w: 0.3\n",
     "system: 5\n", "section 'system' must be a mapping, got 5"),
    ("eta: 1.0", "eta: [1]", "key 'eta' in section 'harvest' must be a number, got [1]"),
    ("transmit_power_w: 0.3", "transmit_power_w: abc",
     "key 'transmit_power_w' in section 'system' must be a number, got 'abc'"),
], ids=["section-not-a-mapping", "eta-not-a-number", "power-not-a-number"])
def test_malformed_config_file_fails_with_one_line(tmp_path, capsys, old, new, message):
    path = _config_file(tmp_path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, err = _exit_code(["rate", "--scheme", "eds", "--config", str(path)], capsys)
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def _loaded_after(tmp_path, *argvs, roots=("numpy", "scipy", "yaml")):
    """The modules under the given top-level packages that are in
    sys.modules after a fresh interpreter imports paswipt.cli and runs
    main() on each argv in turn."""
    code = (
        "import json, sys\n"
        "from paswipt.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    main(argv)\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))\n"
    )
    src = str(Path(paswipt.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_cold_cli_loads_no_scipy(tmp_path):
    loaded = _loaded_after(
        tmp_path,
        ["dist", "--scheme", "dds", "--emit-cdf", "points.csv"],
        ["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3"],
        ["rate", "--scheme", "cds", "--pt-w", "0.3", "--method", "closed", "--method", "quad"],
        roots=("scipy",),
    )
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    None,
    ["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3"],
    ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "0.3"],
    ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "1e-4"],
    ["energy", "--scheme", "eds", "--model", "nlm", "--pt-w", "1e-5"],
    ["rate", "--scheme", "cds", "--pt-w", "0.3", "--method", "closed", "--method", "quad"],
], ids=["import-only", "lm", "nlm-saturated", "nlm-knee", "nlm-below-turn-on", "rate"])
def test_scalar_calls_load_no_numpy_scipy_or_yaml(tmp_path, argv):
    # closed forms, the Jensen bound and the quadrature run on floats alone
    assert _loaded_after(tmp_path, *([argv] if argv else [])) == set()


def test_config_file_loads_yaml(tmp_path):
    loaded = _loaded_after(tmp_path, ["energy", "--scheme", "eds",
                                      "--config", str(_config_file(tmp_path))])
    assert loaded == {"yaml"} | {m for m in loaded if m.startswith("yaml.")}


@pytest.mark.parametrize("argv", [
    ["dist", "--scheme", "dds", "--emit-cdf", "points.csv"],
    ["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3", "--mc", "--samples", "2000"],
    ["rate", "--scheme", "dds", "--pt-w", "0.3", "--method", "mc", "--samples", "2000"],
], ids=["dist", "energy-mc", "rate-mc"])
def test_array_calls_load_numpy(tmp_path, argv):
    assert "numpy" in _loaded_after(tmp_path, argv)


def test_logistic_curve_loads_only_scipy_special(tmp_path):
    # at 1e-4 W the MC chunk straddles the knee, so the array kernel calls expit
    loaded = _loaded_after(
        tmp_path,
        ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "1e-4",
         "--mc", "--samples", "20000"],
        roots=("scipy",),
    )
    assert "scipy.special" in loaded
    assert "scipy.integrate" not in loaded


def test_saturated_logistic_chunks_load_no_scipy(tmp_path):
    # at 0.3 W every chunk passes the saturation shortcut: no expit call
    loaded = _loaded_after(
        tmp_path,
        ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "0.3",
         "--mc", "--samples", "20000"],
    )
    assert "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
