import csv

import numpy as np
import pytest

from paswipt.cli import main


def test_dist_emits_table(tmp_path, capsys):
    out = tmp_path / "points.csv"
    assert main(["dist", "--scheme", "dds", "--emit-cdf", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
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


def test_sweep_preset_mismatch(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--experiment", "rate", "--preset", "s1", "--out", str(tmp_path)])


def test_sweep_writes_outputs(tmp_path, capsys):
    assert main(["sweep", "--experiment", "region", "--preset", "fig4",
                 "--out", str(tmp_path)]) == 0
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

