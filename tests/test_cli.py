import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paswipt.cli import main
from paswipt.config import default_config
from paswipt.energy import avg_energy_lm_closed
from paswipt.geometry import Scheme
from paswipt.sweep import PRESETS

from oracles import package_env, regime_power


def _regime_pt(scheme, name):  # --pt-w at the scheme's regime power in the default room
    return repr(regime_power(default_config(1.0, "nlm"), scheme, name))


FIGURE_SCRIPT = Path(__file__).parents[1] / "scripts" / "reproduce_figures.py"


def test_dist_emits_table(tmp_path, capsys):
    out = tmp_path / "points.csv"
    assert main(["dist", "--scheme", "dds", "--emit-cdf", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1000
    assert float(rows[-1]["cdf"]) == pytest.approx(1.0, abs=1e-12)
    ls = np.array([float(r["l_m2"]) for r in rows])
    assert np.all(np.diff(ls) > 0)


# sha256 of the `paswipt dist` CSV by (scheme, room, --points), recorded
# from the numpy implementation (np.linspace grid, array law) that the
# float table replaced.  "tiny" is a 1e-4 m wide room 1 km below the
# waveguide: its grid steps are a few ulps of h^2.  Its cds and dds tables
# were re-recorded when the law learned to top out at cdf 1 and pdf >= 0,
# and the dds tables of more than one point when the diagonal law became
# the linear offset law's t (2 - t / S) / S and (2 - 2 t / S) / (2 S t).
DIST_ROOMS = {
    "default": [],
    "8x8x3": ["--dx", "8", "--dy", "8", "--height", "3"],
    "15x8x3": ["--dx", "15", "--dy", "8", "--height", "3"],
    "tiny": ["--dy", "1e-4", "--height", "1000"],
}
DIST_SHA256 = {
    ("eds", "default", 1): "0944ae9cd335966b2cbf6436cf87ea13e7f8b7383f08803e9086757440f4ec61",
    ("eds", "default", 7): "a7edc0f7981d659755169375136e7506821385c55b8c25da946a44d247aa6831",
    ("eds", "default", 1000): "e9bd6ad8f17dfbe80da15a9763e5d86a66d2455a3c4697fcd07f80cbb897eba6",
    ("eds", "8x8x3", 1): "b6e0efde86cc13f9ca1d6a46c89d759e7c043283f76b9cc37aae316ca9f77abb",
    ("eds", "8x8x3", 7): "c68aded60638cb047777324a550018a8facb17a842d4a399bf6d887110d180d6",
    ("eds", "8x8x3", 1000): "355ad04d2d82a4c0e3d1df3a8ef86b4f36e76303b2bac615db37386280892861",
    ("eds", "15x8x3", 1): "b6e0efde86cc13f9ca1d6a46c89d759e7c043283f76b9cc37aae316ca9f77abb",
    ("eds", "15x8x3", 7): "c68aded60638cb047777324a550018a8facb17a842d4a399bf6d887110d180d6",
    ("eds", "15x8x3", 1000): "355ad04d2d82a4c0e3d1df3a8ef86b4f36e76303b2bac615db37386280892861",
    ("eds", "tiny", 5): "6d5d70abc21f572dcae4879b79a4823b34ce53c0d94d57f5f8939e17b0632857",
    ("cds", "default", 1): "3ede284cbb70fba4af17b14acceb3ec734ca5282c79a8dd05bbe7c5af27b0183",
    ("cds", "default", 7): "2c5c4c828b2fbf6d200541fe235e8913c934deea4670a206444387ab76636d30",
    ("cds", "default", 1000): "8da4d1c516e66c6661adeaf011e1c2852cdfbec2ea08cd1dba26c62b292d3f6c",
    ("cds", "8x8x3", 1): "11c84effb3d414dda3c0466fae133ee8ea243921260126272e4477996d1c0f1f",
    ("cds", "8x8x3", 7): "db209f3b25b95fc6a5efc7406c136cc03ab1e3d2fc1137fcc44828ec69912173",
    ("cds", "8x8x3", 1000): "59d74162b21a8725e1d223f39ea019e0341b73a7d56cc75a7d6a6394624cf8ee",
    ("cds", "15x8x3", 1): "11c84effb3d414dda3c0466fae133ee8ea243921260126272e4477996d1c0f1f",
    ("cds", "15x8x3", 7): "db209f3b25b95fc6a5efc7406c136cc03ab1e3d2fc1137fcc44828ec69912173",
    ("cds", "15x8x3", 1000): "59d74162b21a8725e1d223f39ea019e0341b73a7d56cc75a7d6a6394624cf8ee",
    ("cds", "tiny", 5): "098dcba9d1e12f9c501d2ab97fe7768298f0d8ef33d5918b37979599bf587f05",
    ("dds", "default", 1): "d45f79d144aead0ae87a412960f86308538e69c71c81f4ab3e43b30e50648835",
    ("dds", "default", 7): "76d588235c645d73b37a0b9f6c3adfaed4b82cbd55b3ad39d20ff4584279530e",
    ("dds", "default", 1000): "69c36f8abd625dba79797368fc7d6c2a4ad314dd8155b649d03bb9a1bccee926",
    ("dds", "8x8x3", 1): "f498cce347c4d8e26de8e4b746de6644d9a5d2db4b687207f1defe7ed18b982f",
    ("dds", "8x8x3", 7): "30fc9fc3bbf306de0c5c8c2d7ba023b96e669236a3b8cb874f6427cef7fc75b6",
    ("dds", "8x8x3", 1000): "b5f78e7ccc1f03562e78d795532a6311736203401f22de6a422b1c95c3ac92fd",
    ("dds", "15x8x3", 1): "e1989a1fcd98fe3f24df57c38ac6360d5dcbf90db43be8e3835ed03dd95be470",
    ("dds", "15x8x3", 7): "0433ab2651620ea7217cc17dff6e83d0ae25b2ce97814be8906e10030ab779cc",
    ("dds", "15x8x3", 1000): "cdc9d8d5a8c2ba5407eb63abfc8c0bcfa93bc5491704f06238db2cf4a4012e6f",
    ("dds", "tiny", 5): "a80b122542349a19a97a66363d82f908e8d11faec5ade31e635c9fa31c991177",
}


@pytest.mark.parametrize("scheme, room, points", list(DIST_SHA256))
def test_dist_csv_matches_golden(tmp_path, capsys, scheme, room, points):
    out = tmp_path / "points.csv"
    assert main(["dist", "--scheme", scheme, "--emit-cdf", str(out), "--points", str(points),
                 *DIST_ROOMS[room]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIST_SHA256[scheme, room, points]


@pytest.mark.parametrize("scheme, pdf", [("cds", 202248486.86231309), ("dds", 0.0)])
def test_dist_table_tops_out_in_a_few_ulps_wide_support(tmp_path, capsys, scheme, pdf):
    # s = sqrt(hi - h^2) is the rounded width there, not the span, so the
    # formulas alone gave cdf 0.98888 (cds) and pdf -58536.9 (dds) at the top
    out = tmp_path / "points.csv"
    assert main(["dist", "--scheme", scheme, "--emit-cdf", str(out), "--points", "5",
                 *DIST_ROOMS["tiny"]]) == 0
    with open(out) as f:
        last = list(csv.DictReader(f))[-1]
    assert float(last["cdf"]) == 1.0
    assert float(last["pdf"]) == pdf


def test_dist_collapsed_support_names_the_cause(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code, err = _exit_code(["dist", "--scheme", "eds", "--emit-cdf", str(out), "--dy", "1e-5",
                            "--height", "1000"], capsys)
    assert code == 2 and err.count("\n") == 1
    for part in ("eds support", "15 x 1e-05 x 1000 m room", "1000 points",
                 "float spacing", "rounds onto h^2"):
        assert part in err
    assert not out.exists()


def test_dist_huge_points_fails_before_building_the_grid(tmp_path):
    """10^20 points in the default room: the 6.9e-19 m^2 step is below the
    float spacing at h^2 = 9 m^2, so the call fails with the collapsed-support
    message under a 1 GiB address-space limit instead of running out of
    memory while it builds the grid."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from paswipt.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = tmp_path / "points.csv"
    run = subprocess.run([sys.executable, "-c", code, "dist", "--scheme", "dds", "--emit-cdf",
                          str(out), "--points", str(10**20)],
                         capture_output=True, text=True, env=package_env(), timeout=60)
    assert run.returncode == 2 and run.stderr.count("\n") == 1, run.stderr
    assert "too narrow for 100000000000000000000 points" in run.stderr
    assert not out.exists()


def test_dist_points_beyond_the_float_range_fail_with_one_line(tmp_path, capsys):
    """10^400 points: the grid step cannot be computed in floats at all."""
    out = tmp_path / "points.csv"
    code, err = _exit_code(["dist", "--scheme", "eds", "--emit-cdf", str(out),
                            "--points", str(10**400)], capsys)
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert f"points must be at most the largest float, got {10**400}" in err
    assert not out.exists()


def test_energy_row(capsys):
    assert main(["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("scheme,model,pt_w,closed_w,quadrature_w")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["closed_w"]) == pytest.approx(8.1878e-3, rel=1e-4)
    assert float(fields["quadrature_w"]) == pytest.approx(float(fields["closed_w"]), rel=1e-8)


def test_energy_mc_keeps_the_sign_of_a_zero_alpha(capsys):
    """At alpha = -0.0 every method's energy is -0.0: the MC factor multiplies the mean,
    so it prints the closed form's bits, and its standard error stays +0."""
    out = _output(["energy", "--scheme", "eds", "--alpha", "-0.0", "--pt-w", "0.3", "--mc"],
                  capsys)
    (row,) = csv.DictReader(out.splitlines())
    values = [float(row[c]) for c in ("closed_w", "quadrature_w", "mc_w", "mc_stderr_w")]
    assert [v.hex() for v in values] == ["-0x0.0p+0"] * 3 + ["0x0.0p+0"], row


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


def test_figure_script_runs_paswipt_sweep(tmp_path, capsys):
    """scripts/reproduce_figures.py in a fresh interpreter: each preset's CSV
    and plot script are `paswipt sweep`'s with the same flags, and a bad
    flag fails with the CLI's own line."""
    flags = ["--mc", "--samples", "2000"]
    run = subprocess.run([sys.executable, str(FIGURE_SCRIPT), "--out", str(tmp_path / "script"),
                          *flags], capture_output=True, text=True, env=package_env())
    assert run.returncode == 0, run.stderr
    for name, (experiment, _) in PRESETS.items():
        _output(["sweep", "--preset", name, "--out", str(tmp_path / "cli" / name), *flags], capsys)
        for file in (f"{experiment}.csv", f"plot_{experiment}.py"):
            assert ((tmp_path / "script" / name / file).read_bytes()
                    == (tmp_path / "cli" / name / file).read_bytes()), (name, file)
    bad = subprocess.run([sys.executable, str(FIGURE_SCRIPT), "--out", str(tmp_path / "bad"),
                          "--samples", "1"], capture_output=True, text=True, env=package_env())
    code, err = _exit_code(["sweep", "--preset", "s1", "--out", str(tmp_path / "bad"),
                            "--samples", "1"], capsys)
    assert (bad.returncode, bad.stderr) == (code, err)
    assert code == 2 and err.startswith("paswipt sweep: error: ") and err.count("\n") == 1


def test_figure_script_skips_plots_without_matplotlib(tmp_path, capsys, monkeypatch):
    """Where matplotlib cannot be found, the figure script prints one skip line per preset
    and starts no plot process."""
    spec = importlib.util.spec_from_file_location("reproduce_figures", FIGURE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    find = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "matplotlib" else find(name, *args))
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail(f"ran {args}"))
    assert script.main(["--out", str(tmp_path)]) == 0
    skips = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("wrote")]
    assert skips == ["  plot skipped: matplotlib is not installed"] * len(PRESETS)


def test_figure_script_takes_out_as_its_outdir(tmp_path, capsys):
    """`--out DIR` names the outdir, which then holds the presets'
    subdirectories alone: passed on to `paswipt sweep`, it wrote s1's CSV
    into DIR and the plot step then failed on the missing DIR/s1 (what each
    subdirectory holds: test_figure_script_runs_paswipt_sweep).  A stray
    positional is passed on, and fails with the CLI's own error before any
    preset runs."""
    run = subprocess.run([sys.executable, str(FIGURE_SCRIPT), "--out", str(tmp_path / "script")],
                         capture_output=True, text=True, env=package_env())
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in (tmp_path / "script").iterdir()) == sorted(PRESETS)
    stray = subprocess.run([sys.executable, str(FIGURE_SCRIPT), "a"], cwd=tmp_path,
                           capture_output=True, text=True, env=package_env())
    code, err = _exit_code(["sweep", "--preset", "s1", "--out", "figures/s1", "a"], capsys)
    assert (stray.returncode, stray.stdout, stray.stderr) == (code, "", err)
    assert code == 2 and not (tmp_path / "a").exists() and not (tmp_path / "figures").exists()


# A stand-in for matplotlib.pyplot: every call on the figure and the axes,
# with its arguments, is logged as JSON to $PLOT_CALL_LOG when the script exits.
STUB_PYPLOT = """\
import atexit, json, os

CALLS = []


class _Recorder:
    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return lambda *args, **kwargs: CALLS.append([f"{self._name}.{attr}", args, kwargs])


def subplots(*args, **kwargs):
    CALLS.append(["subplots", args, kwargs])
    return _Recorder("fig"), _Recorder("ax")


@atexit.register
def _dump():
    with open(os.environ["PLOT_CALL_LOG"], "w") as f:
        json.dump(CALLS, f)
"""

# experiment: (series key columns, x column, y column, x label, y label, x scale)
PLOTS = {
    "energy": (("scheme", "model", "method"), "pt_w", "value_w",
               "transmit power [W]", "avg harvested energy [W]", "log"),
    "rate": (("scheme", "method"), "pt_w", "value_bits_s_hz",
             "transmit power [W]", "avg rate [bits/s/Hz]", "log"),
    "region": (("scheme", "model", "protocol"), "energy_w", "rate_bits_s_hz",
               "avg harvested energy [W]", "avg rate [bits/s/Hz]", None),
}


@pytest.mark.parametrize("name", list(PRESETS))
def test_plot_script_draws_each_csv_series(tmp_path, capsys, name):
    """Each preset's plot_<experiment>.py, run in a fresh interpreter on a
    stub pyplot: one line per series key, in key order, holding exactly that
    key's CSV rows sorted, then the axis labels, legend, scale and file."""
    experiment = PRESETS[name][0]
    out = tmp_path / "out"
    _output(["sweep", "--preset", name, "--out", str(out), "--mc", "--samples", "2000"], capsys)
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(STUB_PYPLOT)
    log = tmp_path / "calls.json"
    env = package_env(PLOT_CALL_LOG=str(log))
    env["PYTHONPATH"] = os.pathsep.join([str(stub.parent), env["PYTHONPATH"]])
    run = subprocess.run([sys.executable, f"plot_{experiment}.py"], cwd=out, capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"wrote {experiment}.png\n"

    key, x, y, x_label, y_label, x_scale = PLOTS[experiment]
    series = {}
    with open(out / f"{experiment}.csv") as f:
        for row in csv.DictReader(f):
            series.setdefault(tuple(row[c] for c in key), []).append(
                (float(row[x]), float(row[y])))
    lines = []
    for label, pts in sorted(series.items()):
        pts.sort()
        lines.append(["ax.plot", [[p[0] for p in pts], [p[1] for p in pts]],
                      {"marker": ".", "label": str(label)}])
    assert json.loads(log.read_text()) == [
        ["subplots", [], {}],
        *lines,
        ["ax.set_xlabel", [x_label], {}],
        ["ax.set_ylabel", [y_label], {}],
        ["ax.legend", [], {"fontsize": 7}],
        *([["ax.set_xscale", [x_scale], {}]] if x_scale else []),
        ["fig.tight_layout", [], {}],
        ["fig.savefig", [f"{experiment}.png"], {"dpi": 150}],
    ]


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
    c = default_config(0.5).with_params(d_x=40.0)
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
    # the 1e-10 m^2 support is narrower than the float spacing at h^2 = 1e6 m^2
    (["dist", "--scheme", "eds", "--emit-cdf", "unused.csv", "--dy", "1e-5", "--height", "1000"],
     "float spacing"),
    # 1e6 dBm overflows the conversion to watts
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--noise-dbm", "1e6"], "--noise-dbm"),
    # each field is valid, but the room's support h^2 + d_y^2 overflows
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--height", "1e200"], "room support"),
    (["dist", "--scheme", "eds", "--emit-cdf", "unused.csv", "--height", "1e160"], "room support"),
    (["rate", "--scheme", "dds", "--pt-w", "0.3", "--dx", "1e200", "--dy", "1e200"],
     "room support"),
    (["rate", "--scheme", "eds", "--pt-w", "0.3", "--dy", "1e200"], "room support"),
    # a finite room so wide that every quadrature node's weighted integrand underflows to 0
    (["rate", "--scheme", "dds", "--pt-w", "0.3", "--dx", "1e150", "--dy", "1e150"],
     "quadrature underflowed"),
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--dx", "1e120", "--dy", "1e120"],
     "quadrature underflowed"),
    # the diagonal half-width squared underflows: both closed forms divide by it
    (["energy", "--scheme", "dds", "--pt-w", "0.3", "--dx", "1e-200", "--dy", "1"],
     "diagonal_half_width"),
    (["rate", "--scheme", "dds", "--pt-w", "0.3", "--dx", "1e-200", "--dy", "1"],
     "diagonal_half_width"),
    (["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", "0.3", "--dx", "1e-200",
      "--dy", "1"], "diagonal_half_width"),
    # a normal half-width whose ratio to the height squares to a subnormal float
    (["energy", "--scheme", "dds", "--pt-w", "0.3", "--dx", "1e-150", "--dy", "1",
      "--height", "1e10"], "diagonal_half_width"),
    # one chunk: no thread pool could start even if the ceiling were gone
    (["energy", "--scheme", "eds", "--pt-w", "0.3", "--mc", "--samples", "1000",
      "--workers", "65"], "workers must be in [1, 64], got 65"),
    # a stray argument is named with its subcommand, not by the top-level parser
    (["rate", "--scheme", "eds", "--pt-w", "0.3", "stray"], "unrecognized arguments: stray"),
    # ... unless it comes before the subcommand, where the top-level parser took it
    (["--bogus", "rate", "--scheme", "eds", "--pt-w", "1"], "unrecognized arguments: --bogus\n"),
])
def test_bad_flag_fails_with_one_line(argv, field, capsys):
    code, err = _exit_code(argv, capsys)
    prog = "paswipt" if argv[0].startswith("-") else f"paswipt {argv[0]}"
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"{prog}: error:")
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scheme, height, message", [
    # h^2 underflows to 0: the diagonal closed form divided by it, the edge quadrature failed
    ("dds", "1e-200", "height^2 must be a normal float"),
    ("eds", "1e-200", "height^2 must be a normal float"),
    # a valid room whose energy integrand is a spike the quadrature cannot resolve
    ("eds", "1e-100", "energy row failed: scheme=eds model=lm method=quadrature"),
])
def test_tiny_height_fails_with_one_line(tmp_path, scheme, height, message):
    """A fresh `python -m paswipt.cli` process: exit 2, one stderr line, no traceback."""
    run = subprocess.run([sys.executable, "-m", "paswipt.cli", "energy", "--scheme", scheme,
                          "--pt-w", "0.3", "--height", height], cwd=tmp_path,
                         capture_output=True, text=True, env=package_env())
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert run.stderr.startswith("paswipt energy: error: ") and message in run.stderr


@pytest.mark.parametrize("method", ["closed", "quad"])
def test_infinite_link_factor_fails_with_one_line(method, capsys):
    # 1e300 W over 1e-33 W of noise: mu P_t / sigma^2 overflows, every field is valid
    code, err = _exit_code(["rate", "--scheme", "eds", "--pt-w", "1e300", "--noise-dbm", "-300",
                            "--method", method], capsys)
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert "(path_loss_factor_m2 * transmit_snr) must be finite, got inf" in err


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
    ("noise_power_dbm: -90", "noise_power_dbm: 1e6",
     "key 'noise_power_dbm' in section 'system' is out of range, got 1000000.0"),
    ("alpha: 0.8", "alpha: yes", "key 'alpha' in section 'protocol' must be a number, got True"),
], ids=["section-not-a-mapping", "eta-not-a-number", "power-not-a-number", "noise-overflows",
        "alpha-a-yaml-boolean"])
def test_malformed_config_file_fails_with_one_line(tmp_path, capsys, old, new, message):
    path = _config_file(tmp_path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, err = _exit_code(["rate", "--scheme", "eds", "--config", str(path)], capsys)
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def _loaded_after(tmp_path, *argvs):
    """The modules under numpy, scipy, yaml and concurrent that are in
    sys.modules after a fresh interpreter imports paswipt.cli and runs
    main() on each argv in turn."""
    code = (
        "import json, sys\n"
        "from paswipt.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    main(argv)\n"
        "roots = ('numpy', 'scipy', 'yaml', 'concurrent')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env=package_env())
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    None,
    ["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3"],
    ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", _regime_pt(Scheme.DDS, "saturated")],
    ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", _regime_pt(Scheme.DDS, "knee")],
    ["energy", "--scheme", "eds", "--model", "nlm", "--pt-w", _regime_pt(Scheme.EDS, "below")],
    ["rate", "--scheme", "cds", "--pt-w", "0.3", "--method", "closed", "--method", "quad"],
    ["dist", "--scheme", "dds", "--emit-cdf", "points.csv"],
    ["sweep", "--preset", "s1", "--out", "s1"],
    ["sweep", "--preset", "c1", "--out", "c1"],
    ["sweep", "--preset", "fig4", "--out", "fig4"],
], ids=["import-only", "lm", "nlm-saturated", "nlm-knee", "nlm-below-turn-on", "rate", "dist",
        "sweep-s1", "sweep-c1", "sweep-fig4"])
def test_scalar_calls_load_no_numpy_scipy_or_yaml(tmp_path, argv):
    # closed forms, the Jensen bound, the quadrature, the distance-law table
    # and the preset grids run on floats alone, and no thread pool is loaded
    assert _loaded_after(tmp_path, *([argv] if argv else [])) == set()


def test_config_file_loads_yaml(tmp_path):
    loaded = _loaded_after(tmp_path, ["energy", "--scheme", "eds",
                                      "--config", str(_config_file(tmp_path))])
    assert loaded == {"yaml"} | {m for m in loaded if m.startswith("yaml.")}


@pytest.mark.parametrize("argv", [
    ["energy", "--scheme", "eds", "--model", "lm", "--pt-w", "0.3", "--mc", "--samples", "2000"],
    ["rate", "--scheme", "dds", "--pt-w", "0.3", "--method", "mc", "--samples", "2000"],
    ["sweep", "--preset", "s1", "--out", "s1", "--mc", "--samples", "2000"],
], ids=["energy-mc", "rate-mc", "sweep-s1-mc"])
def test_array_calls_load_numpy(tmp_path, argv):
    assert "numpy" in _loaded_after(tmp_path, argv)


@pytest.mark.parametrize("workers, pool", [("1", False), ("2", True)])
def test_thread_pool_loads_only_when_a_pool_runs(tmp_path, workers, pool):
    # 70000 samples make 3 chunks: one worker runs them inline, two run a pool
    loaded = _loaded_after(tmp_path, ["energy", "--scheme", "eds", "--model", "lm", "--pt-w",
                                      "0.3", "--mc", "--samples", "70000", "--workers", workers])
    assert "numpy" in loaded
    assert ("concurrent.futures" in loaded) is pool


@pytest.mark.parametrize("name, mc_args", [
    ("knee", ["--samples", "20000"]),
    ("saturated", ["--samples", "70000", "--workers", "2"]),
], ids=["knee", "saturated"])
def test_logistic_mc_call_loads_numpy_alone(tmp_path, name, mc_args):
    # at the knee power the one MC chunk straddles the turn-on, so the array kernel
    # runs np.exp; at the saturated power the series draws no chunk, so its 3 chunks
    # start no thread pool even with 2 workers
    loaded = _loaded_after(
        tmp_path,
        ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", _regime_pt(Scheme.DDS, name),
         "--mc", *mc_args],
    )
    assert {m.split(".")[0] for m in loaded} == {"numpy"}  # no scipy, yaml or concurrent.futures
