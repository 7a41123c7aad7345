import dataclasses
import hashlib
import math

import numpy as np
import pytest

from paswipt.config import (DEFAULT_HARVEST, ConfigError, LinearHarvest, LogisticHarvest,
                            default_config)
from paswipt.distributions import QuadratureError
from paswipt.montecarlo import estimate
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.sweep import (
    METHODS,
    PRESETS,
    SweepSpec,
    emit_outputs,
    evaluate,
    preset,
    run_power_sweep,
    run_tradeoff,
)

from oracles import SIMD_DISPATCH, tradeoff_rate_at_energy

DEFAULT_NLM = DEFAULT_HARVEST["nlm"]


def _rows_for(rows, **match):
    out = [r for r in rows if all(r[k] == v for k, v in match.items())]
    assert out, f"no rows matching {match}"
    return out


def test_spec_needs_two_grid_points(lm_config):
    with pytest.raises(ValueError, match="grid"):
        SweepSpec("energy", lm_config, (0.1,))


def test_spec_rejects_unknown_experiment(lm_config):
    with pytest.raises(ValueError, match="experiment"):
        SweepSpec("outage", lm_config, (0.1, 0.2))


@pytest.mark.parametrize("experiment,grid", [
    ("energy", (-0.5, 0.1)),
    ("rate", (-0.5, 0.1)),
    ("energy", (0.0, 0.1)),
    ("rate", (0.1, float("inf"))),
    ("energy", (float("nan"), 0.1)),
    ("region", (-0.1, 0.5)),
    ("region", (0.5, 1.5)),
    ("region", (float("nan"), 0.5)),
])
def test_spec_rejects_bad_grid(lm_config, experiment, grid):
    what = "region controls" if experiment == "region" else "grid powers"
    with pytest.raises(ValueError, match=what):
        SweepSpec(experiment, lm_config, grid)


def test_rate_spec_rejects_a_second_model(lm_config):
    # rate rows carry no model tag, so a second model could only be dropped or mixed in
    with pytest.raises(ValueError, match="one harvest model"):
        SweepSpec("rate", lm_config, (0.1, 0.2), models=tuple(DEFAULT_HARVEST.values()))


@pytest.mark.parametrize("methods", [("mc",), METHODS, ("closed", "quadrature")])
def test_region_spec_rejects_methods(lm_config, methods):
    # run_tradeoff picks the exact energy and the closed rate itself, so any
    # other methods could only be dropped
    with pytest.raises(ValueError, match="region sweep picks its own methods"):
        SweepSpec("region", lm_config, (0.0, 0.5, 1.0), methods=methods)
    assert preset("fig4", include_mc=True).methods == METHODS[:3]


@pytest.mark.parametrize("models,what", [
    ((LinearHarvest(eta=2.0), DEFAULT_NLM), "eta"),
    ((DEFAULT_HARVEST["lm"], LogisticHarvest(-1.0, 1e8, 2.9e-6)), "saturation_w"),
])
def test_spec_validates_each_model_it_runs(lm_config, models, what):
    # the config's own harvester is valid; each model replaces it in every row
    with pytest.raises(ConfigError, match=what):
        SweepSpec("energy", lm_config, (0.1, 0.2), models=models)


def test_unknown_preset():
    with pytest.raises(ValueError, match="preset"):
        preset("s3")


@pytest.fixture(scope="module")
def energy_rows():
    spec = SweepSpec(
        "energy", default_config(0.3).with_params(d_x=8.0, d_y=8.0),
        tuple(np.linspace(0.05, 10.0, 12)),
        models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
    )
    return run_power_sweep(spec)


@pytest.fixture(scope="module")
def region_spec():
    return SweepSpec(
        "region", default_config(0.3).with_params(d_x=8.0, d_y=8.0),
        tuple(np.linspace(0.0, 1.0, 21)),
        models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
    )


@pytest.fixture(scope="module")
def region_rows(region_spec):
    return run_tradeoff(region_spec)


class TestPowerSweep:
    def test_row_sorting_and_schema(self, energy_rows):
        keys = [(r["scheme"], r["model"], r["method"], r["pt_w"]) for r in energy_rows]
        assert keys == sorted(keys)
        assert set(energy_rows[0]) == {"pt_w", "scheme", "model", "method", "value_w"}

    def test_lm_energy_affine_through_origin(self, energy_rows):
        for scheme in Scheme:
            rows = _rows_for(energy_rows, scheme=scheme.value, model="lm", method="closed")
            pt = np.array([r["pt_w"] for r in rows])
            val = np.array([r["value_w"] for r in rows])
            slope = val[0] / pt[0]
            assert np.max(np.abs(val - slope * pt) / np.abs(val)) < 1e-12

    def test_nlm_saturates_at_top_of_grid(self, energy_rows):
        for scheme in Scheme:
            rows = _rows_for(energy_rows, scheme=scheme.value, model="nlm", method="quadrature")
            top = max(rows, key=lambda r: r["pt_w"])
            assert top["value_w"] > 0.99 * 0.8 * DEFAULT_NLM.saturation_w

    def test_rate_sweep_c2_above_c1(self):
        grid = tuple(np.logspace(-2, 0, 10))
        c1 = run_power_sweep(SweepSpec("rate", default_config(0.3).with_params(alpha=0.8, beta=0.8),
                                       grid, methods=("closed",)))
        c2 = run_power_sweep(SweepSpec("rate", default_config(0.3).with_params(alpha=0.6, beta=0.6),
                                       grid, methods=("closed",)))
        for r1, r2 in zip(c1, c2):
            assert (r1["scheme"], r1["pt_w"]) == (r2["scheme"], r2["pt_w"])
            assert r2["value_bits_s_hz"] > r1["value_bits_s_hz"]


class TestTradeoff:
    def test_schema(self, region_rows):
        assert set(region_rows[0]) == {
            "protocol", "control", "scheme", "model", "energy_w", "rate_bits_s_hz",
        }

    def test_endpoints(self, region_rows):
        for protocol in ("ts", "ps"):
            for scheme in Scheme:
                for model in ("lm", "nlm"):
                    rows = _rows_for(region_rows, protocol=protocol,
                                     scheme=scheme.value, model=model)
                    lo = min(rows, key=lambda r: r["control"])
                    hi = max(rows, key=lambda r: r["control"])
                    assert lo["energy_w"] == 0.0
                    assert hi["rate_bits_s_hz"] == 0.0
                    assert hi["energy_w"] == max(r["energy_w"] for r in rows)
                    assert lo["rate_bits_s_hz"] == max(r["rate_bits_s_hz"] for r in rows)

    def test_monotone_along_curve(self, region_rows):
        for protocol in ("ts", "ps"):
            for scheme in Scheme:
                for model in ("lm", "nlm"):
                    rows = sorted(
                        _rows_for(region_rows, protocol=protocol,
                                  scheme=scheme.value, model=model),
                        key=lambda r: r["control"],
                    )
                    e = np.array([r["energy_w"] for r in rows])
                    r_ = np.array([r["rate_bits_s_hz"] for r in rows])
                    assert np.all(np.diff(e) >= -1e-15)
                    assert np.all(np.diff(r_) <= 1e-15)

    def test_lm_ts_ps_curves_coincide(self, region_rows):
        for scheme in Scheme:
            ts = sorted(_rows_for(region_rows, protocol="ts", scheme=scheme.value, model="lm"),
                        key=lambda r: r["control"])
            ps = sorted(_rows_for(region_rows, protocol="ps", scheme=scheme.value, model="lm"),
                        key=lambda r: r["control"])
            for a, b in zip(ts, ps):
                assert abs(a["energy_w"] - b["energy_w"]) < 1e-12
                assert abs(a["rate_bits_s_hz"] - b["rate_bits_s_hz"]) < 1e-12

    def test_nlm_ts_affine_ps_not(self, region_rows):
        for scheme in Scheme:
            ts = sorted(_rows_for(region_rows, protocol="ts", scheme=scheme.value, model="nlm"),
                        key=lambda r: r["control"])
            c = np.array([r["control"] for r in ts])
            e = np.array([r["energy_w"] for r in ts])
            r_ = np.array([r["rate_bits_s_hz"] for r in ts])
            # affine in the control: exact chord match
            chord_e = e[0] + (e[-1] - e[0]) * c
            chord_r = r_[0] + (r_[-1] - r_[0]) * c
            assert np.max(np.abs(e - chord_e)) < 1e-12 * max(1.0, e[-1])
            assert np.max(np.abs(r_ - chord_r)) < 1e-12 * max(1.0, r_[0])

            ps = sorted(_rows_for(region_rows, protocol="ps", scheme=scheme.value, model="nlm"),
                        key=lambda r: r["control"])
            e_ps = np.array([r["energy_w"] for r in ps])
            chord = e_ps[0] + (e_ps[-1] - e_ps[0]) * c
            assert np.max(np.abs(e_ps - chord)) > 0.0

    def test_square_room_diagonal_dominates(self, region_rows, region_spec):
        base = region_spec.config
        for protocol in ("ts", "ps"):
            for model_tag, model in (("lm", LinearHarvest(eta=1.0)), ("nlm", DEFAULT_NLM)):
                for scheme in (Scheme.EDS, Scheme.CDS):
                    rows = _rows_for(region_rows, protocol=protocol,
                                     scheme=scheme.value, model=model_tag)
                    for r in rows:
                        dds_rate = tradeoff_rate_at_energy(
                            Scheme.DDS, protocol, model, base, r["energy_w"]
                        )
                        assert dds_rate >= r["rate_bits_s_hz"] - 1e-9


@pytest.mark.parametrize("scheme", list(Scheme))
def test_tradeoff_at_own_plateau_is_leftmost_crossing(scheme):
    """Under PS the logistic energy saturates before beta = 1, so the
    leftmost control that reaches the plateau still leaves a positive rate."""
    base = preset("fig4").config
    (plateau, _), = evaluate("energy", "quadrature", scheme,
                             [base.with_params(alpha=1.0, beta=1.0, harvest=DEFAULT_NLM)])
    rate = tradeoff_rate_at_energy(scheme, "ps", DEFAULT_NLM, base, plateau)
    below = tradeoff_rate_at_energy(scheme, "ps", DEFAULT_NLM, base, plateau * (1 - 1e-15))
    assert rate > 0.0
    assert rate == pytest.approx(below, rel=1e-4)
    assert tradeoff_rate_at_energy(scheme, "ps", DEFAULT_NLM, base, plateau * (1 + 1e-15)) == 0.0


def test_tradeoff_rejects_nan_energy():
    base = preset("fig4").config
    with pytest.raises(ValueError, match="nan"):
        tradeoff_rate_at_energy(Scheme.EDS, "ps", LinearHarvest(eta=1.0), base, float("nan"))


class TestEmitOutputs:
    def test_refuses_empty_table(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs([], tmp_path, "energy")

    def test_csv_columns_and_determinism(self, tmp_path):
        spec = SweepSpec("energy", default_config(0.3), (0.1, 0.2, 0.3), methods=("closed",))
        rows = run_power_sweep(spec)
        p1 = emit_outputs(rows, tmp_path / "a", "energy")[0]
        p2 = emit_outputs(run_power_sweep(spec), tmp_path / "b", "energy")[0]
        assert p1.read_text().splitlines()[0] == "pt_w,scheme,model,method,value_w"
        assert p1.read_bytes() == p2.read_bytes()

    def test_region_csv_columns(self, tmp_path):
        spec = SweepSpec("region", default_config(0.3), (0.0, 0.5, 1.0))
        paths = emit_outputs(run_tradeoff(spec), tmp_path, "region")
        header = paths[0].read_text().splitlines()[0]
        assert header == "protocol,control,scheme,model,energy_w,rate_bits_s_hz"
        # the plot script only references the CSV by relative name
        assert "region.csv" in paths[1].read_text()

    def test_always_writes_the_plot_script(self, tmp_path):
        rows = run_power_sweep(SweepSpec("rate", default_config(0.3), (0.1, 0.2),
                                         methods=("closed",)))
        paths = emit_outputs(rows, tmp_path, "rate")
        assert [p.name for p in paths] == ["rate.csv", "plot_rate.py"]
        assert all(p.exists() for p in paths)
        with pytest.raises(TypeError):
            emit_outputs(rows, tmp_path, "rate", write_plot_script=False)


# sha256 of each preset's CSV as emit_outputs writes it: any change to a
# value, its formatting or the row order shows here.  The power grids are
# libm's correctly rounded 10**x, so every case but c1 with MC has these
# bytes at every numpy SIMD level.  c1's MC rows run np.log1p, whose
# AVX-512 loop rounds differently from libm's: under SIMD dispatch that
# case runs on libm's log1p (math.log1p per element), which np.log1p is at
# numpy's baseline level, and test_digits_without_simd_dispatch runs it on
# np.log1p there.
PRESET_CSV_SHA256 = {
    ("s1", False): "d5f9f5c5e79e77332170be9ec4bf3006ced8f57b28bfe977dbe15428d256ecfd",
    ("s2", False): "f163061291c8d081d70f5ce98fc8e5ff6466aa1fde1299636d8bb61d80eac7cc",
    ("c1", False): "81710ec4b424c186d31eac29cbd3fed0a394a82fe92d19aa99c2c17ef198daaf",
    ("c2", False): "394e2148963d0d804954a7ba978e8bf587afae40130e9ab2354b4a133f70d2e2",
    ("fig4", False): "5817508a5a3ec5249ed9e2e26b70b4ef7ae5ed1a6876b5da85ac37581fa82e12",
    ("s1", True): "ecab1f9740b5c24abfc3dd86c9ac2d708b415fe3b689b25480a7d1724e3c8c84",
    ("c1", True): "6b1f8fdd95e068492526d71f00c06303ad727e31c7b12492935835ffc23b23fa",
}


@pytest.mark.digits
@pytest.mark.parametrize("name,include_mc", list(PRESET_CSV_SHA256))
def test_preset_csv_golden_bytes(name, include_mc, tmp_path, monkeypatch):
    """Each preset's CSV, byte for byte; the MC ones at 2^14 samples, seed 0."""
    if SIMD_DISPATCH and (name, include_mc) == ("c1", True):
        per_element = np.vectorize(math.log1p, otypes=[float])

        def libm_log1p(x, out=None):  # np.log1p(x, out=out) on libm's log1p
            if out is None:
                return per_element(x)
            np.copyto(out, per_element(x))
            return out

        monkeypatch.setattr(np, "log1p", libm_log1p)
    spec = preset(name, include_mc=include_mc, samples=1 << 14, seed=0)
    rows = run_tradeoff(spec) if spec.experiment == "region" else run_power_sweep(spec)
    csv_path = emit_outputs(rows, tmp_path, spec.experiment)[0]
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
        PRESET_CSV_SHA256[name, include_mc]


@pytest.mark.parametrize("name,experiment", [
    ("s1", "energy"), ("s2", "energy"), ("c1", "rate"), ("c2", "rate"), ("fig4", "region"),
])
def test_presets_build_valid_specs(name, experiment):
    spec = preset(name)
    assert spec.experiment == experiment
    assert len(spec.grid) >= 2


@pytest.mark.parametrize("name", ["s1", "s2", "c1", "c2"])  # fig4 has no MC rows
@pytest.mark.parametrize("n,grid_stride", [(1 << 14, 1), (100_003, 7)])
def test_shared_stream_rows_match_fresh_estimates(name, n, grid_stride):
    """Each MC row of a sweep, estimated with the rest of its power series
    on shared draws, is bitwise the estimate of its config alone.  100 003
    is not a multiple of the chunk size; its grid is thinned to keep the
    test fast."""
    spec = preset(name, include_mc=True, samples=n, seed=11)
    spec = dataclasses.replace(spec, methods=("mc",), grid=spec.grid[::grid_stride])
    rows = run_power_sweep(spec)
    models = {"lm": spec.models[0], "nlm": spec.models[-1]}
    assert len(rows) == len(Scheme) * len(spec.grid) * (2 if name.startswith("s") else 1)
    for r in rows:
        assert r["method"] == "mc"
        cfg = spec.config.with_params(transmit_power_w=r["pt_w"])
        if "model" in r:
            cfg = cfg.with_params(harvest=models[r["model"]])
        metric = f"energy-{r['model']}" if "model" in r else "rate"
        (fresh,) = estimate(metric, Scheme(r["scheme"]), [cfg], n=n, seed=11)
        assert r["value_w" if "model" in r else "value_bits_s_hz"] == fresh.mean


def test_mc_sweep_draws_each_chunk_once_per_series(monkeypatch):
    """s1 with MC rows at n = 2^14 (one chunk): one draw per (scheme, model)."""
    calls = []

    def counted(scheme, *args, **kwargs):
        calls.append(scheme)
        return optimal_squared_distance(scheme, *args, **kwargs)

    monkeypatch.setattr("paswipt.montecarlo.optimal_squared_distance", counted)
    spec = preset("s1", include_mc=True, samples=1 << 14, seed=2)
    rows = run_power_sweep(spec)
    assert sum(r["method"] == "mc" for r in rows) == 3 * 2 * len(spec.grid)
    assert sorted(calls) == sorted(2 * list(Scheme))


def test_preset_include_mc_appends_mc_method():
    for name in ("s1", "s2", "c1", "c2"):
        plain, with_mc = preset(name), preset(name, include_mc=True)
        assert with_mc.methods == plain.methods + ("mc",)
        assert "mc" not in plain.methods
    assert preset("fig4", include_mc=True).methods == preset("fig4").methods
    assert "include_mc" not in {f.name for f in dataclasses.fields(SweepSpec)}


# (model, method) of the rows a power preset makes without MC: each method that applies
_PRESET_KEYS = {
    "energy": {("lm", "closed"), ("lm", "quadrature"), ("nlm", "bound"), ("nlm", "quadrature")},
    "rate": {(None, "closed"), (None, "quadrature")},
}


@pytest.mark.parametrize("include_mc", [False, True])
@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_row_keys(name, include_mc):
    """The (scheme, model, method) keys of each preset's rows, on every
    tenth grid point: mc rows come with include_mc, and never in fig4."""
    spec = preset(name, include_mc=include_mc, samples=1000, seed=1)
    spec = dataclasses.replace(spec, grid=spec.grid[::10])
    if spec.experiment == "region":
        keys = {(r["scheme"], r["model"], r["protocol"]) for r in run_tradeoff(spec)}
        assert keys == {(s.value, model, protocol) for s in Scheme for model in ("lm", "nlm")
                        for protocol in ("ts", "ps")}
        return
    pairs = _PRESET_KEYS[spec.experiment]
    if include_mc:
        pairs = pairs | {(model, "mc") for model, _ in pairs}
    rows = run_power_sweep(spec)
    assert {(r["scheme"], r.get("model"), r["method"]) for r in rows} == \
        {(s.value, model, method) for s in Scheme for model, method in pairs}
    assert len(rows) == len(Scheme) * len(pairs) * len(spec.grid)


def test_power_sweep_evaluates_exactly_spec_methods():
    spec = SweepSpec("energy", default_config(0.3), (0.1, 0.2), methods=("mc",), samples=1000,
                     seed=4)
    assert {r["method"] for r in run_power_sweep(spec)} == {"mc"}
    spec = dataclasses.replace(spec, methods=("quadrature", "closed"))
    assert {r["method"] for r in run_power_sweep(spec)} == {"quadrature", "closed"}


@pytest.mark.parametrize("samples,seed,workers,what", [
    (1, 0, 1, "samples"), (1000, -1, 1, "seed"), (1000, 1 << 64, 1, "seed"),
    (1000, 0, 0, "workers"),
])
def test_spec_rejects_bad_mc_inputs_without_mc_rows(lm_config, samples, seed, workers, what):
    with pytest.raises(ValueError, match=what):
        SweepSpec("energy", lm_config, (0.1, 0.2), samples=samples, seed=seed, workers=workers)


@pytest.mark.parametrize("quantity,method,model", [
    ("energy", "closed", "nlm"), ("energy", "bound", "lm"), ("rate", "bound", "lm"),
    ("rate", "bound", "nlm"),
])
def test_evaluate_none_where_method_does_not_apply(quantity, method, model):
    assert evaluate(quantity, method, Scheme.EDS, [default_config(0.3, model)]) is None


@pytest.mark.parametrize("quantity", ["energy", "rate"])
@pytest.mark.parametrize("model", ["lm", "nlm"])
def test_evaluate_reports_an_error_for_mc_only(quantity, model):
    cfgs = [default_config(p, model) for p in (1e-4, 2e-4)]
    for method in METHODS:
        results = evaluate(quantity, method, Scheme.DDS, cfgs, samples=4000, seed=3)
        if results is None:
            continue
        assert len(results) == len(cfgs)
        for cfg, (value, std_error) in zip(cfgs, results):
            assert np.isfinite(value) and value > 0.0
            if method == "mc":
                assert std_error > 0.0
                (fresh,) = estimate("rate" if quantity == "rate" else f"energy-{model}",
                                    Scheme.DDS, [cfg], n=4000, seed=3)
                assert (value, std_error) == (fresh.mean, fresh.std_error)
            else:
                assert std_error is None


def test_evaluate_rejects_unknown_names(lm_config):
    with pytest.raises(ValueError, match="method"):
        evaluate("energy", "simulation", Scheme.EDS, [lm_config])
    with pytest.raises(ValueError, match="method"):
        evaluate("rate", "quad", Scheme.EDS, [lm_config])
    with pytest.raises(ValueError, match="quantity"):
        evaluate("outage", "closed", Scheme.EDS, [lm_config])


@pytest.mark.parametrize("method", METHODS)
def test_evaluate_rejects_mixed_models(lm_config, nlm_config, method):
    for cfgs in ([lm_config, nlm_config], []):
        with pytest.raises(ValueError, match="harvest model"):
            evaluate("energy", method, Scheme.EDS, cfgs, samples=1000)


def test_failed_row_names_scheme_model_method_and_power(nlm_config, monkeypatch):
    def failing(scheme, system, *args):
        if scheme is Scheme.CDS and system.transmit_power_w == 0.2:
            raise QuadratureError("no convergence")
        return 0.0

    monkeypatch.setattr("paswipt.sweep.avg_energy_quadrature", failing)
    spec = SweepSpec("energy", nlm_config, (0.1, 0.2, 0.3), methods=("quadrature",))
    with pytest.raises(RuntimeError) as exc:
        run_power_sweep(spec)
    for part in ("scheme=cds", "model=nlm", "method=quadrature", "pt_w=0.2"):
        assert part in str(exc.value)
    assert isinstance(exc.value.__cause__, QuadratureError)
