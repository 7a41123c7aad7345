"""cli-cold: one cold ``paswipt`` process per operation.

What a desk user waits for on a single closed-form or quadrature call;
module import dominates it.  The call mix is fixed in composition (three
each of ``dist --emit-cdf``, ``energy --model lm``, ``energy --model nlm``
and ``rate --method closed --method quad``, plus one ``energy`` call that
reads a YAML config written at set-up) so every seed does the same kind
of work; the seed picks schemes, powers, rooms, protocol factors and the
order.  No Monte-Carlo and no ``sweep`` subcommand.

Stdlib only: this process imports nothing from the package, so set-up
and the peak RSS of the calls (``RUSAGE_CHILDREN``) are the CLI's own.
Outputs are checked here with ``math``, independently of the package.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

from tracer import load_spans

BENCH_DIR = Path(__file__).resolve().parent
# The body of the ``paswipt`` console script.
ENTRY = "import sys; from paswipt.cli import main; sys.exit(main())"
SHIM = BENCH_DIR / "clishim.py"

ROOMS = ((8.0, 8.0, 3.0), (15.0, 8.0, 3.0), (15.0, 10.0, 3.0))  # the presets' rooms
PROTOCOLS = ((0.8, 0.8), (0.6, 0.6))  # c1, c2
POWERS = tuple(10.0 ** (-2.0 + 2.0 * k / 49) for k in range(50))  # preset grid, W
SCHEMES = ("eds", "cds", "dds")
KINDS = ("dist", "energy-lm", "energy-nlm", "rate")
PER_KIND = 3
CDF_POINTS = 1000  # the CLI default

REL_TOL = 1e-8  # closed form vs quadrature, as in acceptance criterion 2
JENSEN_FLOOR_W = 1e-12  # rounding allowance of acceptance criterion 5
CDF_ABS_TOL = 1e-12
PDF_REL_TOL = 1e-12


def _config_yaml(pt_w, alpha, beta, room) -> str:
    d_x, d_y, h = room
    return (
        "system:\n  carrier_frequency_ghz: 28\n  noise_power_dbm: -90\n"
        f"  transmit_power_w: {pt_w!r}\n"
        f"protocol:\n  alpha: {alpha!r}\n  beta: {beta!r}\n"
        f"geometry:\n  d_x_m: {d_x!r}\n  d_y_m: {d_y!r}\n  height_m: {h!r}\n"
        "harvest:\n  model: nlm\n  saturation_mw: 20\n  slope_per_uw: 100\n  turn_on_uw: 2.9\n"
    )


class CliCold:
    """Cycles through a seeded list of distinct calls; a repeated call
    must reproduce its output bytes."""

    required_spans = ("cli.main", "config.load", "energy.closed", "energy.quad",
                      "rate.closed", "rate.quad", "distributions.expect")

    mc_samples = 0

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        rng = random.Random(seed)
        pt_w = rng.choice(POWERS)
        alpha, beta = rng.choice(PROTOCOLS)
        room = rng.choice(ROOMS)
        cfg_path = work_dir / "config.yaml"
        cfg_path.write_text(_config_yaml(pt_w, alpha, beta, room))
        scheme = rng.choice(SCHEMES)
        self.calls = [dict(kind="energy-nlm", scheme=scheme, room=room, argv=[
            "energy", "--scheme", scheme, "--model", "nlm", "--pt-w", repr(pt_w),
            "--config", str(cfg_path)])]
        kinds = [k for k in KINDS for _ in range(PER_KIND)]
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds, start=1):
            self.calls.append(self._call(j, kind, rng))
        self.first_output: dict[int, str] = {}
        # Untimed warm-up: byte-compiles the package and fills the file
        # cache, which a user pays once per install, not per call.
        warm = subprocess.run([sys.executable, "-c", ENTRY, *self.calls[1]["argv"]],
                              capture_output=True, cwd=work_dir, timeout=120)
        if warm.returncode:
            raise RuntimeError(f"warm-up call failed: {warm.stderr.decode()[-500:]}")

    def _call(self, j: int, kind: str, rng: random.Random) -> dict:
        scheme, room = rng.choice(SCHEMES), rng.choice(ROOMS)
        alpha, beta = rng.choice(PROTOCOLS)
        d_x, d_y, h = room
        common = ["--dx", repr(d_x), "--dy", repr(d_y), "--height", repr(h),
                  "--alpha", repr(alpha), "--beta", repr(beta)]
        if kind == "dist":
            argv = ["dist", "--scheme", scheme, "--emit-cdf", str(self.work_dir / f"cdf{j}.csv")]
        elif kind == "rate":
            argv = ["rate", "--scheme", scheme, "--pt-w", repr(rng.choice(POWERS)),
                    "--method", "closed", "--method", "quad"]
        else:
            argv = ["energy", "--scheme", scheme, "--model", kind.split("-")[1],
                    "--pt-w", repr(rng.choice(POWERS))]
        return dict(kind=kind, scheme=scheme, room=room, argv=argv + common)

    @property
    def cycle(self) -> int:
        return len(self.calls)

    def op(self, i: int, tracer=None) -> dict:
        call = self.calls[i % self.cycle]
        if tracer is None:
            cmd = [sys.executable, "-c", ENTRY, *call["argv"]]
        else:
            spans_file = self.work_dir / "spans.jsonl"
            cmd = [sys.executable, str(SHIM), str(spans_file), *call["argv"]]
        proc = subprocess.run(cmd, capture_output=True, cwd=self.work_dir, timeout=120)
        if tracer is not None and spans_file.exists():
            spans, counts = load_spans(spans_file)
            tracer.extend(spans, i)
            tracer.counts.update(counts)
            spans_file.unlink()
        out = dict(code=proc.returncode, stdout=proc.stdout.decode(),
                   stderr=proc.stderr.decode())
        blob = proc.stdout
        if call["kind"] == "dist" and proc.returncode == 0:
            blob += Path(call["argv"][4]).read_bytes()
        out["digest"] = hashlib.sha256(blob).hexdigest()
        return out

    def check(self, i: int, out: dict) -> list[str]:
        call = self.calls[i % self.cycle]
        where = f"call {i} ({' '.join(call['argv'][:3])})"
        if out["code"] != 0:
            return [f"{where}: exit {out['code']}: {out['stderr'][-300:]}"]
        first = self.first_output.setdefault(i % self.cycle, out["digest"])
        if first != out["digest"]:
            return [f"{where}: output differs from the first run of the same call"]
        if call["kind"] == "dist":
            return [f"{where}: {p}" for p in _check_cdf(call, Path(call["argv"][4]))]
        lines = out["stdout"].strip().splitlines()
        if len(lines) != 2:
            return [f"{where}: expected a header and one CSV row, got {len(lines)} lines"]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        try:
            vals = {k: float(v) for k, v in row.items() if k not in ("scheme", "model")}
        except ValueError as exc:
            return [f"{where}: unparseable CSV: {exc}"]
        problems = [f"{where}: {k}={v} not finite and >= 0" for k, v in vals.items()
                    if not (math.isfinite(v) and v >= 0.0)]
        if "closed_bits_s_hz" in vals:
            a, b = vals["closed_bits_s_hz"], vals["quadrature_bits_s_hz"]
        elif "closed_w" in vals:
            a, b = vals["closed_w"], vals["quadrature_w"]
        else:
            if vals["bound_w"] < vals["quadrature_w"] - JENSEN_FLOOR_W:
                problems.append(f"{where}: Jensen bound {vals['bound_w']} < quadrature "
                                f"{vals['quadrature_w']}")
            return problems
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            problems.append(f"{where}: closed {a} vs quadrature {b} beyond {REL_TOL} rel")
        return problems

    def finish(self) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _check_cdf(call: dict, path: Path) -> list[str]:
    """Every (l, cdf, pdf) row against the distance law written out in math."""
    d_x, d_y, h = call["room"]
    h2 = h * h
    if call["scheme"] == "dds":
        lam = d_x * d_y / math.hypot(d_x, d_y)
        top = h2 + lam * lam

        def law(l):
            s = math.sqrt(l - h2)
            return (2.0 * lam * s - (l - h2)) / lam**2, 1.0 / (lam * s) - 1.0 / lam**2
    else:
        varpi = 1 if call["scheme"] == "eds" else 2
        top = h2 + (d_y / varpi) ** 2

        def law(l):
            s = math.sqrt(l - h2)
            return min(varpi * s / d_y, 1.0), varpi / (2.0 * d_y * s)

    lines = path.read_text().splitlines()
    if lines[0] != "l_m2,cdf,pdf" or len(lines) != CDF_POINTS + 1:
        return [f"bad CDF table header or length ({len(lines)} lines)"]
    prev = h2
    for line in lines[1:]:
        l, cdf, pdf = (float(x) for x in line.split(","))
        if not prev < l <= top * (1 + 1e-15):
            return [f"l={l} not increasing inside ({h2}, {top}]"]
        prev = l
        want_cdf, want_pdf = law(l)
        # The DDS density falls to 0 at the top of the support, so the pdf
        # tolerance is relative to its value plus the mean density.
        pdf_tol = PDF_REL_TOL * (abs(want_pdf) + 1.0 / (top - h2))
        if abs(cdf - want_cdf) > CDF_ABS_TOL or abs(pdf - want_pdf) > pdf_tol:
            return [f"at l={l}: cdf {cdf} pdf {pdf}, law gives {want_cdf} {want_pdf}"]
    if abs(prev - top) > 1e-12 * top:
        return [f"last l={prev}, support ends at {top}"]
    return []
