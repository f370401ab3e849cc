"""Closed-loop benchmark of the codedmask design pipeline.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--design-seed B]

One client issues one operation at a time (a closed loop) for about S
seconds, in whole cycles of the workload's input mix, then verifies every
output against the independent reference in ``verify.py`` and repeats one
operation to check that its output bytes are identical.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans, see ``spans.py``) with ``--trace 1``.  BLAS
and OpenMP are pinned to one thread in this process and in every child.

Workloads (the same --seed gives the same inputs):

- batch-small: library design_aperture on unique random priors, n cycling
  through 16, 64, 677 with t = 50 n, in this process (warm basis cache).
- large-1d: CLI ``design --method nazarov --out --report`` at n = 5000, one
  fresh process per design, priors alternating bandlimited and iid.
- sweep-cli: the default CLI ``sweep`` (11 exposures, 4 methods) at n = 677
  on an iid prior, one fresh process per sweep.
- design-2d: library design_aperture_2d, cycling through an iid prior at the
  residue length 67 (product-flat path) and powerlaw priors at n = 64, 96.

The greedy's run time and its LMMSE ratio depend on its exact trajectory,
which any change of the design seed or of the targets' shape redraws: at
n = 5000 one design seed takes 14 sweeps and ends at ratio 3.6, another 21
sweeps and 2.7; a 2D powerlaw design at n = 64 ends anywhere in 3.0-4.5 as
theta moves by 5 %.  large-1d, sweep-cli and design-2d fit only 1-7
operations in a run, too few to average that out, so they fix the
trajectories (common random numbers): large-1d and design-2d give the i-th
design of every cycle design seed B + i, sweep-cli passes --seed B to every
sweep, where B is --design-seed (0 unless given), and --seed sets only the
scale theta of priors whose targets do not depend on it (iid, bandlimited)
or of the product-flat path, which has no trajectory.  design-2d's powerlaw
prior is fixed.  Their op times and LMMSE ratios therefore compare only
across changes that keep the greedy's trajectory; ``record.py`` measures
how far they move with B.  batch-small runs about 60 designs on unique
random priors and draws everything from --seed.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from child import ROOT, timed_import  # noqa: E402  (stdlib-only module)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5  # fewest import timings behind the setup_s median
W = J = 1e-3


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` and ``fingerprint`` are not.

    ``check`` returns the failed verifications and the LMMSE ratios (LMMSE
    at nominal exposure over the certificate's bound) of the output.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[float]]]
    fingerprint: Callable[[object], bytes]


@dataclass
class ChildResult:
    exit: int
    files: dict[str, bytes]
    trace: dict | None
    stderr: str


class Workload:
    """Input mix of one workload; ``cycle(k)`` lists the ops of cycle k."""

    in_process = True

    def __init__(self, seed: int, design_seed: int, tmp: Path,
                 trace: bool):
        self.seed = seed
        self.design_seed = design_seed
        self.tmp = tmp
        self.trace = trace
        self._calls = itertools.count()
        self.setup_samples: list[float] = []
        self.op = 0  # index of the op being run, for span op ids

    def rng(self, *key):
        import numpy as np
        return np.random.default_rng([self.seed, *key])

    def run_cli(self, args: list[str], outputs: list[str]) -> ChildResult:
        """Run the CLI in a fresh child; ``{}`` in args is an output path."""
        call = self.tmp / f"call{next(self._calls)}"
        call.mkdir()
        paths = [str(call / name) for name in outputs]
        fill = iter(paths)
        argv = [a if a != "{}" else next(fill) for a in args]
        result = call / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result)]
        if self.trace:
            cmd += ["--trace", str(self.op)]
        proc = subprocess.run(cmd + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        info = json.loads(result.read_text()) if result.is_file() else {}
        files = {name: Path(p).read_bytes()
                 for name, p in zip(outputs, paths) if Path(p).is_file()}
        shutil.rmtree(call)
        if "setup_s" in info:
            self.setup_samples.append(info["setup_s"])
        return ChildResult(proc.returncode, files,
                           info if "spans" in info else None,
                           proc.stderr[-2000:])


def _certified_1d_check(n, t, d):
    """Check of a 1D greedy design given as (mask, certificate fields)."""
    from codedmask.spectra import m_bound
    import verify

    def check(mask, passed, penalty, rho_star, b_sup_norm, bound):
        M = m_bound(n)
        errors, ratio = verify.check_certified_design(
            t, W, J, d, mask, M, rho_star, b_sup_norm, bound)
        if not passed:
            errors.append("certificate reports failure")
        if abs(penalty - 2.0 * M * M) > verify.RTOL * penalty:
            errors.append(f"penalty {penalty} != 2 M^2")
        return errors, [ratio]
    return check


class BatchSmall(Workload):
    NS = (16, 64, 677)

    def cycle(self, k):
        import codedmask.model as model
        import codedmask.nazarov as nazarov
        ops = []
        for i, n in enumerate(self.NS):
            rng = self.rng(k, i)
            d = rng.random(n) + 1e-3
            d /= d.sum()
            t = 50.0 * n
            seed = [self.seed, k, i]
            cfg = model.ImagingConfig(n, t, W, J)
            certified = _certified_1d_check(n, t, d)

            def run(cfg=cfg, d=d, seed=seed):
                return nazarov.design_aperture(cfg, d, seed=seed)

            def check(out, certified=certified):
                aperture, cert = out
                return certified(aperture.values, cert.passed, cert.penalty,
                                 cert.detail["rho_star"], cert.b_sup_norm,
                                 cert.detail["lower_bound"])
            ops.append(Op(f"n={n}", run, check, _library_fingerprint))
        return ops


def _library_fingerprint(out) -> bytes:
    aperture, cert = out
    return (aperture.values.tobytes() + cert.achieved.tobytes()
            + cert.required.tobytes()
            + repr((cert.penalty, cert.restarts, cert.b_sup_norm, cert.seed,
                    cert.passed)).encode())


class Large1D(Workload):
    in_process = False
    N = 5000

    def cycle(self, k):
        import verify
        n, t = self.N, 50.0 * self.N
        ops = []
        for i, kind in enumerate(("bandlimited", "iid")):
            rng = self.rng(k, i)
            theta = float(rng.uniform(0.8, 1.25))
            if kind == "iid":
                record = f"prior iid theta={theta!r}"
                d = verify.sample_density("iid", n, theta)
            else:
                record = f"prior bandlimited theta={theta!r} s=0.05 r=0.01"
                d = verify.sample_density("bandlimited", n, theta, s=0.05,
                                          r=0.01)
            args = ["design", "--n", str(n), "--t", repr(t), "--W", repr(W),
                    "--J", repr(J), "--prior", record, "--method", "nazarov",
                    "--seed", str(self.design_seed + i), "--out", "{}",
                    "--report", "{}"]
            certified = _certified_1d_check(n, t, d)

            def run(args=args):
                return self.run_cli(args, ["mask.txt", "report.json"])

            def check(out, certified=certified):
                if out.exit != 0:
                    return [f"exit {out.exit}: {out.stderr}"], []
                report = json.loads(out.files["report.json"])
                mask = _read_mask(out.files["mask.txt"], n)
                return certified(mask, report["passed"], report["penalty"],
                                 report["detail"]["rho_star"],
                                 report["b_sup_norm"],
                                 report["detail"]["lower_bound"])
            ops.append(Op(kind, run, check, _files_fingerprint))
        return ops


def _read_mask(data: bytes, n: int):
    import numpy as np
    lines = data.decode().split("\n")
    header = dict(kv.split("=", 1) for kv in lines[0].split())
    if int(header["n"]) != n or header["dims"] != "1":
        raise ValueError(f"unexpected aperture header {lines[0]!r}")
    return np.array([float(x) for x in lines[1:] if x])


def _files_fingerprint(out: ChildResult) -> bytes:
    return repr(out.exit).encode() + b"".join(
        name.encode() + b"\0" + data for name, data in sorted(out.files.items()))


class SweepCli(Workload):
    in_process = False
    N = 677
    COLUMNS = ("t", "lmmse_lowerbound", "lmmse_flat", "lmmse_nazarov",
               "lmmse_random_mean", "rho_star", "rho_random_star", "seed")

    def cycle(self, k):
        import numpy as np
        import verify
        n = self.N
        theta = float(self.rng(k).uniform(0.8, 1.25))
        d = verify.sample_density("iid", n, theta)
        args = ["sweep", "--n", str(n), "--W", repr(W), "--J", repr(J),
                "--prior", f"prior iid theta={theta!r}",
                "--seed", str(self.design_seed), "--out", "{}"]
        ts = np.geomspace(1e2, 1e7, 11)  # the CLI's default t grid

        def run():
            return self.run_cli(args, ["sweep.csv"])

        def check(out):
            if out.exit != 0:
                return [f"exit {out.exit}: {out.stderr}"], []
            rows = [line.split(",") for line in
                    out.files["sweep.csv"].decode().splitlines()
                    if not line.startswith("#")]
            if tuple(rows[0]) != self.COLUMNS or len(rows) != 1 + ts.size:
                return ["unexpected sweep table shape"], []
            errors, ratios = [], []
            for t, row in zip(ts, rows[1:]):
                v = dict(zip(self.COLUMNS, map(float, row)))
                lb = v["lmmse_lowerbound"]
                if abs(v["t"] - t) > 1e-11 * t:
                    errors.append(f"t column {v['t']} != {t}")
                ref = verify.lower_bound(t, W, J, d, v["rho_star"])
                if abs(ref - lb) > verify.RTOL * ref:
                    errors.append(f"t={t:g}: bound {lb} != reference {ref}")
                errors += [f"t={t:g}: {e}" for e in
                           verify.check_rho_search(t, W, J, d, ref)]
                for col in ("lmmse_flat", "lmmse_nazarov",
                            "lmmse_random_mean"):
                    if not lb <= v[col]:
                        errors.append(f"t={t:g}: {col} {v[col]} below the "
                                      f"bound {lb}")
                ratios.append(v["lmmse_nazarov"] / lb)
            return errors, ratios
        return [Op("iid", run, check, _files_fingerprint)]


class Design2D(Workload):
    CASES = (("iid", 67), ("powerlaw", 64), ("powerlaw", 96))

    def cycle(self, k):
        import codedmask.model as model
        import codedmask.nazarov as nazarov
        import numpy as np
        import verify
        ops = []
        for i, (kind, n) in enumerate(self.CASES):
            theta = (float(self.rng(k, i).uniform(0.8, 1.25))
                     if kind == "iid" else 1.0)
            d1 = verify.sample_density(kind, n, theta, exponent=2.0)
            d = np.outer(d1, d1) / d1.sum()  # keeps d1's total variance
            t = 50.0 * n * n
            cfg = model.ImagingConfig(n, t, W, J, dims=2)

            def run(cfg=cfg, d=d, seed=self.design_seed + i):
                return nazarov.design_aperture_2d(cfg, d, seed=seed)

            def check(out, d=d.ravel(), n=n, t=t):
                return _check_2d(out, d, n, t)
            ops.append(Op(f"{kind} n={n}", run, check, _library_fingerprint))
        return ops


def _check_2d(out, d, n, t):
    from codedmask.spectra import beta
    import verify
    aperture, cert = out
    mask = aperture.values
    if cert.detail.get("construction") == "product-flat":
        fam = cert.detail["family"]
        k = (fam["p"] - 1) // fam["e"] + int(fam["include_zero"])
        level = (k - k * (k - 1) / (fam["p"] - 1)) ** 2
        errors, ratio = verify.check_product_flat(
            t, W, J, d, mask, level, cert.penalty,
            cert.detail["lower_bound"])
    else:
        M = 1.5 * math.pi / beta(n) ** 4
        errors, ratio = verify.check_certified_design(
            t, W, J, d, mask, M, cert.detail["rho_star"], cert.b_sup_norm,
            cert.detail["lower_bound"])
        if abs(cert.penalty - 2.0 * M * M) > verify.RTOL * cert.penalty:
            errors.append(f"penalty {cert.penalty} != 2 M^2")
    if not cert.passed:
        errors.append("certificate reports failure")
    return errors, [ratio]


WORKLOADS = {
    "batch-small": BatchSmall,
    "large-1d": Large1D,
    "sweep-cli": SweepCli,
    "design-2d": Design2D,
}


def probe_setup(tmp: Path) -> float:
    """Import time of codedmask in a fresh child process."""
    result = tmp / "probe.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), str(result)],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(result.read_text())["setup_s"]


def closed_loop(workload: Workload, seconds: float, tracer):
    """Run whole cycles while the next one is expected to end in time.

    Returns [(op, outcome or exception, seconds)] and the loop's wall time.
    """
    records = []
    start = time.perf_counter()
    for k in itertools.count():
        for op in workload.cycle(k):
            workload.op = len(records)
            if tracer is not None:
                tracer.op = workload.op
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # DesignError, timeouts: failed op
                outcome = exc
            records.append((op, outcome, time.perf_counter() - t0))
        now = time.perf_counter()
        per_cycle = (now - start) / (k + 1)
        if now - start + per_cycle > seconds:
            break
    if tracer is not None:
        tracer.op = -1
    return records, time.perf_counter() - start


def verify_records(records) -> tuple[list[str], int, list[float], bool]:
    """Check every output, then repeat one op and compare its bytes.

    Returns the failure messages, the number of failed ops, the LMMSE ratios
    of the verified outputs, and whether the repeat was byte-identical.
    """
    errors, ratios, failed = [], [], 0
    for i, (op, outcome, _) in enumerate(records):
        if isinstance(outcome, Exception):
            errs = [f"{type(outcome).__name__}: {outcome}"]
        else:
            try:
                errs, rs = op.check(outcome)
            except (ValueError, KeyError, IndexError) as exc:
                errs, rs = [f"unreadable output: {exc!r}"], []
            if not errs:
                ratios.extend(rs)
            print(f"op {i} {op.kind}: {records[i][2]:.3f} s, lmmse ratio "
                  + " ".join(f"{r:.4g}" for r in rs), file=sys.stderr)
        failed += bool(errs)
        errors.extend(f"op {i} ({op.kind}): {e}" for e in errs)
    ok_ops = [r for r in records if not isinstance(r[1], Exception)]
    deterministic = False
    if ok_ops:
        op, outcome, _ = ok_ops[0]
        try:
            again = op.run()
            deterministic = op.fingerprint(again) == op.fingerprint(outcome)
        except Exception as exc:
            errors.append(f"repeat of {op.kind}: {exc!r}")
        if not deterministic:
            errors.append(f"repeat of {op.kind} gave different output bytes")
    return errors, failed, ratios, deterministic


def end_to_end(records, wall, ratios, setup, rss_mb):
    import numpy as np
    times = [dt for _, _, dt in records]
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (float(np.percentile(times, 90)), "s"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "lmmse_ratio_p50": (statistics.median(ratios) if ratios else math.nan,
                            "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }


FUNCTION_METRICS = {
    "waterfill.optimal_rho": ("calls", "self_s"),
    "waterfill.lower_bound": ("calls", "self_s"),
    "waterfill.waterfill": ("calls", "self_s"),
    "spectra.basis_matrix": ("self_s",),
    "nazarov.greedy_cortege": ("self_s",),
    "nazarov.cortege_to_bounded": ("self_s",),
    "nazarov.design_aperture": ("self_s",),
    "nazarov.design_aperture_2d": ("self_s",),
    "model.lmmse": ("calls", "self_s"),
    "model.best_random_onoff": ("self_s",),
    "model.sample_prior": ("self_s",),
    "flatseq.flat_design": ("self_s",),
    "flatseq.residue_sequence": ("self_s",),
    "cli.cmd_design": ("self_s",),
    "cli.cmd_sweep": ("self_s",),
    "cli.write_aperture_file": ("self_s",),
}
COUNT_METRICS = ("spectra.basis_cache.hits", "spectra.basis_cache.misses",
                 "spectra.basis_matrix.bytes", "nazarov.greedy.sweeps",
                 "nazarov.transfer_failures", "nazarov.restarts",
                 "cli.write_aperture_file.bytes")
MODULES = ("model", "spectra", "waterfill", "flatseq", "nazarov", "cli")


def layer_metrics(spans, counts, records, wall):
    """Per-operation layer metrics of the timed ops (op id >= 0)."""
    from spans import self_times
    n_ops = len(records)
    op_total = sum(dt for _, _, dt in records)
    selfs = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    by_kind = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        if span[4] < 0:
            continue
        calls[span[0]] += 1
        self_s[span[0]] += own
        by_kind[records[span[4]][0].kind][span[0].split(".")[0]] += own
    out = {}
    for fn, kinds in FUNCTION_METRICS.items():
        if "calls" in kinds:
            out[f"{fn}.calls"] = (calls[fn] / n_ops, "count")
        if "self_s" in kinds:
            out[f"{fn}.self_s"] = (self_s[fn] / n_ops, "s")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0) / n_ops,
                     "bytes" if name.endswith(".bytes") else "count")
    cands = counts.get("nazarov.greedy.flip_candidates", 0)
    out["nazarov.greedy.flip_accept_ratio"] = (
        counts.get("nazarov.greedy.flips_accepted", 0) / cands
        if cands else 0.0, "ratio")
    shares = {m: sum(v for fn, v in self_s.items()
                     if fn.split(".")[0] == m) / op_total for m in MODULES}
    for m in MODULES:
        out[f"{m}.share"] = (shares[m], "ratio")
    out["untraced.share"] = (1.0 - sum(shares.values()), "ratio")
    out["trace.spans"] = (sum(calls.values()) / n_ops, "count")
    out["trace.ops_per_s"] = (n_ops / wall, "1/s")
    kind_time = Counter()
    for op, _, dt in records:
        kind_time[op.kind] += dt
    share_by_kind = {kind: {m: v / kind_time[kind] for m, v in mods.items()}
                     for kind, mods in by_kind.items()}
    return out, share_by_kind


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--design-seed", type=int, default=0,
                        help="base of the fixed design seeds of large-1d, "
                        "sweep-cli and design-2d")
    args = parser.parse_args(argv)

    setup = [timed_import()]
    sys.path.insert(0, str(HERE))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, setup, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, setup, tmp) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.design_seed, tmp,
                                        bool(args.trace))
    tracer = None
    if args.trace and workload.in_process:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    hits0 = tracer.cache_counts() if tracer else (0, 0)
    records, wall = closed_loop(workload, args.seconds, tracer)
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    spans, counts = [], Counter()
    if tracer is not None:
        spans, counts = tracer.spans, Counter(tracer.counts)
        hits1 = tracer.cache_counts()
        counts["spectra.basis_cache.hits"] += hits1[0] - hits0[0]
        counts["spectra.basis_cache.misses"] += hits1[1] - hits0[1]
    else:
        for _, outcome, _ in records:
            if isinstance(outcome, ChildResult) and outcome.trace:
                base = len(spans)
                spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0
                              else -1, s[4]]
                             for s in outcome.trace["spans"])
                counts.update(outcome.trace["counts"])

    errors, failed, ratios, deterministic = verify_records(records)
    setup += workload.setup_samples
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup(tmp))
    failed += not deterministic
    attempted = len(records) + 1
    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)

    print(json.dumps({"env": environment()}))
    if args.trace:
        metrics, share_by_kind = layer_metrics(spans, counts, records, wall)
        print(json.dumps({"layer_share_by_kind": share_by_kind}))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt") as f:
            json.dump({"ops": [[op.kind, dt] for op, _, dt in records],
                       "spans": spans, "counts": counts}, f)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(records, wall, ratios, setup, rss)
        print(f"ops {len(records)} in {wall:.2f} s; setup samples "
              f"{len(setup)}; failed_frac {failed / attempted:.4g} "
              f"({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
