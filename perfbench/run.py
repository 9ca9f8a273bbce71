"""The texsynth benchmark: seeded inputs, fresh-process runs, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare

A run generates its inputs from the seed, computes reference results for
them with the independent code in oracle.py, then for S seconds launches
fresh interpreters (worker.py) that drive texsynth.cli.main, one call
after another (a closed loop of one client). Every launch's outputs are
checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones, taken from launches with spans installed (tracing.py).

Workloads (see BENCHMARK.json for the one-line reasons):
  synth-hires   256^2 RGB, gram+spectrum+autocorr, one scale, 8 iterations
  synth-msinit  64^2 RGB, gram+spectrum+msinit --K 2, 200 iterations a level
  eval-suite    eval-ds on a block remix and on a tie-heavy periodic copy,
                eval-klw on 256^2 images, bt-fit on simulated duels

BLAS thread variables are passed through as found; the thread count the
program ran with is recorded with the rest of the environment. Each run
is written to .perfbench/results/ and compared with the newest earlier
run of the same workload and mode.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RESULTS = STATE / "results"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
DEADLINE_S = 170  # a run ends within 180 s; a launch still going then is killed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "TEXSYNTH_THREADS",
               "TEXSYNTH_DISABLE_NUMBA")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Prepared:
    """A workload's generated inputs, its CLI calls and their output checks.

    `checks[label]()` inspects the files one launch's call wrote and
    returns the problems found. `observe()` returns the counts a launch
    reports about itself, which must repeat exactly from launch to launch;
    `counts` are the ones computed from the input sizes. A check adds to
    `notes` what passes but should still be seen.
    """

    inputs: dict[str, Path]
    calls: list[dict]
    checks: dict[str, Callable[[], list[str]]]
    observe: Callable[[], dict[str, float]] = dict
    counts: dict[str, float] = field(default_factory=dict)
    notes: set[str] = field(default_factory=set)


# ---------------------------------------------------------------- workloads

# Final loss over the loss of the seeded noise start at full size. Seeds
# 0-19 gave 1.4e-5 to 2.1e-4 on msinit with 1 and 2 BLAS threads, seeds
# 0-10 gave 0.043 to 0.112 on hires; the bands leave a factor 4 or more
# either side and still fail an optimizer that stalls.
FINAL_BANDS = {"synth-hires": (0.005, 0.5), "synth-msinit": (2e-6, 2e-3)}


def prep_synth(name, seed, work, size, variant, iterations, K):
    """One synth call; K is the msinit pyramid depth, 0 for a single scale."""
    ex = inputs.procedural_texture(np.random.default_rng([seed, 1]), size)
    ex_path = work / "exemplar.ppm"
    inputs.write_ppm(ex, ex_path)
    out, session, curve = work / "out.ppm", work / "out.session.json", work / "curve.csv"
    argv = ["synth", "--exemplar", str(ex_path), "--out", str(out), "--variant", variant,
            "--iterations", str(iterations), "--seed", str(seed), "--curve", str(curve)]
    if K:
        argv += ["--K", str(K)]
    terms = [t for t in variant.split("+") if t != "msinit"]
    weights = oracle.he_weights(3, 0)
    coarse = oracle.downsample(ex, K)
    start_ref = oracle.loss(oracle.noise_start(coarse, seed), coarse, terms, weights)
    full_ref = oracle.loss(oracle.noise_start(ex, seed), ex, terms, weights) if K else start_ref
    lo, hi = FINAL_BANDS[name]

    def check():
        problems = []
        img = inputs.read_ppm(out)
        if img.shape != ex.shape:
            problems.append(f"output shape {img.shape}, expected {ex.shape}")
        scales = json.loads(session.read_text())["scales"]
        for s in scales:
            v = s["trace"]["values"]
            if any(b > a for a, b in zip(v, v[1:])):
                problems.append(f"loss trace rises at scale {s['k']}")
        start = scales[0]["trace"]["values"][0]
        if _rel(start, start_ref) > 1e-9:
            problems.append(f"start loss {start!r} != reference {start_ref!r}")
        ratio = scales[-1]["trace"]["values"][-1] / full_ref
        if not lo <= ratio <= hi:
            problems.append(f"final/start loss {ratio:.3g} outside [{lo:g}, {hi:g}]")
        return problems

    def observe():
        scales = json.loads(session.read_text())["scales"]
        return {"optim.evals": sum(s["trace"]["n_evals"] for s in scales),
                "optim.iterations": sum(s["trace"]["iterations"] for s in scales)}

    flops, bytes_ = conv_counts(size)
    counts = {"kernels.conv_flops_per_eval": flops, "kernels.conv_bytes_per_eval": bytes_}
    return Prepared({"exemplar": ex_path}, [{"label": "synth", "argv": argv}],
                    {"synth": check}, observe, counts)


def conv_counts(size: int) -> tuple[int, int]:
    """Computed conv flops and compulsory bytes of one loss evaluation.

    Forward and adjoint of every conv layer at a size x size RGB input,
    from Network.layer_dims; bytes count input, kernel and output once
    each, float64.
    """
    sys.path.insert(0, str(SRC))
    from texsynth import net

    network = net.make_network("vgg-mini", in_channels=3)
    dims = network.layer_dims(size, size)
    flops = bytes_ = 0
    h, w = size, size
    for spec in network.specs:
        if spec.kind == "conv3x3":
            ci, co = spec.in_ch, spec.out_ch
            flops += 2 * tracing.conv_flops(((h, w, ci), (co, ci, 3, 3)))
            bytes_ += 2 * 8 * (h * w * (ci + co) + 9 * ci * co)
        h, w = dims[spec.name][:2]
    return flops, bytes_


# enough images and duels that eval-klw and bt-fit run for tenths of a
# second, well above start-up and parsing noise
KLW_IMAGES = 32
DUELS = 100_000


def prep_eval(seed, work):
    def rng(stream):
        return np.random.default_rng([seed, stream])

    files = {}

    def ppm(name, img):
        files[name] = work / f"{name}.ppm"
        inputs.write_ppm(img, files[name])
        return str(files[name])

    ds_ex = inputs.procedural_texture(rng(2), 64)
    remix = inputs.block_remix(rng(3), ds_ex, 16)
    tiled, shifted = inputs.periodic_copy(rng(4), 48, 8)
    klw_ref = inputs.procedural_texture(rng(6), 256)
    klw_synth = [inputs.noisy_remix(rng(100 + i), klw_ref, 32) for i in range(KLW_IMAGES)]
    rows = inputs.duels(rng(5), 10, DUELS)
    files["duels"] = work / "duels.csv"
    inputs.write_duels(rows, files["duels"])

    out = {k: work / f"{k}.out" for k in ("ds-remix", "ds-copy", "klw", "bt-fit")}
    synth_paths = [ppm(f"klw{i:02d}", img) for i, img in enumerate(klw_synth)]
    calls = [
        {"label": "ds-remix", "argv": ["eval-ds", "--exemplar", ppm("ds_exemplar", ds_ex),
                                       "--synth", ppm("remix", remix), "--out", str(out["ds-remix"])]},
        {"label": "ds-copy", "argv": ["eval-ds", "--exemplar", ppm("tiled", tiled),
                                      "--synth", ppm("copy", shifted), "--out", str(out["ds-copy"])]},
        {"label": "klw", "argv": ["eval-klw", "--ref", ppm("klw_ref", klw_ref),
                                  "--synth", *synth_paths, "--out", str(out["klw"])]},
        {"label": "bt-fit", "argv": ["bt-fit", "--duels", str(files["duels"]),
                                 "--filter", "scale=global", "--out", str(out["bt-fit"])]},
    ]

    ds_ref = {"ds-remix": oracle.ds_score(oracle.displacement(remix, ds_ex)),
              "ds-copy": oracle.ds_score(oracle.displacement(shifted, tiled))}
    klw_ref_sums = {f"klw{i:02d}": oracle.klw_sum(img, klw_ref) for i, img in enumerate(klw_synth)}
    kept = [r for r in rows if r[4] == "global"]
    names = sorted({r[0] for r in kept} | {r[1] for r in kept})
    index = {m: i for i, m in enumerate(names)}
    wins = np.zeros((len(names), len(names)))
    for a, b, winner, _, _ in kept:
        wins[index[winner], index[b if winner == a else a]] += 1
    bt_ref = oracle.bt_strengths(wins)
    bt_ll = oracle.bt_log_likelihood(bt_ref, wins)
    bt_eps, bt_dist = oracle.bt_resolution(wins, bt_ref)
    notes = set()

    def metric_rows(label, metric):
        with open(out[label], newline="") as fh:
            return {r["method"]: float(r["value"]) for r in csv.DictReader(fh)
                    if r["metric"] == metric}

    def check_ds(label, method):
        got = metric_rows(label, "ds")
        return [] if got == {method: ds_ref[label]} else [f"ds {got} != {ds_ref[label]!r}"]

    def check_klw():
        sums = metric_rows("klw", "klw_sum")
        if sums.keys() != klw_ref_sums.keys():
            return [f"klw methods {sorted(sums)}"]
        return [f"klw_sum {m} {sums[m]!r} != {klw_ref_sums[m]!r}"
                for m in sums if _rel(sums[m], klw_ref_sums[m]) > 1e-9]

    def check_bt():
        fit = json.loads(out["bt-fit"].read_text())
        if fit["methods"] != names or fit["n_duels"] != len(kept):
            return ["bt methods or duel count differ"]
        beta = np.array(fit["beta"])
        err = np.max(np.abs(beta - bt_ref))
        gap = bt_ll - oracle.bt_log_likelihood(beta, wins)
        if gap > 2 * bt_eps:
            return [f"log-likelihood {gap:.3g} below the maximum, > 2 eps = {2 * bt_eps:.3g}"]
        if err > max(1e-8, bt_dist):
            return [f"strengths differ from the exact maximum by {err:.2g} > {bt_dist:.2g}"]
        if err > 1e-8:
            notes.add(f"bt-fit strengths are {err:.2g} from the exact maximum: above 1e-8, "
                      f"within the {bt_dist:.2g} the log-likelihood resolves")
        return []

    checks = {"ds-remix": lambda: check_ds("ds-remix", "remix"),
              "ds-copy": lambda: check_ds("ds-copy", "copy"),
              "klw": check_klw, "bt-fit": check_bt}
    pairs = (tracing.candidate_pairs(remix.shape, ds_ex.shape, 5)
             + tracing.candidate_pairs(shifted.shape, tiled.shape, 5))
    # two GGD fits per detail subband of >= 32 samples, per image pair
    fits = 2 * KLW_IMAGES * 3 * sum(1 for s in range(1, 9) if (256 >> s) ** 2 >= 32)
    counts = {"displacement.candidate_pairs": pairs, "ggd.fits": fits}
    return Prepared(files, calls, checks, counts=counts, notes=notes)


WORKLOADS = {
    "synth-hires": lambda seed, work: prep_synth(
        "synth-hires", seed, work, 256, "gram+spectrum+autocorr", 8, 0),
    "synth-msinit": lambda seed, work: prep_synth(
        "synth-msinit", seed, work, 64, "gram+spectrum+msinit", 200, 2),
    "eval-suite": prep_eval,
}


# ----------------------------------------------------------------- launches


def launch(plan: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report.

    A worker still running at `deadline` (time.monotonic) is killed and
    the run fails.
    """
    plan_path, report_path = work / f"plan-{tag}.json", work / f"report-{tag}.json"
    plan = {**plan, "src": str(SRC), "report": str(report_path), "run_id": tag}
    plan_path.write_text(json.dumps(plan))
    report_path.unlink(missing_ok=True)
    t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), repr(t_launch)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not report_path.exists():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    report = json.loads(report_path.read_text())
    report["stderr"] = proc.stderr.decode()[-500:]
    report["setup_s"] = report["t_ready"] - report["t_launch"]
    report["run_s"] = sum(c["seconds"] for c in report["calls"])
    report["wall_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t_launch
    return report


def measure(prepared: Prepared, work: Path, seconds: float, trace: bool, deadline: float):
    """Set-up probes, then workload launches until `seconds` are used up.

    A launch starts only while the median duration of its kind still fits
    in the remaining time, once at least two untraced launches (and, when
    tracing, one traced launch) are done. Traced and untraced launches
    alternate, so both see the same machine state.
    """
    probes, launches, problems = [], [], []
    observed = None
    t0 = time.monotonic()
    for i in range(SETUP_PROBES):
        probes.append(launch({"calls": [], "trace": False}, work, f"probe{i}", deadline))
    kinds = [False, True] if trace else [False]
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        done = [r for r in launches if r["traced"] == kind]
        enough = sum(not r["traced"] for r in launches) >= 2 and (
            not trace or any(r["traced"] for r in launches))
        left = seconds - (time.monotonic() - t0)
        if enough and (not done or statistics.median(r["wall_s"] for r in done) > left):
            break
        report = launch({"calls": prepared.calls, "trace": kind}, work, f"launch{n}", deadline)
        report["traced"] = kind
        report["problems"] = {c["label"]: call_problems(prepared, c, report["stderr"])
                              for c in report["calls"]}
        try:
            counts = prepared.observe()
        except (OSError, ValueError, KeyError) as exc:
            counts = {"error": repr(exc)}
        if observed is None:
            observed = counts
        elif counts != observed:
            problems.append(f"counts differ between launches: {observed} vs {counts}")
        launches.append(report)
        n += 1
    return probes, launches, observed or {}, problems


def call_problems(prepared: Prepared, call: dict, stderr: str) -> list[str]:
    """A call fails on a non-zero exit or on any problem its check finds."""
    if call["rc"] != 0:
        return [f"exit {call['rc']}: {stderr.strip()}"]
    try:
        return prepared.checks[call["label"]]()
    except (OSError, ValueError, KeyError) as exc:
        return [f"output unreadable: {exc!r}"]


# ------------------------------------------------------------------ metrics


def summary(samples) -> dict:
    """Median, quartiles, sample count and the tail percentile with >= 10
    samples above it (absent below 11 samples)."""
    values = sorted(float(v) for v in samples)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    pct, tail = tracing.tail(values)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    if pct is not None:
        out.update(tail_pct=pct, tail=tail)
    return out


def end_to_end(probes, untraced) -> dict[str, list[float]]:
    """Per-launch samples of the end-to-end metrics and of each CLI call."""
    samples = {
        "setup_s": [r["setup_s"] for r in probes + untraced],
        "run_s": [r["run_s"] for r in untraced],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in untraced],
    }
    calls = untraced[0]["calls"]
    if len(calls) > 1:  # each call of a multi-call workload on its own
        for i, call in enumerate(calls):
            samples[f"cli.{call['label'].replace('-', '_')}_s"] = [
                r["calls"][i]["seconds"] for r in untraced]
    return samples


def per_layer(untraced, traced, counts, prepared) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics: medians over traced launches of the span-derived
    numbers, the exact counts, untraced per-call times and the tracing cost."""
    labels = [c["label"] for c in prepared.calls]
    rows = [tracing.layer_metrics([tuple(s) for s in r["trace"]["spans"]], labels)
            for r in traced]
    out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    problems = []
    if "ggd.fits" in prepared.counts and any(
            row["ggd.fits"] != prepared.counts["ggd.fits"] for row in rows):
        problems.append("traced GGD fit count differs from the computed count")
    for key in ("kernels.conv_flops_per_eval", "kernels.conv_bytes_per_eval",
                "displacement.candidate_pairs"):
        out[key] = prepared.counts.get(key, 0)
    evals, iters = counts.get("optim.evals", 0), counts.get("optim.iterations", 0)
    out["optim.evals"], out["optim.iterations"] = evals, iters
    out["optim.evals_per_iter"] = evals / iters if iters else 0.0
    run_s = statistics.median(r["run_s"] for r in untraced)
    out["synth.loss_eval_ms"] = 1e3 * run_s / evals if evals else 0.0
    e2e = end_to_end([], untraced)
    for key in ("cli.ds_remix_s", "cli.ds_copy_s", "cli.klw_s", "cli.bt_fit_s"):
        out[key] = statistics.median(e2e[key]) if key in e2e else 0.0
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
    return out, problems


# -------------------------------------------------------------- environment


def fingerprint(reports) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    with open("/proc/meminfo") as fh:
        mem = next((int(line.split()[1]) // 1024 for line in fh
                    if line.startswith("MemTotal")), None)
    return {
        "git_sha": git_sha,
        "src_sha256": tree_hash(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": sorted({r["blas_threads"] for r in reports}, key=str),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "has_numba": sorted({r["has_numba"] for r in reports}, key=str),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": mem,
    }


def tree_hash(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(top)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------- records, comparison


def previous_record(workload: str, trace: int, before: str | None = None):
    """Newest recorded result for the workload and mode, older than `before`."""
    names = sorted(p.name for p in RESULTS.glob(f"*-{workload}-t{trace}.json"))
    if before is not None:
        names = [n for n in names if n < before]
    return json.loads((RESULTS / names[-1]).read_text()) if names else None


def earlier_counts(workload: str, seed: int, env: dict):
    """Counts of the newest earlier run with this seed, source tree and
    BLAS thread count, or None."""
    key = (seed, env["src_sha256"], env["blas_threads"])
    for path in sorted(RESULTS.glob(f"*-{workload}-t*.json"), reverse=True):
        rec = json.loads(path.read_text())
        if (rec["seed"], rec["environment"]["src_sha256"], rec["environment"]["blas_threads"]) == key:
            return rec["counts"]
    return None


def comparison_row(record, prev) -> str:
    cells = [f"{record['workload']:<13}"]
    for name, stats in record["summary"].items():
        if name not in END_TO_END:
            continue
        cell = f"{name} {stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"
        old = prev["summary"].get(name) if prev else None
        if old:
            delta = 100.0 * (stats["median"] / old["median"] - 1.0)
            cell += f" vs {old['median']:.4g} [{old['q1']:.4g}, {old['q3']:.4g}] {delta:+.1f}%"
        cells.append(cell)
    return " | ".join(cells)


def compare() -> int:
    workloads = sorted({p.name.split("-", 1)[1].rsplit("-t", 1)[0]
                        for p in RESULTS.glob("*.json")})
    for workload in workloads:
        record = previous_record(workload, 0)
        if record is None:
            continue
        prev = previous_record(workload, 0, before=record["file"])
        print(comparison_row(record, prev))
    return 0


def print_table(summaries: dict, units: dict) -> None:
    for name, s in summaries.items():
        tail = (f"p{s['tail_pct']:.0f} {s['tail']:.6g}" if "tail" in s else "tail n/a")
        print(f"  {name:<30} median {s['median']:.6g} {units.get(name, '')}"
              f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]  {tail}  n={s['n']}")


# --------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", action="store_true",
                   help="print each workload's newest result against the one before")
    args = p.parse_args(argv)
    if not args.compare and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "texsynth" / "cli.py").is_file():
        print(f"error: no texsynth sources under {SRC}", file=sys.stderr)
        return 2
    if args.compare:
        return compare()
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[args.workload](args.seed, work)
        input_sha = {k: inputs.sha256(p) for k, p in prepared.inputs.items()}
        launch({"calls": [], "trace": False}, work, "warmup", deadline)  # compiles .pyc
        probes, launches, counts, problems = measure(
            prepared, work, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced = [r for r in launches if not r["traced"]]
    traced = [r for r in launches if r["traced"]]
    env = fingerprint(probes + launches)
    attempted = sum(len(r["problems"]) for r in launches)
    failed = sum(1 for r in launches for found in r["problems"].values() if found)
    problems += [f"{label}: {msg}" for r in launches
                 for label, found in r["problems"].items() for msg in found]
    all_counts = {**counts, **prepared.counts}
    earlier = earlier_counts(args.workload, args.seed, env)
    if earlier is not None and earlier != all_counts:
        problems.append(f"counts differ from an earlier run of the same code: {earlier}")

    e2e = end_to_end(probes, untraced)
    summaries = {k: summary(v) for k, v in e2e.items()}
    units = {**END_TO_END, **{k: "s" for k in e2e if k.startswith("cli.")}}
    if "optim.evals" in counts:
        summaries["loss_eval_ms"] = summary(
            [1e3 * r["run_s"] / counts["optim.evals"] for r in untraced])
        units["loss_eval_ms"] = "ms"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(probes)} set-up probes, "
          f"{len(untraced)} untraced and {len(traced)} traced launches")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print_table(summaries, units)
    print(f"  fail_frac {failed}/{attempted} = {failed / attempted:.3g}")
    for name, value in sorted(counts.items()):
        print(f"  {name:<30} {value:.6g} (exact count, same in every launch)")
    for name, value in sorted(prepared.counts.items()):
        print(f"  {name:<30} {value:.6g} (computed from the input sizes)")
    for msg in sorted(prepared.notes):
        print(f"  NOTE {msg}")
    for msg in problems:
        print(f"  FAIL {msg}")

    metrics = {k: {"value": summaries[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    if args.trace:
        layers, layer_problems = per_layer(untraced, traced, counts, prepared)
        problems += layer_problems
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")

    stamp = f"{time.time_ns():020d}-{args.workload}-t{args.trace}.json"
    record = {
        "file": stamp, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "benchmark": spec, "environment": env, "inputs": input_sha,
        "samples": e2e, "summary": summaries, "counts": all_counts, "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems,
        "notes": sorted(prepared.notes),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    if traced:
        with gzip.open(RESULTS / stamp.replace(".json", ".spans.json.gz"), "wt") as fh:
            json.dump([r["trace"] for r in traced], fh)
    prev = previous_record(args.workload, args.trace)
    (RESULTS / stamp).write_text(json.dumps(record, indent=1))
    print("comparison with the newest earlier result:")
    print(comparison_row(record, prev))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
