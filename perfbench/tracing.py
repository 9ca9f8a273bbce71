"""Spans around the package's module entry points, for the traced run.

`install` rebinds each entry point, in the namespace its callers look it
up in, to a wrapper that records a span: (name, start, end, parent index,
attributes). Spans stay in memory and are written once, when the
process ends. Nothing is installed in untraced runs.

`layer_metrics` turns one process's spans into the per-layer numbers; a
span's self time is its duration minus the part its child spans cover.
What each should move, end to end:

  kernels.*, net.*, losses.*  run_s of both synth workloads (most on
                              synth-hires); losses.autocorr on hires only
  optim.*, synth.self_ms      run_s of synth-msinit; about 0 on hires
  synth.targets_ms            run_s of synth-hires
  imagecore.*, cli.self_ms    setup_s and run_s of synth-msinit
  displacement.*              cli.ds_remix_s, cli.ds_copy_s (eval-suite)
  wavelets.*, ggd.*           cli.klw_s (eval-suite)
  bradley_terry.*             cli.bt_fit_s (eval-suite)
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          attrs(*args, **kwargs) if attrs else None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end

        return traced

    def patch(self, module, attr, name, attrs=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _shapes(*arrays):
    return {"shapes": [list(np.shape(a)) for a in arrays]}


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every module the CLI drives."""
    from texsynth import (_kernels, bradley_terry, cli, displacement, ggd, losses,
                          net, optim, synth, wavelets)

    patch = tracer.patch
    patch(cli, "main", "cli.main", lambda argv: {"command": argv[0]})
    patch(cli, "read_image", "imagecore.read")
    patch(cli, "write_image", "imagecore.write")
    patch(synth, "build_pyramid", "imagecore.pyramid")
    patch(synth, "upsample_bilinear", "imagecore.upsample")
    patch(synth, "synth_multiscale", "synth.multiscale")
    patch(synth, "synth_single_scale", "synth.single_scale")
    patch(losses, "compute_targets", "synth.targets")
    patch(net, "make_network", "net.make_network")
    patch(optim, "minimize", "optim.minimize")
    patch(optim, "two_loop_direction", "optim.two_loop")
    patch(losses, "total_loss", "losses.total_loss")
    patch(losses, "gram_loss", "losses.gram")
    patch(losses, "spectrum_loss", "losses.spectrum")
    patch(losses, "autocorr_loss", "losses.autocorr")
    patch(net, "forward", "net.forward_targets")
    forward_with_pullback = net.forward_with_pullback

    def forward(*args, **kwargs):
        acts, pull = forward_with_pullback(*args, **kwargs)
        return acts, tracer.wrap("net.pullback", pull)

    net.forward_with_pullback = tracer.wrap("net.forward", forward)
    patch(_kernels, "conv3x3", "kernels.conv_fwd", lambda x, k, b: _shapes(x, k))
    patch(_kernels, "conv3x3_back", "kernels.conv_adj", lambda g, k: _shapes(g, k))
    patch(displacement, "displacement_search", "displacement.search",
          lambda s, e, p: {**_shapes(s, e), "patch": p})
    patch(displacement, "ds_score", "displacement.score")
    patch(wavelets, "dwt2_daub4", "wavelets.dwt")
    patch(ggd, "fit_ggd", "ggd.fit")
    patch(bradley_terry, "load_duels", "bradley_terry.load")
    patch(bradley_terry, "bt_fit", "bradley_terry.fit")
    patch(bradley_terry, "bt_significance", "bradley_terry.stats")
    patch(bradley_terry, "bt_winning_prob", "bradley_terry.stats")


def self_times(spans) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[idx]):
            c0 = max(c0, reach)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


# conv layers of vgg-mini by (out, in) kernel shape; in_ch 3 is RGB input
CONV_BY_KERNEL = {(16, 3): "conv1_1", (16, 16): "conv1_2", (32, 16): "conv2_1",
                  (64, 32): "conv3_1"}


def conv_flops(shapes) -> int:
    """Multiply-adds x 2 of one 3x3 conv call (forward or adjoint)."""
    (h, w, _), (co, ci, _, _) = shapes
    return 2 * 9 * h * w * ci * co


def layer_metrics(spans, call_labels) -> dict[str, float]:
    """Per-layer numbers from one traced process.

    Per-call medians for the functions that run once per loss evaluation
    (or per subband, per score); totals over the process for the rest.
    Layers that the workload never enters read 0. `call_labels` names
    each top-level cli.main span in order, e.g. ["ds-remix", "ds-copy"].
    """
    selfs = self_times(spans)
    durs, self_s = defaultdict(list), defaultdict(list)
    call_of, roots = [], 0  # index of the top-level call each span belongs to
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            roots += 1
        call_of.append(call_of[parent] if parent >= 0 else roots - 1)
        durs[name].append(end - start)
        self_s[name].append(selfs[idx])

    def med_ms(samples):
        return float(np.median(samples) * 1e3) if samples else 0.0

    def total_ms(name):
        return float(sum(durs[name]) * 1e3)

    def self_ms(*names):
        return float(sum(sum(self_s[n]) for n in names) * 1e3)

    out = {}
    conv_time, conv_work = 0.0, 0
    conv = defaultdict(list)
    for (name, start, end, _, attrs) in spans:
        if name in ("kernels.conv_fwd", "kernels.conv_adj"):
            (h, w, _), kern = attrs["shapes"]
            layer = CONV_BY_KERNEL[(kern[0], kern[1])]
            conv[(layer, name[-3:], h * w)].append(end - start)
            conv_time += end - start
            conv_work += conv_flops(attrs["shapes"])
    for layer in CONV_BY_KERNEL.values():
        for kind in ("fwd", "adj"):
            sizes = [k[2] for k in conv if k[:2] == (layer, kind)]
            times = conv[(layer, kind, max(sizes))] if sizes else []
            out[f"kernels.{layer}.{kind}_ms"] = med_ms(times)
    out["kernels.conv_gflops"] = conv_work / conv_time / 1e9 if conv_time else 0.0

    for key in ("forward", "pullback"):
        out[f"net.{key}_ms"] = med_ms(durs[f"net.{key}"])
        out[f"net.{key}_self_ms"] = med_ms(self_s[f"net.{key}"])
    loss_ms = [d * 1e3 for d in durs["losses.total_loss"]]
    out["losses.total_loss_ms"] = med_ms(durs["losses.total_loss"])
    out["losses.total_loss_tail_ms"] = tail(loss_ms)[1] if len(loss_ms) > 10 else 0.0
    for term in ("gram", "spectrum", "autocorr"):
        out[f"losses.{term}_ms"] = med_ms(durs[f"losses.{term}"])
    out["losses.self_ms"] = med_ms(self_s["losses.total_loss"])
    out["optim.two_loop_ms"] = med_ms(durs["optim.two_loop"])
    out["optim.self_ms"] = self_ms("optim.minimize")
    out["synth.targets_ms"] = total_ms("synth.targets")
    out["synth.self_ms"] = self_ms("synth.multiscale", "synth.single_scale")
    for key in ("read", "write", "pyramid", "upsample"):
        out[f"imagecore.{key}_ms"] = total_ms(f"imagecore.{key}")
    out["cli.self_ms"] = self_ms("cli.main")
    for label in ("remix", "copy"):
        times = [end - start for (name, start, end, _, _), call in zip(spans, call_of)
                 if name == "displacement.search" and call_labels[call] == f"ds-{label}"]
        out[f"displacement.{label}.search_s"] = float(sum(times))
    search_s = sum(durs["displacement.search"])
    pairs = sum(candidate_pairs(a["shapes"][0], a["shapes"][1], a["patch"])
                for (name, _, _, _, a) in spans if name == "displacement.search")
    out["displacement.candidates_per_s"] = pairs / search_s if search_s else 0.0
    out["displacement.score_ms"] = med_ms(durs["displacement.score"])
    out["wavelets.dwt_ms"] = med_ms(durs["wavelets.dwt"])
    out["ggd.fit_ms"] = med_ms(durs["ggd.fit"])
    out["ggd.fits"] = float(len(durs["ggd.fit"]))
    for key in ("load", "fit", "stats"):
        out[f"bradley_terry.{key}_ms"] = total_ms(f"bradley_terry.{key}")
    return out


def candidate_pairs(synth_shape, exemplar_shape, patch: int) -> int:
    """Synth patches times exemplar patches: the SSDs an exhaustive search scores."""
    (hs, ws, _), (he, we, _) = synth_shape, exemplar_shape
    return (hs - patch + 1) * (ws - patch + 1) * (he - patch + 1) * (we - patch + 1)


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or (None, nan) with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None, float("nan")
    pct = 100.0 * (n - 10) / n
    return pct, float(np.percentile(samples, pct, method="inverted_cdf"))
