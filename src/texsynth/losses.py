"""Texture statistics and loss terms with analytic gradients.

Three terms, each differentiable w.r.t. the synthesized image:

  gram      weighted Frobenius distance between Gram matrices of feature
            maps and the exemplar's, the classic feature-statistics term;
  spectrum  half mean-square distance between the image and its projection
            onto the set of images sharing the exemplar's Fourier modulus,
            with the projection treated as locally constant in the gradient;
  autocorr  weighted squared L2 distance between per-channel feature
            autocorrelations, held in DFT modulus-squared form.

Each feature term is one per-layer statistic S(f) returned with its
adjoint (S(f) - target, w) -> cotangent of w |S(f) - target|^2; one helper
scores one layer for both, with w = cfg.layer_weight at every layer; targets
hold only exemplar statistics, {layer: statistic}. compute_targets alone
picks the layers: the network's default statistics layers unless others are
asked for (synthesis never does), less those under 2x2 at the exemplar's
size. Only it and total_loss walk them.

DFT convention is numpy's: unnormalized forward, 1/N inverse. Every
transform is of a real array, so only its half spectrum is computed and
kept: rfft2 over (rows, columns), columns 0..w//2. Column 0 and, for an
even width w, column w/2 stand for themselves in the full spectrum (their
multiplicity m is 1); every other column also stands for its mirror
(m = 2). A sum over the full spectrum is the m-weighted sum over the half
one. The total loss is gram + beta * spectrum + autocorr over whichever
terms a variant activates.

total_loss runs the terms beside the network: the spectrum term and each
statistics layer's feature terms are tasks for a pool of one thread per
further CPU the process may use, while the calling thread runs the forward
pass and the pullback, which needs the first layer's cotangent last. Images
under POOL_MIN_PIXELS pixels, and hosts of one CPU, run every task inline.
Once the pool is made, OpenBLAS runs at 1 thread. The results are combined
in one fixed order, so no byte depends on the CPU or thread count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, net as netmod
from .imagecore import Image, InputError, as_array as _as_array, channel_sum

DEFAULT_BETA = 1e5
DEFAULT_LAYER_WEIGHT = 1e9

TERM_NAMES = ("gram", "spectrum", "autocorr")
# the terms that read network features, in the order their values are summed
FEATURE_TERMS = ("gram", "autocorr")


@dataclass
class SpectrumTarget:
    """Half DFT (rfft2) of each exemplar channel, shape (h, w // 2 + 1, c),
    and the exemplar's shape (h, w, c), which the half spectrum leaves
    ambiguous in w."""

    freq: np.ndarray
    shape: tuple[int, int, int]


@dataclass(frozen=True)
class StatTargets:
    """Exemplar statistics of the active terms ({layer: statistic} for gram
    and autocorr), and the layers kept and dropped."""

    gram: dict[str, np.ndarray] | None = None
    spectrum: SpectrumTarget | None = None
    autocorr: dict[str, np.ndarray] | None = None
    dropped_layers: list[str] = field(default_factory=list)

    @property
    def stats_layers(self) -> list[str]:
        names = [n for t in (self.gram, self.autocorr) if t is not None for n in t]
        return list(dict.fromkeys(names))


@dataclass
class LossReport:
    """Total loss, weighted per-term contributions, and the image gradient.

    `total` is the sum of the active entries in `terms` (spectrum enters
    weighted by beta; `spectrum_distance` keeps the unweighted value so a
    beta of zero still reports how far the spectrum is).
    """

    total: float
    terms: dict[str, float]
    grad: np.ndarray
    spectrum_distance: float | None = None


def _gram(f: np.ndarray):
    """Gram matrix F^T F / N^2 of f as F (N, m), and its adjoint
    (diff, w) -> (4 w / N^2) F diff."""
    n = f.shape[0] * f.shape[1]
    fm = f.reshape(n, f.shape[2])

    def adjoint(diff, w):
        cot = fm @ diff
        cot *= 4.0 * w / n**2
        return cot.reshape(f.shape)

    return fm.T @ fm / n**2, adjoint


def _multiplicity(w: int) -> np.ndarray:
    """How many full-spectrum columns each half-spectrum column of a width-w
    DFT stands for: 1 for column 0 and, if w is even, column w/2; else 2."""
    m = np.full(w // 2 + 1, 2.0)
    m[0] = 1.0
    if w % 2 == 0:
        m[-1] = 1.0
    return m


def _autocorr(f: np.ndarray):
    """Per-channel autocorrelation as sqrt(m) |rfft2 f|^2 / N^2, and its
    adjoint (diff, w) -> (4 w / N) irfft2(diff / sqrt(m) * rfft2 f).

    The sqrt(m) factor makes |S - target|^2 over the half spectrum equal
    the full-spectrum sum of |fft2 f|^2 / N^2 - target."""
    n = f.shape[0] * f.shape[1]
    root = np.sqrt(_multiplicity(f.shape[1]))[:, None]
    fhat = np.fft.rfft2(f, axes=(0, 1))

    def adjoint(diff, w):
        # diff / root * fhat, written over diff and then over fhat, which
        # is why this adjoint may run only once (_feature_loss's one call)
        diff /= root
        cot = np.fft.irfft2(np.multiply(diff, fhat, out=fhat), s=f.shape[:2], axes=(0, 1))
        cot *= 4.0 * w / n
        return cot

    return np.abs(fhat) ** 2 / n**2 * root, adjoint


def circular_autocorr(channel: np.ndarray) -> np.ndarray:
    """Circular autocorrelation of a 2-D array, normalized by N^2.

    The inverse DFT of the autocorr term's statistic, so by Wiener-Khinchin
    it equals the direct wrap-around sum
    (1/N^2) sum_ij x(i,j) x(i+k mod h, j+l mod w).
    """
    x = np.asarray(channel, dtype=np.float64)
    stat = _autocorr(x[:, :, None])[0][:, :, 0]
    return np.fft.irfft2(stat / np.sqrt(_multiplicity(x.shape[1])), s=x.shape)


def _feature_loss(stat, f: np.ndarray, target: np.ndarray, w: float):
    """Value w |S(f) - target|^2 of one layer and its cotangent of f.

    The adjoint is called once, after the value is taken: it may overwrite
    diff and what the statistic kept (autocorr's spectrum does)."""
    diff, adjoint = stat(f)
    diff -= target  # in place: the statistic is a fresh array
    return w * np.sum(diff**2), adjoint(diff, w)


def gram_target(f: np.ndarray) -> np.ndarray:
    """Gram matrix (m, m) of one layer: F^T F / N^2 for F of shape (N, m)."""
    return _gram(f)[0]


def gram_loss(f: np.ndarray, target: np.ndarray, weight: float):
    """Value and feature cotangent of one layer's Gram term at `weight`."""
    return _feature_loss(_gram, f, target, weight)


def spectrum_target(exemplar) -> SpectrumTarget:
    data = _as_array(exemplar)
    if data.ndim == 2:  # gray array counts as one channel
        data = data[:, :, None]
    return SpectrumTarget(np.fft.rfft2(data, axes=(0, 1)), data.shape)


def spectrum_project(img, target: SpectrumTarget):
    """Impose the target's Fourier modulus while keeping the image's phase.

    The cross-spectrum sum_c F(img_c) conj(F(tgt_c)) supplies one unit
    phase factor per frequency, applied to every target channel; bins whose
    cross modulus falls below 1e-12 of its full-spectrum mean keep the
    target untouched (phase 1). Single-channel input degenerates to plain
    phase transfer. The result is idempotent: projecting twice changes
    nothing. Only the half spectrum is formed, and the phase of a mirror
    bin is the conjugate, so the result is real.
    """
    data = _as_array(img)
    flat = data.ndim == 2
    if flat:
        data = data[:, :, None]
    if data.shape != target.shape:
        raise InputError(f"image shape {data.shape} != target shape {target.shape}")
    h, w = data.shape[:2]
    fimg = np.fft.rfft2(data, axes=(0, 1))
    cross = channel_sum(fimg * np.conj(target.freq))
    mod = np.abs(cross)
    thr = 1e-12 * (np.sum(mod * _multiplicity(w)) / (h * w))
    phase = np.where(mod <= thr, 1.0 + 0.0j, cross / np.where(mod > 0, mod, 1.0))
    proj = np.fft.irfft2(phase[:, :, None] * target.freq, s=(h, w), axes=(0, 1))
    if flat:
        proj = proj[:, :, 0]
    return Image(proj) if isinstance(img, Image) else proj


def spectrum_loss(img, target: SpectrumTarget):
    """Half mean-square distance to the projection, and its gradient.

    With N = h * w: value = ||x - P(x)||^2 / (2N), grad = (x - P(x)) / N,
    the projection being treated as locally constant.
    """
    data = _as_array(img)
    proj = _as_array(spectrum_project(data, target))
    n = data.shape[0] * data.shape[1]
    resid = data - proj
    return float(np.sum(resid**2) / (2 * n)), resid / n


def autocorr_target(f: np.ndarray) -> np.ndarray:
    """Autocorrelation of each of one layer's channels as sqrt(m) |rfft2|^2 / N^2."""
    return _autocorr(f)[0]


def autocorr_loss(f: np.ndarray, target: np.ndarray, weight: float):
    """Value and feature cotangent of one layer's autocorrelation term at `weight`."""
    return _feature_loss(_autocorr, f, target, weight)


def compute_targets(exemplar, cfg, network=None, layers=None) -> StatTargets:
    """Exemplar statistics for the terms a variant activates.

    `layers` defaults to the network's standard statistics layers, less those
    under 2x2 at the exemplar's size (recorded as `dropped_layers`); feature
    terms require `network`, the spectrum term does not.
    """
    terms = set(cfg.terms)
    data = _as_array(exemplar)
    found, dropped = {}, []
    if terms & set(FEATURE_TERMS):
        if network is None:
            raise ValueError("feature-statistics terms need a network")
        if layers is None:
            layers = [name for name in netmod.DEFAULT_STATS_LAYERS if name in network.names]
            if not layers:
                raise InputError("the network has none of the default statistics layers "
                                 f"{list(netmod.DEFAULT_STATS_LAYERS)}")
        h, w = data.shape[:2]
        dims = network.layer_dims(h, w)
        # an unknown name is kept, for net.forward to reject
        dropped = [name for name in layers if name in dims and min(dims[name][:2]) < 2]
        kept = [name for name in layers if name not in dropped]
        if not kept:
            raise InputError(f"no statistics layer has a >= 2x2 feature map at {h}x{w}")
        feats = netmod.forward(network, data, kept)
        term_targets = {"gram": gram_target, "autocorr": autocorr_target}
        for term in FEATURE_TERMS:
            if term in terms:
                found[term] = {name: term_targets[term](f) for name, f in feats.items()}
    if "spectrum" in terms:
        found["spectrum"] = spectrum_target(data)
    return StatTargets(**found, dropped_layers=dropped)


# Images of fewer pixels than this evaluate every term inline. It counts
# pixels, not values: the pool mostly moves each statistics layer's terms,
# whose feature channels do not depend on the image's. With the pool at every
# size, the 64^2 gram+spectrum+msinit K=2 benchmark run (levels of 16^2 to
# 64^2 RGB, at most 4096 pixels) took 2.36 s against 1.95 s inline, slower in
# 10 of 10 alternating pairs on a 2-CPU Xeon host. There a 128^2 RGB
# evaluation took 23.0 ms pooled against 29.0 ms inline for
# gram+spectrum+autocorr, and 22.5 against 24.0 ms for gram+spectrum; a gray
# one 25.7 against 34.6 ms (medians of 8 alternating processes, pooled lower
# in 8 of 8), and a 112^2 gray one 23.1 against 28.8 ms (7 of 8).
# The value, ceil(32768 / 3), keeps every RGB image on the side it took when
# the threshold was 32768 values.
POOL_MIN_PIXELS = 10923
# the pool's threads: one per CPU this process may run on, less the caller's
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) - 1
_pool = None
_pool_lock = threading.Lock()  # two callers on two threads make one pool


def worker_pool(pixels: int):
    """The module's pool of WORKERS threads for the terms of an image of
    `pixels` pixels (h * w), or None to evaluate them inline: below
    POOL_MIN_PIXELS, or with no worker to spare. The pool is made on first
    use, and from then on OpenBLAS runs at 1 thread: its idle threads would
    spin on the cores the workers need. The pin holds for the rest of the process,
    over any OPENBLAS_NUM_THREADS, so later BLAS work there, texsynth's or
    not, runs on one thread. No byte depends on either thread count."""
    global _pool
    if pixels < POOL_MIN_PIXELS or WORKERS < 1:
        return None
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            set_threads = _kernels.openblas_function("set_num_threads")
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="texsynth-loss")
        return _pool


# the caller runs a queued task itself: waiting for the worker was slower (5 of 5 runs, 256^2)
class _Task:
    """fn(*args), handed to `pool` at once, or run inline when first needed
    without one; a task the pool has not started by then is cancelled and
    run by the caller. The result is kept for later reads."""

    def __init__(self, pool, fn, *args):
        self._call = fn, args
        self._future = None if pool is None else pool.submit(fn, *args)

    def result(self):
        if self._call is not None:
            fn, args = self._call
            if self._future is None or self._future.cancel():
                self._result = fn(*args)
            else:
                self._result = self._future.result()
            self._call = self._future = None
        return self._result

    def cancel(self) -> None:
        if self._future is not None:
            self._future.cancel()


# one task per layer, not per term: per term was no faster at 256^2, slower at 128^2
def _layer_terms(name, f, active: dict, weight):
    """Value of each `active` term ({term: target}) whose target has layer
    `name`, at activation f, and their cotangents summed in that order."""
    # looked up per call, so that rebinding a module-level name takes effect
    term_losses = {"gram": gram_loss, "autocorr": autocorr_loss}
    values, cot = {}, None
    for term, target in active.items():
        if name in target:
            values[term], term_cot = term_losses[term](f, target[name], weight)
            cot = term_cot if cot is None else np.add(cot, term_cot, out=cot)
    return values, cot


class _Cotangents(dict):
    """{layer: layer task}, read as {layer: cotangent}: a task's result is
    waited for when the pullback reaches its layer."""

    def __getitem__(self, name):
        return super().__getitem__(name).result()[1]


def total_loss(img, cfg, targets: StatTargets, network=None) -> LossReport:
    """Combined loss and image gradient of cfg.terms, weighted by cfg.layer_weight and cfg.beta.

    The spectrum term and each statistics layer's feature terms are tasks
    for worker_pool: the spectrum's first, then each layer's as soon as
    the forward pass makes it. Their
    results are combined in one fixed order, whichever thread ran them:
    each term's value summed from 0.0 over its layers, each layer's
    cotangents gram first, the spectrum gradient added last. So no byte
    depends on the thread count. An evaluation that uses the pool leaves
    the process at 1 OpenBLAS thread for good (see worker_pool).
    """
    data = _as_array(img)
    return _evaluate(data, cfg, targets, network, worker_pool(data.shape[0] * data.shape[1]))


def _evaluate(data, cfg, targets: StatTargets, network, pool) -> LossReport:
    """total_loss of `data`, its tasks handed to `pool`, or run inline if it is None."""
    terms = set(cfg.terms)
    for term in TERM_NAMES:
        if term in terms and getattr(targets, term) is None:
            raise ValueError(f"{term} term active but no {term} target")
    if terms & set(FEATURE_TERMS) and network is None:
        raise ValueError("feature-statistics terms need a network")
    report_terms = {}
    grad = spectrum_distance = None
    tasks = []

    def task(fn, *args):
        tasks.append(_Task(pool, fn, *args))
        return tasks[-1]

    try:
        if "spectrum" in terms:  # first: it needs no network
            spectrum = task(spectrum_loss, data, targets.spectrum)
        active = {term: getattr(targets, term) for term in FEATURE_TERMS if term in terms}
        if active:
            layers = {}

            # each layer as the forward makes it: after the forward was slower (6 of 6 runs)
            def submit(name, f):
                layers[name] = task(_layer_terms, name, f, active, cfg.layer_weight)

            wanted = [name for name in targets.stats_layers
                      if any(name in target for target in active.values())]
            _, pull = netmod.forward_with_pullback(network, data, wanted, submit)
            grad = pull(_Cotangents(layers))
            for term, target in active.items():
                value = 0.0
                for name in target:
                    value += layers[name].result()[0][term]
                report_terms[term] = value
        if "spectrum" in terms:
            spectrum_distance, sgrad = spectrum.result()
            report_terms["spectrum"] = cfg.beta * spectrum_distance
            sgrad *= cfg.beta
            grad = sgrad if grad is None else np.add(grad, sgrad, out=grad)
    finally:
        for queued in tasks:  # none is left queued when a term raises
            queued.cancel()

    total = float(sum(report_terms.values()))
    return LossReport(total, report_terms, grad, spectrum_distance)
