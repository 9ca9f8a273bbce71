"""Built-in oracle checks runnable from the CLI.

Each check recomputes an invariant with an independent method (finite
differences, direct double loops, closed forms) and compares. One
PASS/FAIL line per check; used by `texsynth selftest` and handy after
porting to a new platform or BLAS.
"""

from __future__ import annotations

import numpy as np

from . import _kernels, bradley_terry, losses, net as netmod, optim, synth, wavelets
from .imagecore import Image


def _fd_grad(fun, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = fun(x)
        flat[i] = keep - eps
        lo = fun(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def _check_total_loss_gradient() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    specs = (
        netmod.LayerSpec("c1", "conv3x3", 3, 4),
        netmod.LayerSpec("r1", "relu", 4, 4),
        netmod.LayerSpec("p1", "pool2", 4, 4),
    )
    network = netmod.Network(specs, netmod.random_weights(specs, 11))
    exemplar = Image(rng.random((8, 8, 3)))
    variant = synth.MethodVariant(("gram", "spectrum", "autocorr"), beta=10.0, layer_weight=3.0)
    targets = losses.compute_targets(exemplar, variant, network, layers=["c1", "p1"])
    x = rng.random((8, 8, 3))
    report = losses.total_loss(x, variant, targets, network)
    fd = _fd_grad(lambda a: losses.total_loss(a, variant, targets, network).total, x)
    denom = max(np.max(np.abs(fd)), 1e-12)
    err = np.max(np.abs(report.grad - fd)) / denom
    return err < 1e-4, f"max rel grad error {err:.2e}"


def _check_wiener_khinchin() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst = 0.0
    for h in range(1, 7):
        for w in range(1, 7):
            x = rng.random((h, w))
            fast = losses.circular_autocorr(x)
            slow = np.zeros((h, w))
            for k in range(h):
                for l in range(w):
                    for i in range(h):
                        for j in range(w):
                            slow[k, l] += x[i, j] * x[(i + k) % h, (j + l) % w]
            slow /= (h * w) ** 2
            worst = max(worst, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    return worst < 1e-10, f"max rel error {worst:.2e} over grids to 6x6"


def _check_spectrum_projection() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    exemplar = rng.random((12, 10, 3))
    target = losses.spectrum_target(exemplar)
    x = rng.random((12, 10, 3))
    p1 = losses.spectrum_project(x, target)
    p2 = losses.spectrum_project(p1, target)
    idem = np.max(np.abs(p2 - p1))
    fixed = np.max(np.abs(losses.spectrum_project(exemplar, target) - exemplar))
    two_target = losses.spectrum_target(np.array([[[1.0]], [[0.0]]]))
    two = losses.spectrum_project(np.array([[[0.0]], [[2.0]]]), two_target)
    closed = np.max(np.abs(two - np.array([[[0.0]], [[1.0]]])))
    ok = idem < 1e-9 and fixed < 1e-9 and closed < 1e-12
    return ok, f"idempotence {idem:.2e}, fixed point {fixed:.2e}, 2-point {closed:.2e}"


def _check_dwt_reconstruction() -> tuple[bool, str]:
    rng = np.random.default_rng(9)
    worst = 0.0
    for dims, scales in (((16, 16), 2), ((32, 24), 3)):
        x = rng.random(dims)
        approx, details = wavelets.dwt2_daub4(x, scales)
        back = wavelets.idwt2_daub4(approx, details)
        worst = max(worst, np.max(np.abs(back - x)))
    const = np.full((16, 16), 0.7)
    _, details = wavelets.dwt2_daub4(const, 2)
    flat = max(np.max(np.abs(b)) for bands in details for b in bands)
    return worst < 1e-10 and flat < 1e-13, (
        f"reconstruction {worst:.2e}, constant-image detail {flat:.2e}"
    )


def _check_bt_closed_form() -> tuple[bool, str]:
    wins = np.array([[0.0, 17.0], [5.0, 0.0]])
    fit = bradley_terry.bt_fit(bradley_terry.DuelDataset(("a", "b"), wins))
    err = abs((fit.beta[0] - fit.beta[1]) - np.log(17.0 / 5.0))
    return err < 1e-8, f"two-method closed form error {err:.2e}"


def _check_optimizer() -> tuple[bool, str]:
    def rosenbrock(v):
        x, y = v
        val = (1 - x) ** 2 + 100 * (y - x * x) ** 2
        grad = np.array([
            -2 * (1 - x) - 400 * x * (y - x * x),
            200 * (y - x * x),
        ])
        return val, grad

    x, trace = optim.minimize(rosenbrock, np.array([-1.2, 1.0]),
                              optim.LbfgsConfig(max_iter=200))
    err = np.max(np.abs(x - 1.0))
    return err < 1e-6 and trace.iterations < 200, (
        f"rosenbrock error {err:.2e} in {trace.iterations} iterations"
    )


def _search_vs_loop(synth, exemplar, patch) -> tuple[int, int, str]:
    """Offsets where displacement_search and a direct per-pixel loop
    differ, the offset count, and the precision of the search's estimate."""
    took = np.dtype(_kernels._estimate_dtype(patch * patch * synth.shape[2], synth, exemplar))
    fast = _kernels.displacement_search(synth, exemplar, patch)
    wins = np.lib.stride_tricks.sliding_window_view(exemplar, (patch, patch), axis=(0, 1))
    slow = np.empty_like(fast)
    for y in range(fast.shape[0]):
        for x in range(fast.shape[1]):
            window = synth[y : y + patch, x : x + patch].transpose(2, 0, 1)
            ssd = ((wins - window) ** 2).sum(axis=(2, 3, 4))
            ey, ex = np.unravel_index(np.argmin(ssd), ssd.shape)  # first = smallest (dy, dx)
            slow[y, x] = ey - y, ex - x
    return int(np.any(fast != slow, axis=2).sum()), fast.shape[0] * fast.shape[1], took.name


def _check_displacement_search() -> tuple[bool, str]:
    # a periodic pair: every window has many exact copies on both sides
    tile = np.random.default_rng(11).random((3, 2, 3))
    synth, exemplar = np.tile(tile, (4, 5, 1))[:10, :9], np.tile(tile, (4, 6, 1))[1:12, 1:11]
    differ, total, took = _search_vs_loop(synth, exemplar, 3)
    return differ == 0, f"{took} estimate: {differ} of {total} offsets differ"


def _check_displacement_fallback() -> tuple[bool, str]:
    # pixels up to 2**56 lie beyond the float32 estimate's range
    rng = np.random.default_rng(19)
    synth, exemplar = rng.random((9, 10, 3)) * 2.0**56, rng.random((10, 9, 3)) * 2.0**56
    differ, total, took = _search_vs_loop(synth, exemplar, 3)
    return differ == 0 and took == "float64", f"{took} estimate: {differ} of {total} offsets differ"


def _check_worker_pool() -> tuple[bool, str]:
    # just above the pool threshold: 105 * 105 = 11025 pixels
    rng = np.random.default_rng(13)
    specs = (netmod.LayerSpec("c1", "conv3x3", 3, 2), netmod.LayerSpec("p1", "pool2", 2, 2))
    network = netmod.Network(specs, netmod.random_weights(specs, 17))
    exemplar, x = rng.random((105, 105, 3)), rng.random((105, 105, 3))
    variant = synth.MethodVariant(("gram", "spectrum", "autocorr"))
    targets = losses.compute_targets(exemplar, variant, network, layers=["c1", "p1"])
    pooled = losses.worker_pool(x.shape[0] * x.shape[1]) is not None
    reports = [losses.total_loss(x, variant, targets, network),
               losses._evaluate(x, variant, targets, network, None)]
    same = len({(r.total, tuple(r.terms.items()), r.grad.tobytes()) for r in reports}) == 1
    where = f"{losses.WORKERS} worker(s)" if pooled else "no worker to spare, both inline"
    return same, f"{where}: total, terms and gradient bytes {'equal' if same else 'differ'}"


CHECKS = (
    ("total-loss gradient vs central differences", _check_total_loss_gradient),
    ("fft autocorrelation vs direct wraparound sum", _check_wiener_khinchin),
    ("spectrum projection identities", _check_spectrum_projection),
    ("wavelet perfect reconstruction", _check_dwt_reconstruction),
    ("paired-comparison two-method closed form", _check_bt_closed_form),
    ("optimizer on rosenbrock", _check_optimizer),
    ("patch search vs direct per-pixel loop on a periodic pair", _check_displacement_search),
    ("loss terms on the worker pool vs inline", _check_worker_pool),
    ("patch search vs direct per-pixel loop beyond the float32 range",
     _check_displacement_fallback),
)


def run(out=print) -> bool:
    """Run all checks; one PASS/FAIL line each; True when all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {exc.__class__.__name__}: {exc}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return all_ok
