"""Paired-comparison analysis: strengths, significance, winning probabilities.

Duel outcomes between methods are modeled by
log(p_ij / (1 - p_ij)) = beta_i - beta_j. Strengths are the maximum
likelihood estimate under sum(beta) = 0, found by damped Newton;
covariance comes from the pseudo-inverse of the negative log-likelihood
Hessian, whose null direction is exactly the constant vector. On top of
the fit: pairwise significance verdicts at 1.96 standard errors, and
per-method mean winning probabilities with delta-method uncertainties.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DisconnectedGraph(Exception):
    """The comparison graph does not connect all methods."""


class SeparationDivergence(Exception):
    """Strengths diverge (some method wins or loses too cleanly).

    Carries the strengths at detection time as `beta`; None when the
    divergence is already visible in the duel table itself.
    """

    def __init__(self, message, methods=None, beta=None):
        super().__init__(message)
        self.methods = methods
        self.beta = beta


@dataclass
class DuelDataset:
    """Win counts: wins[i, j] = number of duels method i won against j."""

    methods: tuple[str, ...]
    wins: np.ndarray

    def __post_init__(self):
        n = len(self.methods)
        self.wins = np.asarray(self.wins, dtype=np.float64)
        if self.wins.shape != (n, n):
            raise ValueError(f"wins must be {n}x{n}, got {self.wins.shape}")
        if np.any(self.wins < 0) or np.any(np.diag(self.wins) != 0):
            raise ValueError("win counts must be nonnegative with a zero diagonal")

    @classmethod
    def from_records(cls, records) -> "DuelDataset":
        """Build from (method_a, method_b, winner) triples; methods sorted."""
        counts: dict[tuple[str, str], float] = {}
        names: set[str] = set()
        for a, b, winner in records:
            if a == b:
                raise ValueError(f"self-duel for method {a!r}")
            if winner not in (a, b):
                raise ValueError(f"winner {winner!r} is neither {a!r} nor {b!r}")
            names.update((a, b))
            loser = b if winner == a else a
            counts[(winner, loser)] = counts.get((winner, loser), 0.0) + 1.0
        methods = tuple(sorted(names))
        index = {m: i for i, m in enumerate(methods)}
        wins = np.zeros((len(methods), len(methods)))
        for (wi, lo), k in counts.items():
            wins[index[wi], index[lo]] = k
        return cls(methods, wins)


@dataclass
class BTFit:
    methods: tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray

    def pair_se(self) -> np.ndarray:
        """Standard error of beta_i - beta_j for every pair."""
        var = np.diag(self.cov)
        return np.sqrt(np.maximum(var[:, None] + var[None, :] - 2.0 * self.cov, 0.0))


def load_duels(path, scale=None, image_ids=None) -> DuelDataset:
    """Read a duel CSV with columns method_a, method_b, winner, image_id, scale.

    Optional filters keep only rows with the given scale value or whose
    image_id is in `image_ids`.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"method_a", "method_b", "winner", "image_id", "scale"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            raise ValueError(
                f"duel CSV must have columns {sorted(needed)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            if scale is not None and row["scale"] != scale:
                continue
            if image_ids is not None and row["image_id"] not in image_ids:
                continue
            records.append((row["method_a"], row["method_b"], row["winner"]))
    if not records:
        raise ValueError("no duels left after filtering")
    return DuelDataset.from_records(records)


def _check_connected(methods, totals: np.ndarray) -> None:
    n = len(methods)
    if np.any(totals.sum(axis=0) + totals.sum(axis=1) == 0):
        lonely = [m for i, m in enumerate(methods)
                  if totals[i].sum() + totals[:, i].sum() == 0]
        raise DisconnectedGraph(f"methods with no duels: {lonely}")
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and totals[i, j] > 0:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n:
        missing = [methods[i] for i in range(n) if i not in seen]
        raise DisconnectedGraph(f"comparison graph is disconnected: {missing}")


def _log_likelihood(beta: np.ndarray, wins: np.ndarray) -> float:
    d = beta[:, None] - beta[None, :]
    # log sigmoid(d), stable on both tails
    return float(np.sum(wins * -np.logaddexp(0.0, -d)))


def bt_fit(data: DuelDataset, tol: float = 1e-10, max_iter: int = 200) -> BTFit:
    """Sum-zero MLE of strengths by damped Newton.

    Stops when the max-norm gradient falls below `tol`, or earlier when no
    halved Newton step raises the log-likelihood: there the likelihood is
    flat to double precision, with gradients typically 1e-5 to 1e-4.
    """
    wins = data.wins
    totals = wins + wins.T
    _check_connected(data.methods, totals)
    won, played = wins.sum(axis=1), totals.sum(axis=1)
    clean = (won == played) | (won == 0)  # played > 0 once connected
    if np.any(clean):
        names = [m for m, c in zip(data.methods, clean) if c]
        raise SeparationDivergence(
            f"methods with only wins or only losses: {names}; "
            "strengths have no finite maximum",
            data.methods, None,
        )
    n = len(data.methods)
    beta = np.zeros(n)
    ll = _log_likelihood(beta, wins)
    for _ in range(max_iter):
        d = beta[:, None] - beta[None, :]
        p = 1.0 / (1.0 + np.exp(-d))
        grad = (wins - totals * p).sum(axis=1)
        if np.max(np.abs(grad)) < tol:
            break
        if np.max(np.abs(beta)) > 30.0:
            raise SeparationDivergence(
                "strengths diverged: some method separates perfectly",
                data.methods, beta,
            )
        w = totals * p * (1.0 - p)
        hess = np.diag(w.sum(axis=1)) - w  # NLL Hessian, PSD, null space = const
        step = np.linalg.pinv(hess) @ grad
        t = 1.0
        for _ in range(40):
            cand = beta + t * step
            cand -= cand.mean()
            cand_ll = _log_likelihood(cand, wins)
            if cand_ll > ll:
                beta, ll = cand, cand_ll
                break
            t *= 0.5
        else:
            break  # no ascent step left; gradient is numerically flat
    else:
        raise RuntimeError("strength fit did not converge")
    if np.max(np.abs(beta)) > 30.0:
        raise SeparationDivergence(
            "strengths diverged: some method separates perfectly",
            data.methods, beta,
        )
    d = beta[:, None] - beta[None, :]
    p = 1.0 / (1.0 + np.exp(-d))
    w = totals * p * (1.0 - p)
    hess = np.diag(w.sum(axis=1)) - w
    cov = np.linalg.pinv(hess, hermitian=True)
    return BTFit(data.methods, beta, cov)


def bt_significance(fit: BTFit, z: float = 1.96) -> np.ndarray:
    """Pairwise verdicts: +1 where i beats j significantly, -1 the reverse,
    0 otherwise. |beta_i - beta_j| must exceed z standard errors."""
    diff = fit.beta[:, None] - fit.beta[None, :]
    se = fit.pair_se()
    out = np.zeros(diff.shape, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        out[diff > z * se] = 1
        out[diff < -z * se] = -1
    np.fill_diagonal(out, 0)
    return out


def bt_winning_prob(fit: BTFit):
    """Mean winning probability W_i over opponents, with uncertainty Sigma_i.

    W_i averages sigmoid(beta_i - beta_j) over j != i. Each p_ij gets a
    delta-method standard error p(1-p) se(beta_i - beta_j); assuming
    independence across opponents, Sigma_i = sqrt(sum_j se(p_ij)^2)/(N-1).
    """
    n = len(fit.methods)
    if n < 2:
        raise ValueError("need at least two methods")
    d = fit.beta[:, None] - fit.beta[None, :]
    p = 1.0 / (1.0 + np.exp(-d))
    se_p = p * (1.0 - p) * fit.pair_se()
    off = ~np.eye(n, dtype=bool)
    W = np.where(off, p, 0.0).sum(axis=1) / (n - 1)
    Sigma = np.sqrt(np.where(off, se_p**2, 0.0).sum(axis=1)) / (n - 1)
    return W, Sigma
