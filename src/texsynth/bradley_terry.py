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
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .imagecore import InputError


class DisconnectedGraph(InputError):
    """The comparison graph does not connect all methods."""


class SeparationDivergence(Exception):
    """Strengths have no finite maximum: some group of methods won, or lost,
    every duel against the rest. Carries all the methods as `methods`."""

    def __init__(self, message, methods=None):
        super().__init__(message)
        self.methods = methods


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
        """Build from (method_a, method_b, winner) triples, or a mapping from
        such triples to their counts; methods sorted. Each distinct triple is
        checked and counted once, in the order it first appears."""
        counts: dict[tuple[str, str], float] = {}
        names: set[str] = set()
        for (a, b, winner), k in Counter(records).items():
            if a == b:
                raise InputError(f"self-duel for method {a!r}")
            if winner not in (a, b):
                raise InputError(f"winner {winner!r} is neither {a!r} nor {b!r}")
            names.update((a, b))
            loser = b if winner == a else a
            counts[(winner, loser)] = counts.get((winner, loser), 0.0) + k
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


def csv_table(fh, names, what):
    """The column index of each of `names` in an open CSV file's header, and
    an iterator over the rows after it.

    The header must name each of `names` exactly once. Blank lines are
    skipped and fields past the header's are left to the caller to ignore;
    a row with fewer fields than the header raises InputError naming its
    line. `what` starts each message, e.g. "d.csv: duel CSV".
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or any(header.count(name) != 1 for name in names):
        raise InputError(f"{what} must name each of the columns {list(names)} once, "
                         f"got {header}")

    def rows():
        for row in reader:
            if len(row) >= len(header):
                yield row
            elif row:
                raise InputError(f"{what} line {reader.line_num} has {len(row)} fields, "
                                 f"fewer than the header's {len(header)}")

    return [header.index(name) for name in names], rows()


def load_duels(path, scale=None, image_ids=None) -> DuelDataset:
    """Read a duel CSV with columns method_a, method_b, winner, image_id, scale.

    Row rules are those of csv_table. Optional filters keep only rows with
    the given scale value or whose image_id is in `image_ids`.
    """
    with open(path, newline="") as fh:
        (a, b, winner, image_id, scale_col), rows = csv_table(
            fh, ("method_a", "method_b", "winner", "image_id", "scale"), f"{path}: duel CSV")
        triple = itemgetter(a, b, winner)
        counts = Counter(triple(row) for row in rows
                         if (scale is None or row[scale_col] == scale)
                         and (image_ids is None or row[image_id] in image_ids))
    if not counts:
        raise InputError("no duels left after filtering")
    return DuelDataset.from_records(counts)


def _reachable(adj: np.ndarray) -> np.ndarray:
    """Which nodes a path along edges i -> j with adj[i, j] > 0 reaches from node 0."""
    seen = np.arange(len(adj)) == 0
    frontier = [0]
    while frontier:
        new = (adj[frontier.pop()] > 0) & ~seen
        seen |= new
        frontier.extend(np.flatnonzero(new))
    return seen


def _check_connected(methods, totals: np.ndarray) -> None:
    played = totals.sum(axis=1)
    if not played.all():
        lonely = [m for m, n in zip(methods, played) if not n]
        raise DisconnectedGraph(f"methods with no duels: {lonely}")
    seen = _reachable(totals)
    if not seen.all():
        missing = [m for m, s in zip(methods, seen) if not s]
        raise DisconnectedGraph(f"comparison graph is disconnected: {missing}")


def _check_separation(methods, wins: np.ndarray) -> None:
    """Ford's (1957) condition for a finite maximum: every method must reach
    every other along "beat at least once" edges. From method 0, the methods
    no path reaches won every duel against the rest; along reversed edges,
    they lost every one."""
    won, played = wins.sum(axis=1), wins.sum(axis=0) + wins.sum(axis=1)
    clean = (won == played) | (won == 0)  # played > 0 once connected
    if np.any(clean):
        names = [m for m, c in zip(methods, clean) if c]
        raise SeparationDivergence(f"methods with only wins or only losses: {names}; "
                                   "strengths have no finite maximum", methods)
    for adj, outcome in ((wins, "won"), (wins.T, "lost")):
        seen = _reachable(adj)
        if not seen.all():
            names = [m for m, s in zip(methods, seen) if not s]
            raise SeparationDivergence(f"methods {names} {outcome} every duel against "
                                       "the rest; strengths have no finite maximum", methods)


def _log_likelihood(beta: np.ndarray, wins: np.ndarray) -> float:
    d = beta[:, None] - beta[None, :]
    # log sigmoid(d), stable on both tails
    return float(np.sum(wins * -np.logaddexp(0.0, -d)))


def _win_prob(beta: np.ndarray) -> np.ndarray:
    """p[i, j] = 1 / (1 + exp(-(beta_i - beta_j)))."""
    d = beta[:, None] - beta[None, :]
    return 1.0 / (1.0 + np.exp(-d))


def _nll_hessian(totals: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hessian of the negative log-likelihood: PSD, null space = const."""
    w = totals * p * (1.0 - p)
    return np.diag(w.sum(axis=1)) - w


def bt_fit(data: DuelDataset) -> BTFit:
    """Sum-zero MLE of strengths by damped Newton.

    Stops when the max-norm gradient falls below 1e-10, or earlier when no
    halved Newton step raises the log-likelihood: there the likelihood is
    flat to double precision, with gradients typically 1e-5 to 1e-4.
    Raises DisconnectedGraph or SeparationDivergence, before any step, where
    the maximum does not exist or is not unique.
    """
    wins = data.wins
    totals = wins + wins.T
    _check_connected(data.methods, totals)
    _check_separation(data.methods, wins)
    n = len(data.methods)
    beta = np.zeros(n)
    ll = _log_likelihood(beta, wins)
    for _ in range(200):
        p = _win_prob(beta)
        grad = (wins - totals * p).sum(axis=1)
        if np.max(np.abs(grad)) < 1e-10:
            break
        step = np.linalg.pinv(_nll_hessian(totals, p)) @ grad
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
    cov = np.linalg.pinv(_nll_hessian(totals, _win_prob(beta)), hermitian=True)
    return BTFit(data.methods, beta, cov)


def bt_significance(fit: BTFit) -> np.ndarray:
    """Pairwise verdicts: +1 where i beats j significantly, -1 the reverse,
    0 otherwise. |beta_i - beta_j| must exceed 1.96 standard errors."""
    diff = fit.beta[:, None] - fit.beta[None, :]
    bound = 1.96 * fit.pair_se()
    out = np.zeros(diff.shape, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        out[diff > bound] = 1
        out[diff < -bound] = -1
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
    p = _win_prob(fit.beta)
    se_p = p * (1.0 - p) * fit.pair_se()
    off = ~np.eye(n, dtype=bool)
    W = np.where(off, p, 0.0).sum(axis=1) / (n - 1)
    Sigma = np.sqrt(np.where(off, se_p**2, 0.0).sum(axis=1)) / (n - 1)
    return W, Sigma
