"""Duel bookkeeping and the strength model."""

import csv

import numpy as np
import pytest

from texsynth.bradley_terry import (
    BTFit,
    DisconnectedGraph,
    DuelDataset,
    SeparationDivergence,
    bt_fit,
    bt_significance,
    bt_winning_prob,
    load_duels,
)


def simulate(rng, strengths, duels_per_pair):
    n = len(strengths)
    wins = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = 1.0 / (1.0 + np.exp(-(strengths[i] - strengths[j])))
            w = rng.binomial(duels_per_pair, p)
            wins[i, j] = w
            wins[j, i] = duels_per_pair - w
    methods = tuple(f"m{k}" for k in range(n))
    return DuelDataset(methods, wins)


class TestDataset:
    def test_from_records_counts_wins(self):
        data = DuelDataset.from_records(
            [("a", "b", "a"), ("a", "b", "a"), ("b", "a", "b"), ("a", "c", "c")]
        )
        assert data.methods == ("a", "b", "c")
        assert data.wins[0, 1] == 2.0  # a over b
        assert data.wins[1, 0] == 1.0
        assert data.wins[2, 0] == 1.0  # c over a

    def test_self_duel_rejected(self):
        with pytest.raises(ValueError, match="self-duel"):
            DuelDataset.from_records([("a", "a", "a")])

    def test_unknown_winner_rejected(self):
        with pytest.raises(ValueError, match="winner"):
            DuelDataset.from_records([("a", "b", "c")])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DuelDataset(("a", "b"), np.array([[0.0, -1.0], [2.0, 0.0]]))

    def test_a_wins_matrix_of_the_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match=r"^wins must be 3x3, got \(2, 2\)$"):
            DuelDataset(("a", "b", "c"), np.zeros((2, 2)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            DuelDataset(("a", "b"), np.array([[1.0, 2.0], [2.0, 0.0]]))


class TestFit:
    def test_two_method_closed_form(self):
        data = DuelDataset(("a", "b"), np.array([[0.0, 30.0], [10.0, 0.0]]))
        fit = bt_fit(data)
        assert abs((fit.beta[0] - fit.beta[1]) - np.log(3.0)) < 1e-8

    def test_strengths_are_centered(self):
        rng = np.random.default_rng(0)
        data = simulate(rng, np.array([0.5, 0.0, -0.5]), 100)
        fit = bt_fit(data)
        assert abs(fit.beta.sum()) < 1e-9

    def test_recovers_known_strengths(self):
        rng = np.random.default_rng(1)
        truth = np.array([0.8, 0.2, 0.0, -0.3, -0.7])
        data = simulate(rng, truth, 400)
        fit = bt_fit(data)
        se = np.sqrt(np.diag(fit.cov))
        assert np.all(np.abs(fit.beta - (truth - truth.mean())) < 3.0 * se)

    def test_balanced_pair_standard_error(self):
        # 50/50 over 100 duels: var(beta1 - beta2) = 1 / (100 * 1/4)
        data = DuelDataset(("a", "b"), np.array([[0.0, 50.0], [50.0, 0.0]]))
        fit = bt_fit(data)
        assert abs(fit.pair_se()[0, 1] - 0.2) < 1e-10

    def test_two_cliques_raise_disconnected(self):
        wins = np.zeros((4, 4))
        wins[0, 1] = wins[1, 0] = 5.0
        wins[2, 3] = wins[3, 2] = 5.0
        with pytest.raises(DisconnectedGraph, match="disconnected"):
            bt_fit(DuelDataset(("a", "b", "c", "d"), wins))

    def test_method_without_duels_raises(self):
        wins = np.zeros((3, 3))
        wins[0, 1] = wins[1, 0] = 5.0
        with pytest.raises(DisconnectedGraph, match="no duels"):
            bt_fit(DuelDataset(("a", "b", "c"), wins))

    def test_perfect_separation_raises(self):
        data = DuelDataset(("a", "b"), np.array([[0.0, 10.0], [0.0, 0.0]]))
        with pytest.raises(SeparationDivergence) as err:
            bt_fit(data)
        assert err.value.methods == ("a", "b")
        assert "'a'" in str(err.value) and "'b'" in str(err.value)

    def test_one_method_losing_everything_raises(self):
        # c loses all its duels; a and b are balanced against each other
        wins = np.array([[0.0, 5.0, 7.0], [5.0, 0.0, 6.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SeparationDivergence) as err:
            bt_fit(DuelDataset(("a", "b", "c"), wins))
        assert "'c'" in str(err.value)
        assert "'a'" not in str(err.value)

    def test_a_group_winning_every_duel_against_the_rest_raises(self):
        # every method wins and loses some duels, yet a and b beat c and d every
        # time, so widening the gap between the pairs raises the likelihood forever
        wins = np.array([[0, 3, 5, 5], [2, 0, 5, 5], [0, 0, 0, 4], [0, 0, 1, 0]])
        with pytest.raises(SeparationDivergence) as err:
            bt_fit(DuelDataset(("a", "b", "c", "d"), wins))
        assert "['c', 'd'] lost every duel" in str(err.value)

    def test_a_lopsided_chain_has_finite_strengths(self):
        # each method wins 10^4 : 1 against the next, so each gap is ln 10^4
        wins = np.zeros((8, 8))
        for i in range(7):
            wins[i, i + 1], wins[i + 1, i] = 1e4, 1.0
        fit = bt_fit(DuelDataset(tuple("abcdefgh"), wins))
        span = 7 * np.log(1e4)
        assert abs(np.ptp(fit.beta) - span) < 1e-6 * span


class TestSignificance:
    def fit_with(self, delta, var):
        beta = np.array([delta / 2.0, -delta / 2.0])
        return BTFit(("a", "b"), beta, np.diag([var, var]))

    def test_clear_gap_is_flagged(self):
        # se of the difference is 0.5; 1.0 > 1.96 * 0.5 is false, so pick 1.2
        fit = self.fit_with(1.2, 0.125)
        sig = bt_significance(fit)
        assert sig[0, 1] == 1 and sig[1, 0] == -1

    def test_narrow_gap_is_not(self):
        fit = self.fit_with(0.9, 0.125)
        assert not bt_significance(fit).any()

    def test_threshold_is_strict(self):
        fit = self.fit_with(1.96 * 0.5, 0.125)
        assert not bt_significance(fit).any()


class TestWinningProb:
    def test_equal_strengths_sit_at_half(self):
        fit = BTFit(("a", "b", "c"), np.zeros(3), np.zeros((3, 3)))
        W, Sigma = bt_winning_prob(fit)
        assert W.tolist() == [0.5, 0.5, 0.5]
        assert Sigma.tolist() == [0.0, 0.0, 0.0]

    def test_two_methods_are_complementary(self):
        fit = BTFit(("a", "b"), np.array([0.7, -0.7]), np.eye(2) * 0.01)
        W, _ = bt_winning_prob(fit)
        assert W[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.4)))
        assert W[0] + W[1] == pytest.approx(1.0)

    def test_uncertainty_follows_the_delta_method(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        fit = BTFit(("a", "b"), np.array([0.3, -0.3]), cov)
        W, Sigma = bt_winning_prob(fit)
        se_diff = np.sqrt(0.04 + 0.09 - 2 * 0.01)
        p = 1.0 / (1.0 + np.exp(-0.6))
        assert Sigma[0] == pytest.approx(p * (1 - p) * se_diff)

    def test_single_method_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            bt_winning_prob(BTFit(("a",), np.zeros(1), np.zeros((1, 1))))


class TestCsv:
    def write(self, path, rows):
        lines = ["method_a,method_b,winner,image_id,scale"]
        lines += [",".join(r) for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_load_and_fit(self, tmp_path):
        path = tmp_path / "duels.csv"
        self.write(
            path,
            [
                ("a", "b", "a", "img1", "global"),
                ("a", "b", "b", "img2", "global"),
                ("a", "b", "a", "img1", "local"),
            ],
        )
        data = load_duels(path)
        assert data.wins[0, 1] == 2.0 and data.wins[1, 0] == 1.0

    def test_scale_filter(self, tmp_path):
        path = tmp_path / "duels.csv"
        self.write(
            path,
            [
                ("a", "b", "a", "img1", "global"),
                ("a", "b", "b", "img2", "local"),
            ],
        )
        data = load_duels(path, scale="global")
        assert data.wins[0, 1] == 1.0 and data.wins[1, 0] == 0.0

    def test_image_id_filter(self, tmp_path):
        path = tmp_path / "duels.csv"
        self.write(
            path,
            [
                ("a", "b", "a", "img1", "global"),
                ("a", "b", "b", "img2", "global"),
            ],
        )
        data = load_duels(path, image_ids={"img2"})
        assert data.wins[1, 0] == 1.0 and data.wins[0, 1] == 0.0

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "duels.csv"
        path.write_text("method_a,method_b,winner\na,b,a\n")
        with pytest.raises(ValueError, match="columns"):
            load_duels(path)

    def test_everything_filtered_out_rejected(self, tmp_path):
        path = tmp_path / "duels.csv"
        self.write(path, [("a", "b", "a", "img1", "global")])
        with pytest.raises(ValueError, match="no duels left"):
            load_duels(path, scale="local")

    def test_a_short_row_is_rejected_naming_its_line(self, tmp_path):
        path = tmp_path / "duels.csv"
        self.write(path, [("a", "b", "a", "img1", "global"), ("a", "b"),
                          ("b", "a", "a", "img1", "global")])
        for scale in (None, "global"):  # filtered or not, the row is bad
            with pytest.raises(ValueError, match="line 3 has 2 fields"):
                load_duels(path, scale=scale)

    @pytest.mark.parametrize("column", ["winner", "scale"])
    def test_a_required_column_named_twice_is_rejected(self, tmp_path, column):
        path = tmp_path / "duels.csv"
        path.write_text(f"method_a,method_b,winner,image_id,scale,{column}\n"
                        "a,b,a,img1,global,b\n")
        with pytest.raises(ValueError, match="once"):
            load_duels(path)

    def test_blank_lines_and_extra_fields_are_ignored(self, tmp_path):
        path = tmp_path / "duels.csv"
        path.write_text("method_a,method_b,winner,image_id,scale,note\n\n"
                        "a,b,a,img1,global,x,y\n\nb,a,b,img1,global,z\n\n")
        data = load_duels(path)
        assert data.methods == ("a", "b")
        assert data.wins.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_a_count_mapping_equals_its_records(self):
        records = [("a", "b", "a"), ("b", "c", "c"), ("a", "b", "a"), ("c", "a", "a")]
        counts = {("a", "b", "a"): 2, ("b", "c", "c"): 1, ("c", "a", "a"): 1}
        for data in (DuelDataset.from_records(counts), DuelDataset.from_records(records)):
            assert data.methods == ("a", "b", "c")
            assert data.wins.tolist() == [[0, 2, 1], [0, 0, 0], [0, 1, 0]]


def load_duels_dictreader(path, scale=None, image_ids=None):
    """The loader as it was before the one-pass reader, kept as the oracle:
    a DictReader row at a time, then one record at a time. Returns
    (methods, wins) or raises InputError."""
    from texsynth.imagecore import InputError

    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"method_a", "method_b", "winner", "image_id", "scale"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            raise InputError("columns")
        for row in reader:
            if scale is not None and row["scale"] != scale:
                continue
            if image_ids is not None and row["image_id"] not in image_ids:
                continue
            records.append((row["method_a"], row["method_b"], row["winner"]))
    if not records:
        raise InputError("no duels left after filtering")
    counts, names = {}, set()
    for a, b, winner in records:
        if a == b:
            raise InputError(f"self-duel for method {a!r}")
        if winner not in (a, b):
            raise InputError(f"winner {winner!r} is neither {a!r} nor {b!r}")
        names.update((a, b))
        loser = b if winner == a else a
        counts[(winner, loser)] = counts.get((winner, loser), 0.0) + 1.0
    methods = tuple(sorted(names))
    index = {m: i for i, m in enumerate(methods)}
    wins = np.zeros((len(methods), len(methods)))
    for (wi, lo), k in counts.items():
        wins[index[wi], index[lo]] = k
    return methods, wins


def random_duels(rng, n_rows, n_methods=6, bad=()):
    """Rows of a duel CSV; `bad` maps row index -> "self" or "winner"."""
    names = [f"m{k}" for k in range(n_methods)]
    rows = []
    for r in range(n_rows):
        a, b = rng.choice(n_methods, size=2, replace=False)
        winner = names[a] if rng.random() < 0.5 else names[b]
        row = [names[a], names[b], winner, f"img{rng.integers(5)}",
               "global" if rng.random() < 0.5 else "local"]
        if r in bad:  # kept by the scale=global filter
            row[:3] = [names[a]] * 3 if bad[r] == "self" else [names[a], names[b], "nobody"]
            row[4] = "global"
        rows.append(row)
    return rows


def write_csv(path, rows, header=("method_a", "method_b", "winner", "image_id", "scale")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestLoaderOracle:
    """load_duels against the DictReader loader it replaced."""

    FILTERS = [{}, {"scale": "global"}, {"image_ids": {"img1", "img3"}},
               {"scale": "local", "image_ids": {"img0", "img2", "img4"}}]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("filters", FILTERS, ids=["none", "scale", "ids", "both"])
    def test_methods_and_wins_are_equal(self, tmp_path, seed, filters):
        rng = np.random.default_rng(seed)
        path = write_csv(tmp_path / "d.csv", random_duels(rng, int(rng.integers(1, 400)),
                                                          n_methods=int(rng.integers(2, 9))))
        try:
            methods, wins = load_duels_dictreader(path, **filters)
        except ValueError as exc:  # every row filtered out
            with pytest.raises(ValueError, match=str(exc)):
                load_duels(path, **filters)
            return
        data = load_duels(path, **filters)
        assert data.methods == methods
        assert data.wins.dtype == wins.dtype and np.array_equal(data.wins, wins)

    def test_reordered_and_extra_columns_are_equal(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [[r[4], "x", r[2], r[0], r[3], r[1]] for r in random_duels(rng, 300)]
        header = ("scale", "note", "winner", "method_a", "image_id", "method_b")
        path = write_csv(tmp_path / "d.csv", rows, header)
        for filters in self.FILTERS:
            methods, wins = load_duels_dictreader(path, **filters)
            data = load_duels(path, **filters)
            assert data.methods == methods and np.array_equal(data.wins, wins)

    @pytest.mark.parametrize("bad", [{5: "self"}, {5: "winner"}, {5: "self", 9: "winner"},
                                     {5: "winner", 9: "self"}, {40: "self", 41: "self"}],
                             ids=["self", "winner", "self-first", "winner-first", "two-self"])
    @pytest.mark.parametrize("filters", FILTERS[:2], ids=["none", "scale"])
    def test_the_first_bad_record_gives_the_same_error(self, tmp_path, bad, filters):
        rng = np.random.default_rng(11)
        path = write_csv(tmp_path / "d.csv", random_duels(rng, 60, bad=bad))
        with pytest.raises(ValueError) as expected:
            load_duels_dictreader(path, **filters)
        with pytest.raises(ValueError) as got:
            load_duels(path, **filters)
        assert str(got.value) == str(expected.value)
