"""End-to-end command line behavior: exit codes, files written, JSON errors."""

import csv
import io
import json

import numpy as np
import pytest

from texsynth import synth
from texsynth.cli import main
from texsynth.ggd import LOG_ZERO_SENTINEL
from texsynth.imagecore import Image, as_array, read_image, write_image
from texsynth.net import random_weights, save_weights, vgg_mini


def smooth_rgb(n=16, phase=0.0):
    y, x = np.mgrid[0:n, 0:n].astype(float)
    r = 0.5 + 0.3 * np.sin(2 * np.pi * x / 8 + phase) * np.cos(2 * np.pi * y / 8)
    g = 0.5 + 0.3 * np.cos(2 * np.pi * (x + y) / 8 + phase)
    b = 0.5 + 0.3 * np.sin(2 * np.pi * y / 8 + phase)
    return Image(np.stack([r, g, b], axis=2))


def save_rgb(path, n=16, phase=0.0):
    write_image(smooth_rgb(n, phase), path, bits=16)
    return str(path)


def forbid_synthesis(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(synth, "synth_multiscale", fail)


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def stderr_payload(capsys):
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return payload


class TestSynth:
    def run_tiny(self, tmp_path, out_name="out.ppm", extra=()):
        ex = save_rgb(tmp_path / "ex.ppm")
        out = tmp_path / out_name
        rc = main([
            "synth", "--exemplar", ex, "--out", str(out),
            "--variant", "gram", "--iterations", "3", "--seed", "0",
        ] + list(extra))
        return rc, ex, out

    def test_writes_image_and_session(self, tmp_path, capsys):
        rc, _, out = self.run_tiny(tmp_path)
        assert rc == 0
        img = read_image(out)
        assert (img.h, img.w, img.c) == (16, 16, 3)
        session = json.loads((tmp_path / "out.session.json").read_text())
        assert session["seed"] == 0
        assert session["variant"] == "gram"
        assert session["output"]["path"] == str(out)
        assert "final loss" in capsys.readouterr().out

    def test_repeat_run_is_byte_identical(self, tmp_path):
        rc, _, out = self.run_tiny(tmp_path)
        assert rc == 0
        first = out.read_bytes()
        first_session = (tmp_path / "out.session.json").read_bytes()
        out.unlink()
        rc, _, out = self.run_tiny(tmp_path)
        assert rc == 0
        assert out.read_bytes() == first
        assert (tmp_path / "out.session.json").read_bytes() == first_session

    def test_replay_reproduces_the_image(self, tmp_path):
        rc, _, out = self.run_tiny(tmp_path, extra=["--seed", "3"])
        assert rc == 0
        assert self.replay(tmp_path) == 0
        assert (tmp_path / "again.ppm").read_bytes() == out.read_bytes()

    def replay(self, tmp_path):
        return main([
            "synth", "--replay", str(tmp_path / "out.session.json"),
            "--out", str(tmp_path / "again.ppm"),
        ])

    def test_replay_rejects_a_changed_exemplar(self, tmp_path, capsys, monkeypatch):
        rc, ex, _ = self.run_tiny(tmp_path)
        assert rc == 0
        save_rgb(ex, phase=1.0)  # overwrite with different pixels
        forbid_synthesis(monkeypatch)
        rc = self.replay(tmp_path)
        assert rc == 2
        assert "does not match the session hash" in stderr_payload(capsys)["message"]

    def test_replay_finds_weights_whose_path_has_a_comma(self, tmp_path):
        weights = tmp_path / "we,ights.bin"
        save_weights(random_weights(vgg_mini(3), seed=5), weights)
        rc, _, out = self.run_tiny(tmp_path, extra=["--net-weights", str(weights)])
        assert rc == 0
        assert self.replay(tmp_path) == 0
        assert (tmp_path / "again.ppm").read_bytes() == out.read_bytes()

    def test_replay_rejects_changed_weights(self, tmp_path, capsys, monkeypatch):
        weights = tmp_path / "weights.bin"
        save_weights(random_weights(vgg_mini(3), seed=5), weights)
        rc, _, _ = self.run_tiny(tmp_path, extra=["--net-weights", str(weights)])
        assert rc == 0
        save_weights(random_weights(vgg_mini(3), seed=6), weights)
        forbid_synthesis(monkeypatch)
        assert self.replay(tmp_path) == 2
        assert "do not match the session" in stderr_payload(capsys)["message"]

    def test_replay_of_an_8_bit_run_writes_the_same_bytes(self, tmp_path):
        rc, _, out = self.run_tiny(tmp_path, extra=["--bits", "8"])
        assert rc == 0
        assert self.replay(tmp_path) == 0
        assert (tmp_path / "again.ppm").read_bytes() == out.read_bytes()

    def test_replay_rejects_a_non_session_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        rc = main(["synth", "--replay", str(bogus), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "not a session file" in stderr_payload(capsys)["message"]

    def test_curve_csv_lists_losses_per_scale(self, tmp_path):
        curve = tmp_path / "curve.csv"
        rc, _, _ = self.run_tiny(tmp_path, extra=["--curve", str(curve)])
        assert rc == 0
        rows = read_csv(curve.read_text())
        assert rows[0] == ["k", "iteration", "loss"]
        assert [r[0] for r in rows[1:]] == ["0"] * (len(rows) - 1)
        values = [float(r[2]) for r in rows[1:]]
        assert values == sorted(values, reverse=True)

    def test_flags_override_config(self, tmp_path):
        ex = save_rgb(tmp_path / "ex.ppm")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "exemplar": ex, "out": str(tmp_path / "cfg_out.ppm"),
            "variant": "gram", "iterations": 2, "seed": 4,
        }))
        rc = main(["synth", "--config", str(cfg), "--seed", "7"])
        assert rc == 0
        session = json.loads((tmp_path / "cfg_out.session.json").read_text())
        assert session["seed"] == 7
        assert session["lbfgs"]["max_iter"] == 2

    def test_bad_config_bits_exit_2_before_synthesis(self, tmp_path, capsys, monkeypatch):
        ex = save_rgb(tmp_path / "ex.ppm")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exemplar": ex, "variant": "gram", "bits": 12}))
        forbid_synthesis(monkeypatch)
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "bits must be 8 or 16" in stderr_payload(capsys)["message"]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "gram", "iteration": 2}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "unknown config keys" in stderr_payload(capsys)["message"]

    def test_badly_typed_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "zero"}))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        assert "bad type for key 'seed'" in stderr_payload(capsys)["message"]

    def test_missing_exemplar_flag_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "exemplar is required" in stderr_payload(capsys)["message"]

    def test_missing_exemplar_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "synth", "--exemplar", str(tmp_path / "nope.ppm"),
            "--out", str(tmp_path / "x.ppm"),
        ])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "FileNotFoundError"

    def test_malformed_exemplar_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"GIF89a not a raster at all")
        rc = main(["synth", "--exemplar", str(bad), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "RasterFormatError"

    def test_too_deep_pyramid_exits_2(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm")
        rc = main([
            "synth", "--exemplar", ex, "--out", str(tmp_path / "x.ppm"),
            "--variant", "gram+msinit", "--K", "4", "--iterations", "2",
        ])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "TooManyScales"

    def test_no_subcommand_exits_2(self, capsys):
        rc = main([])
        assert rc == 2
        stderr_payload(capsys)


class TestEvalDs:
    def test_verbatim_copy_scores_zero(self, tmp_path, capsys):
        # random pixels so every patch is unique; a periodic exemplar would
        # tie the patch search and shift the tie-broken offsets near borders
        rng = np.random.default_rng(0)
        write_image(Image(rng.random((16, 12, 3))), tmp_path / "ex.ppm", bits=16)
        ex = str(tmp_path / "ex.ppm")
        copy = tmp_path / "copied.ppm"
        copy.write_bytes((tmp_path / "ex.ppm").read_bytes())
        rc = main(["eval-ds", "--exemplar", ex, "--synth", str(copy)])
        assert rc == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["image_id", "method", "metric", "value"]
        assert rows[1] == ["ex", "copied", "ds", "0.0"]

    def test_csv_file_and_colored_maps(self, tmp_path):
        ex = save_rgb(tmp_path / "ex.ppm")
        a = save_rgb(tmp_path / "a.ppm", phase=0.4)
        b = save_rgb(tmp_path / "b.ppm", phase=2.0)
        out = tmp_path / "metrics.csv"
        rc = main([
            "eval-ds", "--exemplar", ex, "--synth", a, b,
            "--out", str(out), "--disp-dir", str(tmp_path / "maps"),
            "--image-id", "tex7", "--jobs", "2",
        ])
        assert rc == 0
        rows = read_csv(out.read_text())
        assert [r[:3] for r in rows[1:]] == [
            ["tex7", "a", "ds"], ["tex7", "b", "ds"],
        ]
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0
        disp = read_image(tmp_path / "maps" / "a.disp.ppm")
        assert disp.c == 3

    def test_missing_synth_file_exits_2(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm")
        rc = main(["eval-ds", "--exemplar", ex, "--synth", str(tmp_path / "no.ppm")])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "FileNotFoundError"


class TestEvalKlw:
    def test_self_distance_hits_the_log_sentinel(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        tex = Image(rng.random((64, 64)))
        write_image(tex, tmp_path / "ref.pgm", bits=16)
        copy = tmp_path / "same.pgm"
        copy.write_bytes((tmp_path / "ref.pgm").read_bytes())
        rc = main([
            "eval-klw", "--ref", str(tmp_path / "ref.pgm"),
            "--synth", str(copy), "--scales", "2",
        ])
        assert rc == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["image_id", "method", "metric", "value"]
        assert rows[1] == ["ref", "same", "klw", repr(LOG_ZERO_SENTINEL)]
        assert rows[2] == ["ref", "same", "klw_sum", "0.0"]

    def test_different_textures_get_positive_distance(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        write_image(Image(rng.random((64, 64))), tmp_path / "ref.pgm", bits=16)
        write_image(Image(0.5 + 0.1 * rng.random((64, 64))), tmp_path / "s.pgm",
                    bits=16)
        rc = main([
            "eval-klw", "--ref", str(tmp_path / "ref.pgm"),
            "--synth", str(tmp_path / "s.pgm"), "--scales", "2",
        ])
        assert rc == 0
        rows = read_csv(capsys.readouterr().out)
        assert float(rows[2][3]) > 0.0

    def test_indivisible_dims_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        write_image(Image(rng.random((64, 64))), tmp_path / "ref.pgm", bits=16)
        copy = tmp_path / "same.pgm"
        copy.write_bytes((tmp_path / "ref.pgm").read_bytes())
        rc = main([
            "eval-klw", "--ref", str(tmp_path / "ref.pgm"),
            "--synth", str(copy), "--scales", "8",
        ])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "WaveletScaleError"


def write_duels(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method_a", "method_b", "winner", "image_id", "scale"])
        writer.writerows(rows)
    return str(path)


def duel_rows():
    rows = []
    rows += [["a", "b", "a", "img1", "global"]] * 6
    rows += [["a", "b", "b", "img1", "global"]] * 2
    rows += [["a", "b", "a", "img1", "local"]] * 4
    rows += [["a", "b", "b", "img1", "local"]] * 3
    rows += [["a", "b", "a", "img2", "global"]] * 3
    rows += [["a", "b", "b", "img2", "global"]] * 1
    rows += [["a", "b", "a", "img2", "local"]] * 7
    rows += [["a", "b", "b", "img2", "local"]] * 4
    return rows  # a 20, b 10 overall; 9-3 on global; 10-5 on img1


class TestBtFit:
    def test_payload_matches_the_closed_form(self, tmp_path, capsys):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        rc = main(["bt-fit", "--duels", duels])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"] == ["a", "b"]
        assert payload["n_duels"] == 30
        beta = payload["beta"]
        assert beta[0] + beta[1] == pytest.approx(0.0, abs=1e-12)
        assert beta[0] - beta[1] == pytest.approx(np.log(2.0), abs=1e-8)
        assert all(se > 0 for se in payload["se_beta"])
        assert payload["winning_prob"][0] + payload["winning_prob"][1] == (
            pytest.approx(1.0, abs=1e-12)
        )
        assert np.shape(payload["significance"]) == (2, 2)

    def test_scale_filter_changes_the_fit(self, tmp_path):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        out = tmp_path / "fit.json"
        rc = main(["bt-fit", "--duels", duels, "--filter", "scale=global",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["n_duels"] == 12
        assert payload["beta"][0] - payload["beta"][1] == pytest.approx(
            np.log(3.0), abs=1e-8
        )

    def test_image_class_filter_uses_the_classes_csv(self, tmp_path, capsys):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        classes = tmp_path / "classes.csv"
        classes.write_text("image_id,class\nimg1,regular\nimg2,irregular\n")
        rc = main(["bt-fit", "--duels", duels, "--classes", str(classes),
                   "--filter", "image-class=regular"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_duels"] == 15
        assert payload["beta"][0] - payload["beta"][1] == pytest.approx(
            np.log(2.0), abs=1e-8
        )

    def test_image_class_filter_without_classes_exits_2(self, tmp_path, capsys):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        rc = main(["bt-fit", "--duels", duels, "--filter", "image-class=regular"])
        assert rc == 2
        assert "--classes" in stderr_payload(capsys)["message"]

    def test_bad_filter_exits_2(self, tmp_path, capsys):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        rc = main(["bt-fit", "--duels", duels, "--filter", "scale=huge"])
        assert rc == 2
        assert "global or local" in stderr_payload(capsys)["message"]

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "duels.csv"
        path.write_text("method_a,method_b,winner\na,b,a\n")
        rc = main(["bt-fit", "--duels", str(path)])
        assert rc == 2
        assert "columns" in stderr_payload(capsys)["message"]

    def test_over_filtering_exits_2(self, tmp_path, capsys):
        rows = [r for r in duel_rows() if r[4] == "global"]
        duels = write_duels(tmp_path / "duels.csv", rows)
        rc = main(["bt-fit", "--duels", duels, "--filter", "scale=local"])
        assert rc == 2
        assert "no duels left" in stderr_payload(capsys)["message"]

    def test_separated_duels_exit_1(self, tmp_path, capsys):
        rows = [["a", "b", "a", "img1", "global"]] * 8
        duels = write_duels(tmp_path / "duels.csv", rows)
        rc = main(["bt-fit", "--duels", duels])
        assert rc == 1
        assert stderr_payload(capsys)["error"] == "SeparationDivergence"


class TestProjectSpectrum:
    def test_projecting_the_exemplar_onto_itself_is_near_identity(self, tmp_path):
        ex = save_rgb(tmp_path / "ex.ppm")
        out = tmp_path / "proj.ppm"
        rc = main(["project-spectrum", "--exemplar", ex, "--image", ex,
                   "--out", str(out)])
        assert rc == 0
        diff = np.abs(as_array(read_image(out)) - as_array(read_image(ex)))
        assert diff.max() < 1e-4

    def test_projected_image_keeps_dims(self, tmp_path):
        ex = save_rgb(tmp_path / "ex.ppm")
        img = save_rgb(tmp_path / "img.ppm", phase=1.3)
        out = tmp_path / "proj.ppm"
        rc = main(["project-spectrum", "--exemplar", ex, "--image", img,
                   "--out", str(out), "--bits", "8"])
        assert rc == 0
        result = read_image(out)
        assert (result.h, result.w, result.c) == (16, 16, 3)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm", n=16)
        img = save_rgb(tmp_path / "img.ppm", n=8)
        rc = main(["project-spectrum", "--exemplar", ex, "--image", img,
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "ValueError"


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        rc = main(["selftest"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)
