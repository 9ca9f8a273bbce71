"""End-to-end command line behavior: exit codes, files written, JSON errors."""

import argparse
import csv
import ctypes
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import shutil
import struct
import subprocess
import sys
import types
import warnings
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import texsynth
from texsynth import cli, selftest, synth
from texsynth.cli import RunConfig, main
from texsynth.ggd import LOG_ZERO_SENTINEL
from texsynth.imagecore import Image, as_array, read_image, write_image
from texsynth.net import LayerSpec, random_weights, save_weights, vgg_mini


def smooth_rgb(n=16, phase=0.0):
    y, x = np.mgrid[0:n, 0:n].astype(float)
    r = 0.5 + 0.3 * np.sin(2 * np.pi * x / 8 + phase) * np.cos(2 * np.pi * y / 8)
    g = 0.5 + 0.3 * np.cos(2 * np.pi * (x + y) / 8 + phase)
    b = 0.5 + 0.3 * np.sin(2 * np.pi * y / 8 + phase)
    return Image(np.stack([r, g, b], axis=2))


def save_rgb(path, n=16, phase=0.0):
    write_image(smooth_rgb(n, phase), path, bits=16)
    return str(path)


def forbid_reads(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "read_image", fail)
    monkeypatch.setattr(cli.netmod, "load_weights", fail)
    monkeypatch.setattr(cli.bradley_terry, "load_duels", fail)


def forbid_synthesis(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(synth, "synth_multiscale", fail)


def blas_env(threads=None):
    """Environment for a `python -m texsynth.cli` subprocess at a BLAS thread count,
    or at the one this process was given when `threads` is None."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}),
            "PYTHONPATH": path}


def write_session(path, net=None):
    """A minimal session file: replay reads its options, then the exemplar."""
    session = synth.SynthSession(
        exemplar={"path": "ex.ppm", "sha256": ""}, variant="gram", beta=1.0, K=0, seed=0,
        net=net, layer_weight=1.0, lbfgs={"max_iter": 3, "history": 10, "grad_tol": 0.0},
        scales=[], output={"path": "x.ppm", "bits": 16, "sha256": ""}, environment={})
    Path(path).write_text(session.to_json())
    return str(path)


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

    def test_a_weight_whose_gradient_squares_overflow_runs_to_its_cap(self, tmp_path):
        # |g|^2 overflows from about --layer-weight 1e160; the run used to stop
        # at iteration 0 on a failed line search and write the noise start
        ex = save_rgb(tmp_path / "ex.ppm", n=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["synth", "--exemplar", ex, "--out", str(tmp_path / "out.ppm"),
                       "--variant", "gram", "--iterations", "4", "--seed", "0",
                       "--layer-weight", "1e200"])
        assert rc == 0
        session = json.loads((tmp_path / "out.session.json").read_text())
        trace = session["scales"][0]["trace"]
        assert (trace["termination"], trace["iterations"]) == ("max_iter", 4)
        assert trace["values"][-1] < trace["values"][0]

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

    @pytest.mark.parametrize("copy", [True, False], ids=["copy", "other-crc32"])
    def test_replay_compares_weights_by_crc32_not_path(self, tmp_path, capsys, monkeypatch,
                                                       copy):
        weights = tmp_path / "w.bin"
        save_weights(random_weights(vgg_mini(3), seed=5), weights)
        rc, _, out = self.run_tiny(tmp_path, extra=["--net-weights", str(weights)])
        assert rc == 0
        elsewhere = tmp_path / "w2.bin"
        if copy:
            shutil.copyfile(weights, elsewhere)
        else:
            save_weights(random_weights(vgg_mini(3), seed=6), elsewhere)
            assert elsewhere.read_bytes()[-4:] != weights.read_bytes()[-4:]  # the crc32
            forbid_synthesis(monkeypatch)
        capsys.readouterr()
        rc = main(["synth", "--replay", str(tmp_path / "out.session.json"),
                   "--out", str(tmp_path / "again.ppm"), "--net-weights", str(elsewhere)])
        if copy:
            assert rc == 0
            assert (tmp_path / "again.ppm").read_bytes() == out.read_bytes()
        else:
            assert rc == 2
            assert "do not match the session" in stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("layers, message", [
        ([], "at least one layer"),
        ([("conv1_1", 0, 3, 0)], "malformed weights file"),
    ], ids=["no-layers", "zero-out-channels"])
    def test_malformed_weights_file_exits_2_before_synthesis(self, tmp_path, capsys,
                                                            monkeypatch, layers, message):
        # a valid checksum over a layer table with no payload (no conv has weights)
        body = b"NTWF" + struct.pack("<II", 1, len(layers)) + b"".join(
            struct.pack("<BH", code, len(name)) + name.encode()
            + struct.pack("<II", in_ch, out_ch)
            for name, code, in_ch, out_ch in layers
        )
        weights = tmp_path / "weights.bin"
        weights.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        forbid_synthesis(monkeypatch)
        rc, _, _ = self.run_tiny(tmp_path, extra=["--net-weights", str(weights)])
        assert rc == 2
        assert message in stderr_payload(capsys)["message"]

    def test_replay_of_an_8_bit_run_writes_the_same_bytes(self, tmp_path):
        rc, _, out = self.run_tiny(tmp_path, extra=["--bits", "8"])
        assert rc == 0
        assert self.replay(tmp_path) == 0
        assert (tmp_path / "again.ppm").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("net_weights", [False, True])
    def test_replay_from_another_directory(self, tmp_path, monkeypatch, net_weights):
        monkeypatch.chdir(tmp_path)
        save_rgb("ex.ppm")
        extra = []
        if net_weights:
            save_weights(random_weights(vgg_mini(3), seed=5), "weights.bin")
            extra = ["--net-weights", "weights.bin"]
        rc = main(["synth", "--exemplar", "ex.ppm", "--out", "out.ppm", "--variant", "gram",
                   "--iterations", "3", "--seed", "0"] + extra)
        assert rc == 0
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert main(["synth", "--replay", "../out.session.json", "--out", "again.ppm"]) == 0
        again = (tmp_path / "sub" / "again.ppm").read_bytes()
        assert again == (tmp_path / "out.ppm").read_bytes()

    @pytest.mark.parametrize("age", ["output-without-bits", "relative-paths",
                                     "line-search-settings"])
    def test_replay_of_an_older_session_exits_2_before_any_read(self, tmp_path, capsys,
                                                                monkeypatch, age):
        monkeypatch.chdir(tmp_path)
        save_rgb("ex.ppm")
        save_weights(random_weights(vgg_mini(3), seed=5), "weights.bin")
        rc = main(["synth", "--exemplar", "ex.ppm", "--out", "out.ppm", "--variant", "gram",
                   "--iterations", "3", "--net-weights", "weights.bin"])
        assert rc == 0
        session = json.loads(Path("out.session.json").read_text())
        # no session written before the replay check records these two
        del session["environment"], session["output"]["sha256"]
        if age == "output-without-bits":  # sessions from before bits was recorded
            del session["output"]["bits"]
        elif age == "line-search-settings":  # sessions from before these were constants
            session["lbfgs"].update(c1=1e-4, c2=0.9, step_init=1.0)
        else:  # sessions from before paths were made absolute
            session["exemplar"]["path"] = "ex.ppm"
            net = session["net"]
            net["provenance"] = net["provenance"].replace(os.path.abspath("weights.bin"),
                                                          "weights.bin")
            assert net["provenance"].startswith("file(weights.bin, crc32=")
        Path("out.session.json").write_text(json.dumps(session))
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        forbid_reads(monkeypatch)
        assert main(["synth", "--replay", "out.session.json", "--out", "again.ppm"]) == 2
        assert "not a session file" in stderr_payload(capsys)["message"]
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("part, key", [(None, "environment"), ("output", "sha256"),
                                           ("output", "bits")],
                             ids=["environment", "output.sha256", "output.bits"])
    def test_replay_of_a_session_without_a_replay_record_exits_2_before_any_read(
            self, tmp_path, capsys, monkeypatch, part, key):
        assert self.run_tiny(tmp_path)[0] == 0
        session_path = tmp_path / "out.session.json"
        session = json.loads(session_path.read_text())
        del (session[part] if part else session)[key]
        session_path.write_text(json.dumps(session))
        capsys.readouterr()
        forbid_reads(monkeypatch)
        assert self.replay(tmp_path) == 2
        message = stderr_payload(capsys)["message"]
        assert message.startswith(f"{session_path}: not a session file (")
        assert repr(key) in message

    @pytest.mark.parametrize("extra", [["--iterations", "5"], ["--bits", "8"],
                                       ["--seed", "0"], ["--config", "cfg.json"]],
                             ids=["iterations", "bits", "seed", "config"])
    def test_replay_with_a_non_path_flag_exits_2_before_any_read(self, tmp_path, capsys,
                                                                monkeypatch, extra):
        assert self.run_tiny(tmp_path)[0] == 0
        (tmp_path / "cfg.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        forbid_reads(monkeypatch)

        def fail(path):
            raise AssertionError("the session was read")

        monkeypatch.setattr(cli, "_config_from_session", fail)
        assert main(["synth", "--replay", "out.session.json", "--out", "again.ppm"]
                    + extra) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "CliError"
        assert payload["message"].startswith("--replay takes only the path options ")
        assert payload["message"].endswith(f"not [{extra[0][2:]!r}]")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("edit", ["digest", "digest-and-numpy", "digest-without-blas",
                                      "max-iter"])
    def test_replay_that_writes_other_bytes_exits_1(self, tmp_path, capsys, edit):
        rc, _, out = self.run_tiny(tmp_path)
        assert rc == 0
        session_path = tmp_path / "out.session.json"
        session = json.loads(session_path.read_text())
        assert session["output"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        if edit == "max-iter":
            session["lbfgs"]["max_iter"] = 2
        else:
            session["output"]["sha256"] = "0" * 64
        if edit == "digest-and-numpy":
            session["environment"]["numpy"] = "0.1"
        if edit == "digest-without-blas":  # as a session from before the field was recorded
            del session["environment"]["blas"]
        session_path.write_text(json.dumps(session))
        capsys.readouterr()
        assert self.replay(tmp_path) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "ReplayMismatch"
        again = (tmp_path / "again.ppm").read_bytes()
        assert (again == out.read_bytes()) == (edit != "max-iter")
        written, recorded = hashlib.sha256(again).hexdigest(), session["output"]["sha256"]
        differ = {"digest-and-numpy": f"numpy 0.1 -> {np.__version__}",
                  "digest-without-blas": f"blas None -> {synth.blas_kernel()}"}.get(edit, "none")
        assert payload["message"] == (
            f"{tmp_path / 'again.ppm'} has sha256 {written}, not the recorded {recorded}; "
            f"environment fields that differ: {differ}")
        again_session = json.loads((tmp_path / "again.session.json").read_text())
        assert again_session["output"]["sha256"] == written

    @pytest.mark.parametrize("extra", [
        ["--variant", "gram+spectrum+msinit", "--K", "1", "--iterations", "60"],
        ["--variant", "gram+spectrum+autocorr", "--iterations", "30"],
    ], ids=["msinit", "autocorr"])
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, extra):
        rng = np.random.default_rng(64)
        write_image(Image(rng.random((64, 64, 3))), tmp_path / "ex.ppm", bits=16)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            subprocess.run(
                [sys.executable, "-m", "texsynth.cli", "synth",
                 "--exemplar", str(tmp_path / "ex.ppm"), "--out", str(out / "s.ppm"),
                 "--curve", str(out / "curve.csv"), "--seed", "1"] + extra,
                env=blas_env(threads), check=True, timeout=300, capture_output=True,
            )
            session = (out / "s.session.json").read_text().replace(str(out), "OUT")
            outputs.append(((out / "s.ppm").read_bytes(), (out / "curve.csv").read_bytes(),
                            session))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs sched_setaffinity and 2 CPUs")
    @pytest.mark.parametrize("extra", [
        ["--variant", "gram+autocorr+msinit", "--K", "1", "--pool", "max", "--iterations", "8"],
        ["--variant", "gram+spectrum+autocorr", "--iterations", "6"],
    ], ids=["msinit", "autocorr"])
    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, extra):
        # 128^2 is above losses.POOL_MIN_PIXELS, and the msinit run's 64^2 level below
        rng = np.random.default_rng(128)
        write_image(Image(rng.random((128, 128, 3))), tmp_path / "ex.ppm", bits=16)
        cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, restrict in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            out = tmp_path / name
            out.mkdir()
            subprocess.run(
                [sys.executable, "-m", "texsynth.cli", "synth",
                 "--exemplar", str(tmp_path / "ex.ppm"), "--out", str(out / "s.ppm"),
                 "--curve", str(out / "curve.csv"), "--seed", "1"] + extra,
                env=blas_env(), preexec_fn=restrict, check=True, timeout=300,
                capture_output=True,
            )
            session = (out / "s.session.json").read_text().replace(str(out), "OUT")
            outputs.append(((out / "s.ppm").read_bytes(), (out / "curve.csv").read_bytes(),
                            session))
        assert outputs[0] == outputs[1]

    def test_a_replay_under_another_blas_kernel_exits_1_naming_it(self, tmp_path):
        config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
        if "DYNAMIC_ARCH" not in config.get("blas", {}).get("openblas configuration", ""):
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
        recorded = synth.blas_kernel()
        library, _, core = recorded.rpartition(" ")
        other = "Sandybridge" if core == "Haswell" else "Haswell"
        rng = np.random.default_rng(64)
        write_image(Image(rng.random((64, 64, 3))), tmp_path / "ex.ppm", bits=16)
        cli_argv = [sys.executable, "-m", "texsynth.cli", "synth"]
        subprocess.run(cli_argv + ["--exemplar", str(tmp_path / "ex.ppm"),
                                   "--out", str(tmp_path / "s.ppm"), "--seed", "1",
                                   "--variant", "gram+spectrum+msinit", "--K", "1",
                                   "--iterations", "200"],
                       env=blas_env("1"), check=True, timeout=300, capture_output=True)
        session = json.loads((tmp_path / "s.session.json").read_text())
        assert session["environment"]["blas"] == recorded
        replay = subprocess.run(
            cli_argv + ["--replay", str(tmp_path / "s.session.json"),
                        "--out", str(tmp_path / "again.ppm")],
            env={**blas_env("1"), "OPENBLAS_CORETYPE": other}, timeout=300,
            capture_output=True, text=True)
        assert replay.returncode == 1
        payload = json.loads(replay.stderr)
        assert payload["error"] == "ReplayMismatch"
        assert payload["message"].endswith(
            f"environment fields that differ: blas {recorded} -> {library} {other}")

    def test_replay_rejects_a_non_session_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        rc = main(["synth", "--replay", str(bogus), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "not a session file" in stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("malform", [
        lambda s: {**s, "lbfgs": {}},
        lambda s: {**s, "net": {k: v for k, v in s["net"].items() if k != "provenance"}},
        lambda s: [s],
        lambda s: {**s, "exemplar": s["exemplar"]["path"]},
        lambda s: {**s, "variant": None},
        lambda s: {**s, "seed": 0.5},
        lambda s: {**s, "environment": list(s["environment"])},
        lambda s: {**s, "output": {**s["output"], "sha256": None}},
    ], ids=["empty-lbfgs", "net-without-provenance", "top-level-list",
            "exemplar-as-string", "null-variant", "float-seed", "environment-as-list",
            "null-output-sha256"])
    def test_replay_of_a_malformed_session_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   malform):
        rc, _, _ = self.run_tiny(tmp_path)
        assert rc == 0
        session_path = tmp_path / "out.session.json"
        session = json.loads(session_path.read_text())
        session_path.write_text(json.dumps(malform(session)))
        capsys.readouterr()
        forbid_synthesis(monkeypatch)
        assert self.replay(tmp_path) == 2
        assert stderr_payload(capsys)["error"] == "CliError"

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

    # where a session records each option the check covers
    SESSION_KEYS = {"iterations": ("lbfgs", "max_iter"), "history": ("lbfgs", "history"),
                    "grad_tol": ("lbfgs", "grad_tol"), "beta": (None, "beta"),
                    "layer_weight": (None, "layer_weight"), "bits": ("output", "bits"),
                    "pool": ("net", "pool"), "seed": (None, "seed"),
                    "variant": (None, "variant"), "K": (None, "K")}
    # how the message starts where it is not "<name> must be "
    MESSAGE_STARTS = {"variant": "unknown variant tokens: ['bogus']"}

    @pytest.mark.parametrize("source", ["flag", "config", "session"])
    @pytest.mark.parametrize("name, value", [
        ("iterations", -3), ("history", -2), ("grad_tol", -1.0), ("grad_tol", math.nan),
        ("beta", math.nan), ("beta", math.inf), ("beta", -1.0), ("layer_weight", -math.inf),
        ("layer_weight", -1.0), ("bits", 12), ("pool", "min"), ("seed", -1),
        ("variant", "gram+bogus"), ("K", -1),
    ])
    def test_an_unusable_option_exits_2_before_the_exemplar_is_read(
            self, tmp_path, capsys, monkeypatch, source, name, value):
        ex = save_rgb(tmp_path / "ex.ppm")
        argv = ["synth", "--out", str(tmp_path / "x.ppm")]
        if source == "flag":
            argv += ["--exemplar", ex, f"--{name.replace('_', '-')}={value}"]
        elif source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"exemplar": ex, "variant": "gram", name: value}))
            argv += ["--config", str(cfg)]
        else:
            assert self.run_tiny(tmp_path)[0] == 0
            session_path = tmp_path / "out.session.json"
            session = json.loads(session_path.read_text())
            part, key = self.SESSION_KEYS[name]
            (session[part] if part else session)[key] = value
            session_path.write_text(json.dumps(session))
            argv += ["--replay", str(session_path)]
        capsys.readouterr()

        def fail(path):
            raise AssertionError("exemplar read")

        monkeypatch.setattr(cli, "read_image", fail)
        assert main(argv) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(self.MESSAGE_STARTS.get(name, f"{name} must be "))

    @pytest.mark.parametrize("source", ["flag", "config", "session"])
    @pytest.mark.parametrize("variant, zeros, named", [
        ("spectrum", {"beta": 0.0}, "beta is 0"),
        ("gram", {"layer_weight": 0.0}, "layer_weight is 0"),
        ("gram+spectrum", {"beta": 0.0, "layer_weight": 0.0}, "beta is 0 and layer_weight is 0"),
    ])
    def test_a_variant_whose_active_terms_all_weigh_0_exits_2_before_the_exemplar_is_read(
            self, tmp_path, capsys, monkeypatch, source, variant, zeros, named):
        ex = save_rgb(tmp_path / "ex.ppm")
        values = {"variant": variant, **zeros}
        argv = ["synth", "--out", str(tmp_path / "x.ppm")]
        if source == "flag":
            argv += ["--exemplar", ex] + [f"--{name.replace('_', '-')}={value}"
                                          for name, value in values.items()]
        elif source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"exemplar": ex, **values}))
            argv += ["--config", str(cfg)]
        else:
            assert self.run_tiny(tmp_path)[0] == 0
            session_path = tmp_path / "out.session.json"
            session_path.write_text(json.dumps({**json.loads(session_path.read_text()),
                                                **values}))
            argv += ["--replay", str(session_path)]
        capsys.readouterr()
        forbid_reads(monkeypatch)
        assert main(argv) == 2
        assert stderr_payload(capsys) == {
            "error": "CliError",
            "message": f"variant {variant!r} has no term of nonzero weight: {named}"}
        assert not (tmp_path / "x.ppm").exists()

    @pytest.mark.parametrize("variant, zeros", [
        ("gram+spectrum", {"beta": 0.0}), ("gram+spectrum", {"layer_weight": 0.0}),
        ("spectrum", {"layer_weight": 0.0}), ("gram+autocorr", {"beta": 0.0}),
    ])
    def test_a_variant_with_one_term_of_nonzero_weight_is_accepted(self, variant, zeros):
        assert RunConfig(variant=variant, **zeros).method_variant.to_string() == variant

    @pytest.mark.parametrize("option", fields(RunConfig), ids=lambda f: f.name)
    def test_every_option_is_a_flag_and_a_config_key(self, tmp_path, capsys, option):
        sample = {"bits": 8, "pool": "max", "variant": "spectrum"}.get(option.name)
        if sample is None:
            default = option.default
            sample = "x" if default is None or isinstance(default, str) else default * 2 + 1
        flag = "--" + option.name.replace("_", "-")
        from_flag, _ = cli._config_from_args(
            cli.build_parser().parse_args(["synth", flag, str(sample)]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option.name: sample}))
        from_config, _ = cli._config_from_args(
            cli.build_parser().parse_args(["synth", "--config", str(cfg)]))
        assert getattr(from_flag, option.name) == getattr(from_config, option.name) == sample
        assert sample != option.default
        cfg.write_text(json.dumps({option.name: [sample]}))
        assert main(["synth", "--config", str(cfg)]) == 2
        assert f"bad type for key {option.name!r}" in stderr_payload(capsys)["message"]

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

    def test_null_config_value_without_a_null_default_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": None}))
        rc = main(["synth", "--config", str(cfg)])
        assert rc == 2
        assert "bad type for key 'variant'" in stderr_payload(capsys)["message"]

    def test_a_null_path_in_a_config_leaves_the_option_unset(self, tmp_path):
        ex = save_rgb(tmp_path / "ex.ppm")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exemplar": ex, "out": str(tmp_path / "x.ppm"),
                                   "session": None, "curve": None, "variant": "gram",
                                   "iterations": 3}))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "ex.ppm", "x.ppm", "x.session.json"]

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

    @pytest.mark.parametrize("paths, clash", [
        ({"out": "a.ppm", "session": "a.ppm"}, "--session"),
        ({"out": "a.ppm", "curve": "a.ppm"}, "--curve"),
        ({"out": "a.ppm", "session": "s.json", "curve": "s.json"}, "--curve"),
        ({"out": "ex.ppm"}, "--out"),
        ({"out": "link.ppm"}, "--out"),  # a symlink to the exemplar
        ({"out": "a.ppm", "curve": "ex.ppm"}, "--curve"),
        ({"out": "a.ppm", "session": "w.bin"}, "--session"),
        ({"config": "c.json", "out": "c.json"}, "--out"),
        ({"config": "c.json", "out": "a.ppm", "session": "c.json"}, "--session"),
        ({"config": "c.json", "out": "a.ppm", "curve": "c.json"}, "--curve"),
        ({"replay": "r.session.json", "out": "r.ppm"}, "--session"),
        ({"replay": "r.session.json", "out": "a.ppm", "session": "r.session.json"},
         "--session"),
        ({"out": "-", "curve": "-"}, "--curve"),  # `-` is a file here, not stdout
    ], ids=["session-is-out", "curve-is-out", "curve-is-session", "out-is-exemplar",
            "out-links-to-exemplar", "curve-is-exemplar", "session-is-weights",
            "out-is-config", "session-is-config", "curve-is-config",
            "default-session-is-replayed", "session-is-replayed", "curve-and-out-are-dash"])
    def test_an_output_that_is_an_input_or_another_output_exits_2_before_any_read(
            self, tmp_path, capsys, monkeypatch, paths, clash):
        ex = save_rgb(tmp_path / "ex.ppm")
        (tmp_path / "link.ppm").symlink_to(ex)
        weights = tmp_path / "w.bin"
        save_weights(random_weights(vgg_mini(3), seed=5), weights)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"variant": "gram", "iterations": 3}))
        session = Path(write_session(tmp_path / "r.session.json"))
        before = {path: path.read_bytes() for path in (Path(ex), weights, config, session)}
        monkeypatch.chdir(tmp_path)
        forbid_reads(monkeypatch)
        argv = ["synth", "--exemplar", "ex.ppm", "--net-weights", "w.bin"]
        for flag, path in paths.items():
            argv += [f"--{flag}", path]
        assert main(argv) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(f"{clash} ")
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(os.listdir(tmp_path)) == ["c.json", "ex.ppm", "link.ppm",
                                                "r.session.json", "w.bin"]

    def test_weights_without_the_default_statistics_layers_are_named(self, tmp_path, capsys):
        specs = (
            LayerSpec("c1", "conv3x3", 3, 4),
            LayerSpec("r1", "relu", 4, 4),
            LayerSpec("p1", "pool2", 4, 4),
        )
        weights = tmp_path / "w.bin"
        save_weights(random_weights(specs, seed=1), weights)
        ex = save_rgb(tmp_path / "ex.ppm", n=64)
        rc = main(["synth", "--exemplar", ex, "--out", str(tmp_path / "x.ppm"),
                   "--net-weights", str(weights), "--variant", "gram"])
        assert rc == 2
        message = stderr_payload(capsys)["message"]
        assert message == ("the network has none of the default statistics layers "
                           "['conv1_1', 'pool1', 'pool2', 'pool3']")

    def test_weights_for_another_channel_count_exit_2_before_synthesis(
            self, tmp_path, capsys, monkeypatch):
        weights = tmp_path / "w.bin"
        save_weights(random_weights(vgg_mini(1), seed=1), weights)
        forbid_synthesis(monkeypatch)
        rc = main(["synth", "--exemplar", save_rgb(tmp_path / "ex.ppm"),
                   "--out", str(tmp_path / "x.ppm"), "--net-weights", str(weights),
                   "--variant", "gram"])
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload == {"error": "CliError",
                           "message": "weights expect 1-channel input, exemplar has 3"}
        assert not (tmp_path / "x.ppm").exists()

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
            "--image-id", "tex7",
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

    def test_maps_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        rng = np.random.default_rng(32)
        write_image(Image(rng.random((32, 32, 3))), tmp_path / "ex.ppm", bits=16)
        write_image(Image(rng.random((32, 32, 3))), tmp_path / "s.ppm", bits=16)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "texsynth.cli", "eval-ds",
                 "--exemplar", str(tmp_path / "ex.ppm"), "--synth", str(tmp_path / "s.ppm"),
                 "--out", str(out / "ds.csv"), "--disp-dir", str(out)],
                env=blas_env(threads), check=True, timeout=120,
            )
            outputs.append(((out / "ds.csv").read_bytes(), (out / "s.disp.ppm").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_synth_file_exits_2(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm")
        rc = main(["eval-ds", "--exemplar", ex, "--synth", str(tmp_path / "no.ppm")])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "FileNotFoundError"

    def test_a_synth_with_a_sample_above_maxval_exits_2_naming_it(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm")
        bad = tmp_path / "over.ppm"
        bad.write_bytes(b"P6\n16 16\n15\n" + bytes([200]) + bytes(16 * 16 * 3 - 1))
        rc = main(["eval-ds", "--exemplar", ex, "--synth", str(bad)])
        assert rc == 2
        assert stderr_payload(capsys) == {"error": "RasterFormatError",
                                          "message": f"sample 200 above maxval 15 in {bad}"}

    def test_a_synth_of_zero_width_exits_2_naming_it(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm")
        bad = tmp_path / "empty.ppm"
        bad.write_bytes(b"P6\n0 16\n255\n")
        rc = main(["eval-ds", "--exemplar", ex, "--synth", str(bad)])
        assert rc == 2
        assert stderr_payload(capsys) == {"error": "RasterFormatError",
                                          "message": f"bad dimensions 0x16 in {bad}"}

    @pytest.mark.parametrize("bad", ["tiny-synth", "gray-synth", "tiny-exemplar"])
    def test_an_image_the_search_cannot_take_exits_2_naming_the_file(
            self, tmp_path, capsys, bad):
        # a bad second synth fails after the first has scored
        ex = save_rgb(tmp_path / "ex.ppm")
        synths = [save_rgb(tmp_path / "ok.ppm", phase=1.0)]
        if bad == "tiny-synth":
            culprit = save_rgb(tmp_path / "tiny.ppm", n=3)
            synths.append(culprit)
            message = "patch size exceeds image dimensions"
        elif bad == "gray-synth":
            culprit = str(tmp_path / "gray.pgm")
            write_image(Image(as_array(smooth_rgb()).mean(axis=2)), culprit)
            synths.append(culprit)
            message = "channel counts differ"
        else:
            ex = culprit = save_rgb(tmp_path / "small.ppm", n=3)
            message = "patch size exceeds image dimensions"
        out = tmp_path / "m.csv"
        rc = main(["eval-ds", "--exemplar", ex, "--synth", *synths, "--out", str(out),
                   "--disp-dir", str(tmp_path / "maps")])
        assert rc == 2
        assert stderr_payload(capsys) == {"error": "InputError",
                                          "message": f"{culprit}: {message}"}
        assert not out.exists() and not (tmp_path / "maps").exists()


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

    @pytest.mark.parametrize("bad", ["ref", "s1"])
    def test_a_size_that_cannot_take_the_scales_exits_2_naming_the_file(
            self, tmp_path, capsys, bad):
        # 24x16 takes 3 scales, not 4; a bad s1 fails after s0 has scored
        rng = np.random.default_rng(7)
        paths = {name: tmp_path / f"{name}.pgm" for name in ("ref", "s0", "s1", "s2")}
        for name, path in paths.items():
            shape = (16, 24) if name == bad else (32, 32)
            write_image(Image(rng.random(shape)), path, bits=16)
        rc = main(["eval-klw", "--ref", str(paths["ref"]), "--scales", "4",
                   "--synth", *(str(paths[f"s{i}"]) for i in range(3)),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "WaveletScaleError"
        assert payload["message"] == (f"{paths[bad]}: 16x24 image cannot support 4 scales: "
                                      "dims must be divisible by 2**4")
        assert not (tmp_path / "m.csv").exists()

    def test_no_scipy_module_loads(self, tmp_path):
        # numpy is the only runtime dependency; a fresh interpreter shows what loads
        rng = np.random.default_rng(4)
        for name in ("ref", "s"):
            write_image(Image(rng.random((64, 64))), tmp_path / f"{name}.pgm", bits=16)
        argv = ["eval-klw", "--ref", str(tmp_path / "ref.pgm"), "--synth",
                str(tmp_path / "s.pgm"), "--scales", "2", "--out", str(tmp_path / "m.csv")]
        code = ("import sys, texsynth.cli\n"
                f"assert texsynth.cli.main({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=blas_env("1"), check=True,
                                timeout=120, capture_output=True, text=True)
        assert result.stdout == "[]\n"
        assert (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("flat", ["ref", "synth"])
    def test_a_constant_image_exits_2_naming_it(self, tmp_path, capsys, flat):
        # a constant image has zero-variance subbands: no GGD fits them
        rng = np.random.default_rng(3)
        paths = {"ref": tmp_path / "ref.pgm", "synth": tmp_path / "synth.pgm"}
        for role, path in paths.items():
            data = np.full((64, 64), 0.5) if role == flat else rng.random((64, 64))
            write_image(Image(data), path, bits=16)
        rc = main(["eval-klw", "--ref", str(paths["ref"]), "--synth", str(paths["synth"]),
                   "--scales", "2", "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "DegenerateSample"
        assert payload["message"].startswith(f"{paths[flat]}: ")
        assert not (tmp_path / "m.csv").exists()


    def test_three_synths_write_the_rows_of_three_single_calls(self, tmp_path):
        # the reference is decomposed once per call; each row must not notice
        rng = np.random.default_rng(5)
        ref = tmp_path / "ref.ppm"
        write_image(Image(rng.random((64, 64, 3))), ref, bits=16)
        synths = []
        for i in range(3):
            synths.append(str(tmp_path / f"s{i}.pgm"))
            write_image(Image(rng.random((64, 64)) ** (i + 1)), synths[-1], bits=16)
        args = ["eval-klw", "--ref", str(ref), "--scales", "3", "--image-id", "t"]
        assert main([*args, "--synth", *synths, "--out", str(tmp_path / "all.csv")]) == 0
        header, *rows = (tmp_path / "all.csv").read_bytes().splitlines(keepends=True)
        single = []
        for i, path in enumerate(synths):
            out = tmp_path / f"one{i}.csv"
            assert main([*args, "--synth", path, "--out", str(out)]) == 0
            one_header, *one_rows = out.read_bytes().splitlines(keepends=True)
            assert one_header == header and len(one_rows) == 2
            single += one_rows
        assert rows == single

    @pytest.mark.parametrize("flat", ["ref", "s1"])
    def test_a_constant_subband_among_three_synths_exits_2_naming_it(self, tmp_path, capsys,
                                                                      flat):
        # a constant image has constant subbands: a flat ref fails the first
        # pair, a flat s1 the second, after s0 has scored
        rng = np.random.default_rng(6)
        paths = {name: tmp_path / f"{name}.pgm" for name in ("ref", "s0", "s1", "s2")}
        for name, path in paths.items():
            data = np.full((64, 64), 0.5) if name == flat else rng.random((64, 64))
            write_image(Image(data), path, bits=16)
        rc = main(["eval-klw", "--ref", str(paths["ref"]), "--scales", "2",
                   "--synth", *(str(paths[f"s{i}"]) for i in range(3)),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "DegenerateSample"
        assert payload["message"].startswith(f"{paths[flat]}: wavelet subband ")
        assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["eval-ds", "eval-klw"])
def test_repeated_method_stems_exit_2_before_any_search(tmp_path, capsys, monkeypatch,
                                                        command):
    # a/x.ppm and b/x.ppm would both be method "x": two rows that cannot be
    # told apart, and the second x.disp.ppm would overwrite the first
    ex = save_rgb(tmp_path / "ex.ppm")
    synths = []
    for i, sub in enumerate("ab"):
        (tmp_path / sub).mkdir()
        synths.append(save_rgb(tmp_path / sub / "x.ppm", phase=float(i)))

    def fail(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(cli.displacement, "displacement_map", fail)
    monkeypatch.setattr(cli.ggd, "wavelet_details", fail)
    monkeypatch.setattr(cli.ggd, "details_distance_klw", fail)
    if command == "eval-ds":
        args = ["--exemplar", ex, "--disp-dir", str(tmp_path / "maps")]
    else:
        args = ["--ref", ex, "--scales", "2"]
    rc = main([command, *args, "--synth", *synths, "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "CliError" and "['x']" in payload["message"]
    assert not (tmp_path / "maps").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command, clash", [
    ("eval-ds", "exemplar"), ("eval-ds", "synth"), ("eval-klw", "exemplar"),
    ("eval-klw", "synth"), ("project-spectrum", "exemplar"), ("project-spectrum", "image"),
    ("bt-fit", "duels"), ("bt-fit", "classes"),
])
def test_an_eval_out_that_is_an_input_exits_2_before_any_read(tmp_path, capsys, monkeypatch,
                                                             command, clash):
    ex = save_rgb(tmp_path / "ex.ppm")
    synths = [save_rgb(tmp_path / "a.ppm", phase=1.0), save_rgb(tmp_path / "b.ppm", phase=2.0)]
    duels = write_duels(tmp_path / "duels.csv", duel_rows())
    classes = tmp_path / "classes.csv"
    classes.write_text("image_id,class\nimg1,regular\nimg2,irregular\n")
    before = {path: Path(path).read_bytes() for path in [ex, *synths, duels, classes]}

    def fail(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "read_image", fail)
    monkeypatch.setattr(cli.bradley_terry, "load_duels", fail)
    monkeypatch.setattr(cli, "_load_classes", fail)
    out = {"exemplar": ex, "synth": synths[1], "image": synths[0], "duels": duels,
           "classes": str(classes)}[clash]
    args = {
        "eval-ds": ["--exemplar", ex, "--synth", *synths],
        "eval-klw": ["--ref", ex, "--scales", "2", "--synth", *synths],
        "project-spectrum": ["--exemplar", ex, "--image", synths[0]],
        "bt-fit": ["--duels", duels, "--classes", str(classes),
                   "--filter", "image-class=regular"],
    }[command]
    rc = main([command, *args, "--out", out])
    assert rc == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "CliError"
    assert payload["message"].startswith(f"--out {out} is the same file as ")
    assert {path: Path(path).read_bytes() for path in before} == before


def test_a_displacement_map_that_is_an_input_exits_2_before_any_read(tmp_path, capsys,
                                                                    monkeypatch):
    # method a's map, maps/a.disp.ppm, would overwrite the exemplar
    (tmp_path / "maps").mkdir()
    ex = save_rgb(tmp_path / "maps" / "a.disp.ppm")
    before = Path(ex).read_bytes()

    def fail(path):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "read_image", fail)
    rc = main(["eval-ds", "--exemplar", ex, "--synth", save_rgb(tmp_path / "a.ppm", phase=1.0),
               "--disp-dir", str(tmp_path / "maps"), "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "CliError"
    assert payload["message"] == (f"--disp-dir {ex} is the same file as --exemplar, "
                                  "which it would overwrite")
    assert Path(ex).read_bytes() == before
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("case", ["synth-out", "synth-session", "synth-curve", "eval-ds",
                                  "eval-klw", "bt-fit", "project-spectrum"])
def test_an_output_in_a_missing_directory_exits_2_before_any_read(tmp_path, capsys,
                                                                  monkeypatch, case):
    ex = save_rgb(tmp_path / "ex.ppm")
    other = save_rgb(tmp_path / "a.ppm", phase=1.0)
    duels = write_duels(tmp_path / "duels.csv", duel_rows())
    out = str(tmp_path / "out.ppm")
    missing = str(tmp_path / "nodir" / "x")
    argv = {  # the output in the missing directory comes last
        "synth-out": ["synth", "--exemplar", ex, "--out", missing],  # default session too
        "synth-session": ["synth", "--exemplar", ex, "--out", out, "--session", missing],
        "synth-curve": ["synth", "--exemplar", ex, "--out", out, "--curve", missing],
        "eval-ds": ["eval-ds", "--exemplar", ex, "--synth", other,
                    "--disp-dir", str(tmp_path / "maps"), "--out", missing],
        "eval-klw": ["eval-klw", "--ref", ex, "--synth", other, "--out", missing],
        "bt-fit": ["bt-fit", "--duels", duels, "--out", missing],
        "project-spectrum": ["project-spectrum", "--exemplar", ex, "--image", other,
                             "--out", missing],
    }[case]
    before = sorted(tmp_path.iterdir())
    forbid_reads(monkeypatch)
    assert main(argv) == 2
    assert stderr_payload(capsys) == {
        "error": "CliError",
        "message": f"{argv[-2]} {missing}: {tmp_path / 'nodir'} is not an existing directory"}
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", ["synth-out", "synth-session", "synth-curve", "eval-ds",
                                  "eval-klw", "bt-fit", "project-spectrum"])
def test_an_output_that_is_a_directory_exits_2_before_any_read(tmp_path, capsys,
                                                               monkeypatch, case):
    ex = save_rgb(tmp_path / "ex.ppm")
    other = save_rgb(tmp_path / "a.ppm", phase=1.0)
    duels = write_duels(tmp_path / "duels.csv", duel_rows())
    out = str(tmp_path / "out.ppm")
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    argv = {  # the output that is a directory comes last
        "synth-out": ["synth", "--exemplar", ex, "--out", str(outdir)],
        "synth-session": ["synth", "--exemplar", ex, "--out", out, "--session", str(outdir)],
        "synth-curve": ["synth", "--exemplar", ex, "--out", out, "--curve", str(outdir)],
        "eval-ds": ["eval-ds", "--exemplar", ex, "--synth", other,
                    "--disp-dir", str(tmp_path / "maps"), "--out", str(outdir)],
        "eval-klw": ["eval-klw", "--ref", ex, "--synth", other, "--out", str(outdir)],
        "bt-fit": ["bt-fit", "--duels", duels, "--out", str(outdir)],
        "project-spectrum": ["project-spectrum", "--exemplar", ex, "--image", other,
                             "--out", str(outdir)],
    }[case]
    before = sorted(tmp_path.iterdir())
    forbid_reads(monkeypatch)
    forbid_synthesis(monkeypatch)
    assert main(argv) == 2
    assert stderr_payload(capsys) == {"error": "CliError",
                                      "message": f"{argv[-2]} {outdir} is a directory"}
    assert sorted(tmp_path.iterdir()) == before and not any(outdir.iterdir())


@pytest.mark.parametrize("case", ["is-a-file", "under-a-file"])
def test_a_disp_dir_that_cannot_be_a_directory_exits_2_before_any_read(tmp_path, capsys,
                                                                       monkeypatch, case):
    ex = save_rgb(tmp_path / "ex.ppm")
    other = save_rgb(tmp_path / "a.ppm", phase=1.0)
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    disp_dir = afile if case == "is-a-file" else afile / "maps"
    forbid_reads(monkeypatch)
    rc = main(["eval-ds", "--exemplar", ex, "--synth", other, "--disp-dir", str(disp_dir),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert stderr_payload(capsys) == {
        "error": "CliError",
        "message": f"--disp-dir {disp_dir / 'a.disp.ppm'}: {afile} is not an existing directory"}
    assert afile.read_text() == "not a directory"
    assert not (tmp_path / "m.csv").exists()


def test_a_missing_disp_dir_is_made_with_its_missing_parents(tmp_path):
    ex = save_rgb(tmp_path / "ex.ppm")
    maps = tmp_path / "new" / "maps"
    assert main(["eval-ds", "--exemplar", ex, "--synth", save_rgb(tmp_path / "a.ppm", phase=1.0),
                 "--disp-dir", str(maps), "--out", str(tmp_path / "m.csv")]) == 0
    assert read_image(maps / "a.disp.ppm").c == 3


@pytest.mark.parametrize("command", ["eval-ds", "eval-klw", "bt-fit"])
def test_a_text_out_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsysbinary,
                                                                   command):
    ex = save_rgb(tmp_path / "ex.ppm")
    synths = [save_rgb(tmp_path / "a.ppm", phase=1.0), save_rgb(tmp_path / "b.ppm", phase=2.0)]
    args = {
        "eval-ds": ["--exemplar", ex, "--synth", *synths],
        "eval-klw": ["--ref", ex, "--scales", "2", "--synth", *synths],
        "bt-fit": ["--duels", write_duels(tmp_path / "duels.csv", duel_rows())],
    }[command]
    assert main([command, *args, "--out", "-"]) == 0
    stdout = capsysbinary.readouterr().out
    assert main([command, *args, "--out", str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_bytes() == stdout
    # csv's \r\n row ends for the metrics, one \n after the JSON
    assert stdout.endswith(b"}\n" if command == "bt-fit" else b"\r\n")


def test_an_eval_out_of_dash_is_stdout_even_beside_a_file_named_dash(tmp_path, capsys,
                                                                     monkeypatch):
    ex = save_rgb(tmp_path / "ex.ppm")
    dash = Path(save_rgb(tmp_path / "-", phase=1.0))
    before = dash.read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(["eval-klw", "--ref", ex, "--scales", "2", "--synth", "-", "--out", "-"]) == 0
    rows = read_csv(capsys.readouterr().out)
    assert [row[:3] for row in rows[1:]] == [["ex", "-", "klw"], ["ex", "-", "klw_sum"]]
    assert dash.read_bytes() == before


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

    @pytest.mark.parametrize("key, first, second", [
        ("scale", "global", "local"), ("scale", "local", "local"),
        ("image-class", "irregular", "regular"),
    ])
    def test_a_filter_key_given_twice_exits_2_naming_both_values(self, tmp_path, capsys,
                                                                  monkeypatch, key, first,
                                                                  second):
        # before, the last value won: scale=global scale=local fitted the local duels
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        classes = tmp_path / "classes.csv"
        classes.write_text("image_id,class\nimg1,regular\nimg2,irregular\n")
        forbid_reads(monkeypatch)
        rc = main(["bt-fit", "--duels", duels, "--classes", str(classes),
                   "--filter", f"{key}={first}", "--filter", f"{key}={second}"])
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "CliError"
        assert payload["message"] == f"--filter {key} is given twice, as {first} and {second}"

    def test_the_filter_help_names_every_key_and_value(self, capsys):
        with pytest.raises(SystemExit):
            main(["bt-fit", "--help"])
        assert ("scale=global|local or image-class=regular|irregular, each key once"
                in " ".join(capsys.readouterr().out.split()))

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "duels.csv"
        path.write_text("method_a,method_b,winner\na,b,a\n")
        rc = main(["bt-fit", "--duels", str(path)])
        assert rc == 2
        assert "columns" in stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("filters", [[], ["--filter", "scale=global"]],
                             ids=["unfiltered", "filtered"])
    def test_a_short_duel_row_exits_2_naming_its_line(self, tmp_path, capsys, filters):
        rows = [["a", "b", "a", "img1", "global"], ["a", "b"], ["b", "a", "b", "img1", "global"]]
        duels = write_duels(tmp_path / "duels.csv", rows)
        rc = main(["bt-fit", "--duels", duels, *filters])
        assert rc == 2
        assert f"{duels}: duel CSV line 3 has 2 fields" in stderr_payload(capsys)["message"]

    def test_a_duel_column_named_twice_exits_2(self, tmp_path, capsys):
        path = tmp_path / "duels.csv"
        path.write_text("method_a,method_b,winner,image_id,scale,winner\n"
                        "a,b,a,img1,global,b\nb,a,a,img1,global,b\n")
        rc = main(["bt-fit", "--duels", str(path)])
        assert rc == 2
        assert "once" in stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("lines, wanted", [
        (["img1,regular", "img1,irregular"], "listed as both 'regular' and 'irregular'"),
        (["img1,regular", "img2"], "line 3 has 1 fields"),
        (["img1,regular,extra", "class,image_id"], "must name each of the columns"),
    ], ids=["two-classes", "no-class", "class-named-twice"])
    def test_a_bad_classes_row_exits_2(self, tmp_path, capsys, lines, wanted):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        classes = tmp_path / "classes.csv"
        header = "image_id,class,class" if wanted.startswith("must") else "image_id,class"
        classes.write_text("\n".join([header, *lines]) + "\n")
        rc = main(["bt-fit", "--duels", duels, "--classes", str(classes),
                   "--filter", "image-class=irregular"])
        assert rc == 2
        assert wanted in stderr_payload(capsys)["message"]

    def test_an_image_listed_twice_with_one_class_is_kept(self, tmp_path, capsys):
        duels = write_duels(tmp_path / "duels.csv", duel_rows())
        classes = tmp_path / "classes.csv"
        classes.write_text("image_id,class\nimg1,regular\n\nimg1,regular,x\nimg2,irregular\n")
        rc = main(["bt-fit", "--duels", duels, "--classes", str(classes),
                   "--filter", "image-class=regular"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n_duels"] == 15

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

    def test_a_group_that_won_every_duel_against_the_rest_exits_1(self, tmp_path, capsys):
        # a and b split their duels, as do c and d, but a and b beat c and d 20-0
        rows = [["a", "b", "a", "i", "g"]] * 3 + [["a", "b", "b", "i", "g"]] * 2
        rows += [["c", "d", "c", "i", "g"]] * 4 + [["c", "d", "d", "i", "g"]]
        rows += [[w, l, w, "i", "g"] for w in "ab" for l in "cd"] * 5
        duels = write_duels(tmp_path / "duels.csv", rows)
        out = tmp_path / "fit.json"
        rc = main(["bt-fit", "--duels", duels, "--out", str(out)])
        assert rc == 1
        assert stderr_payload(capsys) == {
            "error": "SeparationDivergence",
            "message": "methods ['c', 'd'] lost every duel against the rest; "
                       "strengths have no finite maximum"}
        assert not out.exists()


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

    def test_an_image_named_dash_is_a_file_its_out_would_overwrite(self, tmp_path, capsys,
                                                                    monkeypatch):
        save_rgb(tmp_path / "ex.ppm")
        dash = Path(save_rgb(tmp_path / "-", phase=1.0))
        before = dash.read_bytes()
        monkeypatch.chdir(tmp_path)
        forbid_reads(monkeypatch)
        rc = main(["project-spectrum", "--exemplar", "ex.ppm", "--image", "-", "--out", "-"])
        assert rc == 2
        assert stderr_payload(capsys) == {
            "error": "CliError",
            "message": "--out - is the same file as --image, which it would overwrite"}
        assert dash.read_bytes() == before

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        ex = save_rgb(tmp_path / "ex.ppm", n=16)
        img = save_rgb(tmp_path / "img.ppm", n=8)
        rc = main(["project-spectrum", "--exemplar", ex, "--image", img,
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert stderr_payload(capsys)["error"] == "InputError"

    @pytest.mark.parametrize("bad, shape", [("b.ppm", (24, 32, 3)), ("g.pgm", (32, 32, 1))],
                             ids=["other-size", "gray"])
    def test_an_image_of_another_shape_exits_2_naming_it(self, tmp_path, capsys, bad, shape):
        ex = save_rgb(tmp_path / "ex.ppm", n=32)
        img = tmp_path / bad
        write_image(Image(np.random.default_rng(0).random(shape)), img)
        out = tmp_path / "x.ppm"
        rc = main(["project-spectrum", "--exemplar", ex, "--image", str(img), "--out", str(out)])
        assert rc == 2
        assert stderr_payload(capsys) == {
            "error": "InputError",
            "message": f"{img}: image shape {shape} != target shape (32, 32, 3)"}
        assert not out.exists()


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        rc = main(["selftest"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(selftest.CHECKS)
        for line, (name, _) in zip(lines, selftest.CHECKS):
            assert line.startswith(f"PASS  {name}  (")


def bad_input_argv(tmp_path, case):
    """The command line of each input that is rejected by a check on user input."""
    ex = save_rgb(tmp_path / "ex.ppm")
    other = save_rgb(tmp_path / "a.ppm", phase=1.0)
    synth_args = ["synth", "--exemplar", ex, "--out", str(tmp_path / "x.ppm")]
    if case == "gray-exemplar-rgb-synth":
        gray = tmp_path / "gray.pgm"
        write_image(Image(as_array(smooth_rgb()).mean(axis=2)), gray)
        return ["eval-ds", "--exemplar", str(gray), "--synth", other]
    if case == "even-patch":
        return ["eval-ds", "--exemplar", ex, "--synth", other, "--patch", "4"]
    if case == "synth-the-size-of-a-patch":  # a 1x1 map has no neighbor pairs
        return ["eval-ds", "--exemplar", ex, "--synth", save_rgb(tmp_path / "b.ppm", n=5)]
    if case == "zero-wavelet-scales":
        return ["eval-klw", "--ref", ex, "--synth", other, "--scales", "0"]
    if case in ("msinit", "gram+gram"):
        return synth_args + ["--variant", case]
    if case == "unknown-arch":  # one architecture, so no --arch option to pass it
        return synth_args + ["--arch", "vgg-max", "--variant", "gram"]
    if case == "jobs-flag":  # the eval commands score one image at a time
        return ["eval-ds", "--exemplar", ex, "--synth", other, "--jobs", "2"]
    if case in ("exemplar-under-a-file", "exemplar-under-a-missing-dir"):
        parent = tmp_path / "afile"
        if case == "exemplar-under-a-file":
            parent.write_text("not a directory")
        return ["eval-ds", "--exemplar", str(parent / "ex.ppm"), "--synth", other]
    if case == "disp-dir-is-a-file":
        (tmp_path / "afile").write_text("not a directory")
        return ["eval-ds", "--exemplar", ex, "--synth", other,
                "--disp-dir", str(tmp_path / "afile"), "--out", str(tmp_path / "m.csv")]
    if case == "negative-net-seed":
        return synth_args + ["--net-seed", "-1", "--variant", "gram"]
    if case == "binary-config":
        config = tmp_path / "c.json"
        config.write_bytes(b"\xff\xfe\x00\x01")
        return ["synth", "--config", str(config), "--out", str(tmp_path / "x.ppm")]
    if case in ("filter-without-value", "unknown-filter-key", "unknown-image-class"):
        flt = {"filter-without-value": "scale", "unknown-filter-key": "size=big",
               "unknown-image-class": "image-class=pretty"}[case]
        return ["bt-fit", "--duels", write_duels(tmp_path / "d.csv", duel_rows()),
                "--filter", flt]
    if case == "classes-without-class-column":
        (tmp_path / "c.csv").write_text("image_id,kind\nimg1,regular\n")
        return ["bt-fit", "--duels", write_duels(tmp_path / "d.csv", duel_rows()),
                "--classes", str(tmp_path / "c.csv"), "--filter", "image-class=regular"]
    if case == "config-array":
        (tmp_path / "c.json").write_text('["gram"]')
        return synth_args + ["--config", str(tmp_path / "c.json")]
    if case == "synth-without-out":
        return ["synth", "--exemplar", ex]
    if case == "self-duel":
        return ["bt-fit", "--duels", write_duels(tmp_path / "d.csv", [["a", "a", "a", "i", "g"]])]
    if case == "duplicate-layer-names":
        specs = vgg_mini(3)
        weights = random_weights(specs, seed=1)
        weights.specs = specs + specs[-1:]
        save_weights(weights, tmp_path / "w.bin")
        return synth_args + ["--net-weights", str(tmp_path / "w.bin"), "--variant", "gram"]
    assert case == "non-integer-net-seed"
    session = write_session(tmp_path / "s.json", net={"provenance": "random(seed=x)",
                                                      "pool": "avg"})
    return ["synth", "--replay", session, "--out", str(tmp_path / "x.ppm")]


@pytest.mark.parametrize("case", [
    "gray-exemplar-rgb-synth", "even-patch", "synth-the-size-of-a-patch",
    "zero-wavelet-scales", "msinit", "gram+gram", "unknown-arch", "negative-net-seed",
    "binary-config", "self-duel", "duplicate-layer-names", "non-integer-net-seed",
    "jobs-flag", "exemplar-under-a-file", "exemplar-under-a-missing-dir", "disp-dir-is-a-file",
    "filter-without-value", "unknown-filter-key", "unknown-image-class",
    "classes-without-class-column", "config-array", "synth-without-out",
])
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, case):
    argv = bad_input_argv(tmp_path, case)
    forbid_synthesis(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    stderr_payload(capsys)


# each command's image options, the first naming its exemplar or reference
IMAGE_OPTIONS = {"synth": ["--exemplar"], "eval-ds": ["--exemplar", "--synth"],
                 "eval-klw": ["--ref", "--synth"], "project-spectrum": ["--exemplar", "--image"]}


@pytest.mark.parametrize("inputs", ["existing", "missing"])
@pytest.mark.parametrize("command, name, value", [
    ("eval-ds", "patch", 4), ("eval-ds", "patch", 0), ("eval-ds", "patch", -3),
    ("eval-klw", "scales", 0), ("eval-klw", "scales", -1), ("project-spectrum", "bits", 12),
    ("synth", "iterations", -1),
])
def test_an_option_out_of_range_exits_2_naming_it_before_any_read(
        tmp_path, capsys, monkeypatch, command, name, value, inputs):
    rule = {"patch": "odd and >= 1", "scales": ">= 1", "bits": "8 or 16",
            "iterations": ">= 0"}[name]
    images = [save_rgb(tmp_path / "ex.ppm"), save_rgb(tmp_path / "a.ppm", phase=1.0)]
    if inputs == "missing":
        images[0] = str(tmp_path / "missing.ppm")
    argv = [command, "--out", str(tmp_path / "out"), f"--{name}", str(value)]
    for flag, path in zip(IMAGE_OPTIONS[command], images):
        argv += [flag, path]
    before = sorted(os.listdir(tmp_path))
    forbid_reads(monkeypatch)
    assert main(argv) == 2
    assert stderr_payload(capsys) == {"error": "CliError",
                                      "message": f"{name} must be {rule}, got {value}"}
    assert sorted(os.listdir(tmp_path)) == before


# the options neither RULES nor the role tables cover: image_id is free text, filter
# FILTERS' to check, variant, K and the two loss weights MethodVariant's, and disp_dir
# the directory eval-ds makes
FREE_OPTIONS = ("image_id", "filter", "variant", "K", "beta", "layer_weight", "disp_dir")


def test_every_option_is_in_one_table_and_every_table_entry_is_an_option():
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for parser in commands.values() for action in parser._actions
             if action.dest != "help"}
    tables = {"RULES": set(cli.RULES), "INPUTS": set(cli.INPUTS),
              "OUTPUTS": set(cli.OUTPUTS), "FREE_OPTIONS": set(FREE_OPTIONS)}
    homes = {dest: [table for table, names in tables.items() if dest in names]
             for dest in dests}
    assert {dest: home for dest, home in homes.items() if len(home) != 1} == {}
    assert {table: names - dests for table, names in tables.items() if names - dests} == {}


def test_a_provenance_no_weights_writer_makes_exits_2_naming_it(tmp_path, capsys):
    assert main(bad_input_argv(tmp_path, "non-integer-net-seed")) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "CliError"
    assert payload["message"].endswith("cannot replay net provenance 'random(seed=x)'")


@pytest.mark.parametrize("error", [ValueError("internal bug"), KeyError("layer")],
                         ids=lambda e: type(e).__name__)
def test_an_internal_error_exits_1_with_one_json_line(tmp_path, capsys, monkeypatch, error):
    ex = save_rgb(tmp_path / "ex.ppm")
    other = save_rgb(tmp_path / "a.ppm", phase=1.0)

    def broken(disp):
        raise error

    monkeypatch.setattr(cli.displacement, "ds_score", broken)
    assert main(["eval-ds", "--exemplar", ex, "--synth", other]) == 1
    assert stderr_payload(capsys) == {"error": type(error).__name__, "message": str(error)}


# every exception class texsynth defines, by the exit code it stands for
INPUT_ERRORS = {"InputError", "CliError", "RasterFormatError", "TooManyScales",
                "WeightsFormatError", "WaveletScaleError", "DisconnectedGraph",
                "DegenerateSample"}
RUNTIME_ERRORS = {"NonFiniteObjective", "SeparationDivergence", "ReplayMismatch"}


def test_every_exception_class_has_a_decided_exit_code():
    defined = {}
    for info in pkgutil.iter_modules(texsynth.__path__):
        module = importlib.import_module(f"texsynth.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                defined[name] = obj
    assert INPUT_ERRORS.isdisjoint(RUNTIME_ERRORS)
    assert set(defined) == INPUT_ERRORS | RUNTIME_ERRORS
    assert all(issubclass(defined[name], texsynth.InputError) for name in INPUT_ERRORS)
    assert not any(issubclass(defined[name], ValueError) for name in RUNTIME_ERRORS)


# Writes an image and prints the per-scale loss values as synth does, through
# the library alone: cli.main, and so cli.tune_malloc, never runs here.
LIBRARY_SYNTH = """
import json, sys
from texsynth import imagecore, net, optim, synth
exemplar_path, out, variant, K, iterations, bits = sys.argv[1:]
exemplar = imagecore.read_image(exemplar_path)
network = net.make_network(in_channels=exemplar.c, seed=0, pool="avg")
result, session = synth.synth_multiscale(
    exemplar, synth.MethodVariant.parse(variant, K=int(K)), network, 1,
    lbfgs=optim.LbfgsConfig(max_iter=int(iterations)))
imagecore.write_image(result, out, bits=int(bits))
assert "texsynth.cli" not in sys.modules
print(json.dumps([record["trace"]["values"] for record in session.scales]))
"""


@pytest.mark.parametrize("size, variant, K, iterations, bits", [
    (32, "gram+spectrum+msinit", 1, 60, 16),
    (64, "gram+spectrum+autocorr", 0, 30, 8),
], ids=["msinit", "autocorr-8-bit"])
def test_the_malloc_thresholds_move_no_output_byte(tmp_path, size, variant, K, iterations,
                                                     bits):
    rng = np.random.default_rng(size)
    ex = tmp_path / "ex.ppm"
    write_image(Image(rng.random((size, size, 3))), ex, bits=16)
    run = {"env": blas_env(), "check": True,
           "timeout": 300, "capture_output": True, "text": True}
    subprocess.run([sys.executable, "-m", "texsynth.cli", "synth", "--exemplar", str(ex),
                    "--out", str(tmp_path / "cli.ppm"), "--variant", variant, "--K", str(K),
                    "--iterations", str(iterations), "--bits", str(bits), "--seed", "1"], **run)
    library = subprocess.run([sys.executable, "-c", LIBRARY_SYNTH, str(ex),
                              str(tmp_path / "lib.ppm"), variant, str(K), str(iterations),
                              str(bits)], **run)
    session = json.loads((tmp_path / "cli.session.json").read_text())
    assert (tmp_path / "cli.ppm").read_bytes() == (tmp_path / "lib.ppm").read_bytes()
    assert [record["trace"]["values"] for record in session["scales"]] == json.loads(
        library.stdout)
    assert len(session["scales"]) == K + 1


FAULTS_OF_MAIN = """
import resource, sys
from texsynth import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="mallopt thresholds are glibc's")
def test_a_steady_loss_evaluation_faults_in_no_fresh_pages(tmp_path):
    # about 800 faults per evaluation at glibc's default thresholds, about 15 at the tuned ones
    rng = np.random.default_rng(64)
    ex = tmp_path / "ex.ppm"
    write_image(Image(rng.random((64, 64, 3))), ex, bits=16)
    faults = subprocess.run(
        [sys.executable, "-c", FAULTS_OF_MAIN, "synth", "--exemplar", str(ex),
         "--out", str(tmp_path / "s.ppm"), "--variant", "gram+spectrum",
         "--iterations", "100", "--seed", "1"],
        env=blas_env(), check=True, timeout=300,
        capture_output=True, text=True)
    session = json.loads((tmp_path / "s.session.json").read_text())
    n_evals = session["scales"][0]["trace"]["n_evals"]
    assert n_evals > 100
    assert int(faults.stdout.splitlines()[-1]) / n_evals < 200


MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def fake_cdll(monkeypatch, libc):
    """Make ctypes.CDLL(None) return `libc`, or raise it if it is an exception."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)


@pytest.mark.parametrize("accepted, wanted", [
    (1, [(-3, MMAP_THRESHOLD_MAX), (-1, 2 * MMAP_THRESHOLD_MAX), (-8, 1)]),
    (0, [(-3, MMAP_THRESHOLD_MAX), (-8, 1)]),
], ids=["both", "neither-once-the-mmap-threshold-is-refused"])
def test_tune_malloc_sets_the_mmap_then_the_trim_threshold(monkeypatch, accepted, wanted):
    calls = []
    fake_cdll(monkeypatch, types.SimpleNamespace(
        mallopt=lambda param, value: calls.append((param, value)) or accepted))
    cli.tune_malloc()
    assert calls == wanted


@pytest.mark.parametrize("libc", [types.SimpleNamespace(), OSError("no libc")],
                         ids=["no-mallopt", "no-libc"])
def test_without_mallopt_a_synth_still_runs(tmp_path, monkeypatch, libc):
    fake_cdll(monkeypatch, libc)
    assert cli.tune_malloc() is None
    ex = save_rgb(tmp_path / "ex.ppm")
    assert main(["synth", "--exemplar", ex, "--out", str(tmp_path / "x.ppm"),
                 "--variant", "gram", "--iterations", "3"]) == 0
    assert (tmp_path / "x.ppm").exists()
