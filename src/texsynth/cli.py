"""Command line interface.

Subcommands: synth, eval-ds, eval-klw, bt-fit, project-spectrum, selftest.
Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
Errors go to stderr as one JSON object {"error", "message"}. A JSON
config file (strict schema) can preset the synth options; explicit flags
win over config values. --jobs fans out over independent images only,
capped by TEXSYNTH_THREADS.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bradley_terry, displacement, ggd, losses
from . import net as netmod
from . import optim, selftest, synth
from .imagecore import RasterFormatError, TooManyScales, read_image, write_image
from .wavelets import WaveletScaleError


class CliError(Exception):
    """Invalid flags, config, or input files; exits 2."""


_USAGE_ERRORS = (
    CliError,
    RasterFormatError,
    netmod.WeightsFormatError,
    TooManyScales,
    WaveletScaleError,
    bradley_terry.DisconnectedGraph,
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    json.JSONDecodeError,
)

_RUNTIME_ERRORS = (
    optim.NonFiniteObjective,
    bradley_terry.SeparationDivergence,
    ggd.DegenerateSample,
    RuntimeError,
    OSError,
)


@dataclass
class RunConfig:
    """Everything the synth subcommand needs; mirrors the config file schema."""

    exemplar: str | None = None
    out: str | None = None
    session: str | None = None
    curve: str | None = None
    variant: str = "gram+spectrum+msinit"
    K: int = synth.DEFAULT_K
    beta: float = losses.DEFAULT_BETA
    seed: int = 0
    iterations: int = 2000
    history: int = 10
    grad_tol: float = 1e-8
    layer_weight: float = losses.DEFAULT_LAYER_WEIGHT
    arch: str = "vgg-mini"
    net_seed: int = 0
    net_weights: str | None = None
    pool: str = "avg"
    bits: int = 16

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


_RUNCONFIG_TYPES = {f.name: f for f in fields(RunConfig)}
_STR_KEYS = {"exemplar", "out", "session", "curve", "variant", "arch",
             "net_weights", "pool"}
_INT_KEYS = {"K", "seed", "iterations", "history", "net_seed", "bits"}
_FLOAT_KEYS = {"beta", "grad_tol", "layer_weight"}


def parse_run_config(obj: dict, where: str) -> dict:
    """Validate a config dict strictly; returns coerced key/value pairs."""
    if not isinstance(obj, dict):
        raise CliError(f"{where}: config must be a JSON object")
    unknown = set(obj) - set(_RUNCONFIG_TYPES)
    if unknown:
        raise CliError(f"{where}: unknown config keys {sorted(unknown)}")
    out = {}
    for key, value in obj.items():
        if value is None:
            out[key] = None
            continue
        try:
            if key in _INT_KEYS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                out[key] = float(value)
            elif key in _STR_KEYS:
                if not isinstance(value, str):
                    raise TypeError
                out[key] = value
        except TypeError:
            raise CliError(f"{where}: bad type for key {key!r}") from None
    return out


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        obj = json.load(fh)
    cfg = RunConfig()
    for key, value in parse_run_config(obj, str(path)).items():
        setattr(cfg, key, value)
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON path
        raise CliError(message)


def _emit_error(exc) -> None:
    payload = {"error": exc.__class__.__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def _thread_cap() -> int | None:
    raw = os.environ.get("TEXSYNTH_THREADS")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        return None
    return max(1, cap)


def build_parser() -> _Parser:
    parser = _Parser(prog="texsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a texture from an exemplar")
    p.add_argument("--config", help="JSON config file (strict schema)")
    p.add_argument("--replay", help="session JSON to reproduce bit for bit")
    p.add_argument("--exemplar", help="input PPM/PGM exemplar")
    p.add_argument("--out", help="output image path")
    p.add_argument("--session", help="session JSON path (default: out stem + .session.json)")
    p.add_argument("--curve", help="write per-scale loss curves to this CSV")
    p.add_argument("--variant", help="loss terms, e.g. gram+spectrum+msinit")
    p.add_argument("--K", type=int, help="pyramid depth for msinit")
    p.add_argument("--beta", type=float, help="spectrum term weight")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--iterations", type=int, help="iteration cap per scale")
    p.add_argument("--history", type=int, help="curvature pairs kept")
    p.add_argument("--grad-tol", type=float, dest="grad_tol")
    p.add_argument("--layer-weight", type=float, dest="layer_weight")
    p.add_argument("--arch", help="network architecture name")
    p.add_argument("--net-seed", type=int, dest="net_seed", help="random weights seed")
    p.add_argument("--net-weights", dest="net_weights", help="weights file to load")
    p.add_argument("--pool", choices=("avg", "max"))
    p.add_argument("--bits", type=int, choices=(8, 16), help="output sample depth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval-ds", help="displacement maps and copy scores")
    p.add_argument("--exemplar", required=True)
    p.add_argument("--synth", required=True, nargs="+", help="synthesis result(s)")
    p.add_argument("--patch", type=int, default=displacement.DEFAULT_PATCH)
    p.add_argument("--image-id", dest="image_id", help="id column value (default: exemplar stem)")
    p.add_argument("--out", default="-", help="metrics CSV path, - for stdout")
    p.add_argument("--disp-dir", dest="disp_dir", help="also write colored maps here")
    p.add_argument("--jobs", type=int, default=1, help="parallelism across images")
    p.set_defaults(func=cmd_eval_ds)

    p = sub.add_parser("eval-klw", help="wavelet-domain KL texture distances")
    p.add_argument("--ref", required=True, help="reference texture")
    p.add_argument("--synth", required=True, nargs="+")
    p.add_argument("--scales", type=int, default=8)
    p.add_argument("--image-id", dest="image_id")
    p.add_argument("--out", default="-")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval_klw)

    p = sub.add_parser("bt-fit", help="fit strengths to duel outcomes")
    p.add_argument("--duels", required=True, help="CSV: method_a,method_b,winner,image_id,scale")
    p.add_argument("--filter", action="append", default=[],
                   help="scale=global|local or image-class=regular|irregular")
    p.add_argument("--classes", help="CSV image_id,class (needed by image-class filter)")
    p.add_argument("--out", default="-", help="result JSON path, - for stdout")
    p.set_defaults(func=cmd_bt_fit)

    p = sub.add_parser("project-spectrum", help="impose an exemplar's Fourier modulus")
    p.add_argument("--exemplar", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, choices=(8, 16), default=16)
    p.set_defaults(func=cmd_project_spectrum)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=cmd_selftest)

    return parser


_SYNTH_FLAGS = ("exemplar", "out", "session", "curve", "variant", "K", "beta",
                "seed", "iterations", "history", "grad_tol", "layer_weight",
                "arch", "net_seed", "net_weights", "pool", "bits")


def _config_from_args(args) -> tuple[RunConfig, synth.SynthSession | None]:
    """The merged run config, plus the recorded session when replaying."""
    recorded = None
    if args.replay:
        cfg, recorded = _config_from_session(args.replay)
    elif args.config:
        cfg = load_run_config(args.config)
    else:
        cfg = RunConfig()
    for name in _SYNTH_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if cfg.bits not in (8, 16):
        raise CliError(f"bits must be 8 or 16, got {cfg.bits}")
    return cfg, recorded


_FILE_PROVENANCE = re.compile(r"file\((.*), crc32=[0-9a-f]{8}\)", re.DOTALL)


def _config_from_session(path) -> tuple[RunConfig, synth.SynthSession]:
    with open(path) as fh:
        obj = json.load(fh)
    try:
        session = synth.SynthSession.from_dict(obj)
    except KeyError as exc:
        raise CliError(f"{path}: not a session file (missing {exc})") from None
    cfg = RunConfig()
    variant = synth.MethodVariant.parse(session.variant, beta=session.beta,
                                        K=session.K)
    cfg.variant = variant.to_string()
    cfg.K = session.K
    cfg.beta = session.beta
    cfg.seed = session.seed
    cfg.layer_weight = session.layer_weight
    cfg.iterations = session.lbfgs["max_iter"]
    cfg.history = session.lbfgs["history"]
    cfg.grad_tol = session.lbfgs["grad_tol"]
    cfg.bits = session.bits
    if session.exemplar_path is None:
        raise CliError(f"{path}: session lacks an exemplar path; pass --exemplar")
    cfg.exemplar = session.exemplar_path
    desc = session.net_desc
    if desc is not None:
        cfg.pool = desc["pool"]
        prov = desc["provenance"]
        if prov.startswith("random(seed="):
            cfg.net_seed = int(prov[len("random(seed=") : -1])
        elif match := _FILE_PROVENANCE.fullmatch(prov):
            cfg.net_weights = match.group(1)
        else:
            raise CliError(f"{path}: cannot replay net provenance {prov!r}")
    return cfg, session


def cmd_synth(args) -> int:
    cfg, recorded = _config_from_args(args)
    if not cfg.exemplar:
        raise CliError("an exemplar is required (flag --exemplar or config)")
    if not cfg.out:
        raise CliError("an output path is required (flag --out or config)")
    exemplar = read_image(cfg.exemplar)
    if recorded is not None and synth.exemplar_hash(exemplar) != recorded.exemplar_sha256:
        raise CliError(f"exemplar at {cfg.exemplar} does not match the session hash")
    variant = synth.MethodVariant.parse(cfg.variant, beta=cfg.beta, K=cfg.K)
    network = None
    if set(variant.terms) & {"gram", "autocorr"}:
        if cfg.net_weights:
            weights = netmod.load_weights(cfg.net_weights)
            if recorded is not None and (
                recorded.net_desc is None
                or weights.provenance != recorded.net_desc["provenance"]
            ):
                raise CliError(
                    f"weights {weights.provenance} do not match the session's network"
                )
            network = netmod.Network(weights.specs, weights, pool=cfg.pool)
            if network.in_channels != exemplar.c:
                raise CliError(
                    f"weights expect {network.in_channels}-channel input, "
                    f"exemplar has {exemplar.c}"
                )
        else:
            network = netmod.make_network(cfg.arch, in_channels=exemplar.c,
                                          seed=cfg.net_seed, pool=cfg.pool)
    lbfgs = optim.LbfgsConfig(max_iter=cfg.iterations, history=cfg.history,
                              grad_tol=cfg.grad_tol)
    result, session = synth.synth_multiscale(
        exemplar, variant, network, cfg.seed, lbfgs=lbfgs,
        layer_weight=cfg.layer_weight, exemplar_path=cfg.exemplar,
    )
    write_image(result, cfg.out, bits=cfg.bits)
    session.output_path = str(cfg.out)
    session.bits = cfg.bits
    session_path = cfg.session or str(Path(cfg.out).with_suffix("")) + ".session.json"
    with open(session_path, "w") as fh:
        fh.write(session.to_json())
        fh.write("\n")
    if cfg.curve:
        with open(cfg.curve, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "iteration", "loss"])
            for record in session.scales:
                for i, value in enumerate(record["trace"]["values"]):
                    writer.writerow([record["k"], i, repr(value)])
    final = session.scales[-1]["trace"]["values"][-1]
    print(f"final loss {final:.6g}; wrote {cfg.out} and {session_path}")
    return 0


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _metric_rows(out_path, rows) -> None:
    fh, close = _open_out(out_path)
    try:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "method", "metric", "value"])
        for row in rows:
            writer.writerow(row)
    finally:
        if close:
            fh.close()


def _pmap(fn, items, jobs: int):
    cap = _thread_cap()
    if cap is not None:
        jobs = min(jobs, cap)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cmd_eval_ds(args) -> int:
    exemplar = read_image(args.exemplar)
    image_id = args.image_id or Path(args.exemplar).stem

    def one(path):
        img = read_image(path)
        disp = displacement.displacement_map(img, exemplar, patch=args.patch)
        return path, disp, displacement.ds_score(disp)

    results = _pmap(one, list(args.synth), args.jobs)
    rows = []
    for path, disp, score in results:
        method = Path(path).stem
        rows.append([image_id, method, "ds", repr(score)])
        if args.disp_dir:
            os.makedirs(args.disp_dir, exist_ok=True)
            out = Path(args.disp_dir) / f"{method}.disp.ppm"
            write_image(displacement.displacement_to_rgb(disp), out, bits=8)
    _metric_rows(args.out, rows)
    return 0


def cmd_eval_klw(args) -> int:
    ref = read_image(args.ref)
    image_id = args.image_id or Path(args.ref).stem

    def one(path):
        img = read_image(path)
        _, aggregate = ggd.texture_distance_klw(img, ref, scales=args.scales)
        return path, aggregate

    results = _pmap(one, list(args.synth), args.jobs)
    rows = []
    for path, aggregate in results:
        method = Path(path).stem
        rows.append([image_id, method, "klw", repr(ggd.log_score(aggregate))])
        rows.append([image_id, method, "klw_sum", repr(aggregate)])
    _metric_rows(args.out, rows)
    return 0


def _parse_filters(pairs) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"bad --filter {pair!r}, expected key=value")
        if key == "scale":
            if value not in ("global", "local"):
                raise CliError("scale filter must be global or local")
        elif key == "image-class":
            if value not in ("regular", "irregular"):
                raise CliError("image-class filter must be regular or irregular")
        else:
            raise CliError(f"unknown filter key {key!r}")
        out[key] = value
    return out


def _load_classes(path) -> dict[str, str]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"image_id", "class"} <= set(reader.fieldnames):
            raise CliError(f"{path}: classes CSV needs columns image_id,class")
        return {row["image_id"]: row["class"] for row in reader}


def cmd_bt_fit(args) -> int:
    filters = _parse_filters(args.filter)
    image_ids = None
    if "image-class" in filters:
        if not args.classes:
            raise CliError("--filter image-class needs --classes")
        classes = _load_classes(args.classes)
        image_ids = {i for i, c in classes.items() if c == filters["image-class"]}
    data = bradley_terry.load_duels(args.duels, scale=filters.get("scale"),
                                    image_ids=image_ids)
    fit = bradley_terry.bt_fit(data)
    verdicts = bradley_terry.bt_significance(fit)
    W, Sigma = bradley_terry.bt_winning_prob(fit)
    payload = {
        "methods": list(fit.methods),
        "n_duels": int(data.wins.sum()),
        "beta": [float(b) for b in fit.beta],
        "se_beta": [float(s) for s in np.sqrt(np.maximum(np.diag(fit.cov), 0.0))],
        "significance": verdicts.tolist(),
        "winning_prob": [float(v) for v in W],
        "winning_prob_se": [float(v) for v in Sigma],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return 0


def cmd_project_spectrum(args) -> int:
    exemplar = read_image(args.exemplar)
    image = read_image(args.image)
    target = losses.spectrum_target(exemplar)
    projected = losses.spectrum_project(image, target)
    write_image(projected, args.out, bits=args.bits)
    return 0


def cmd_selftest(args) -> int:
    return 0 if selftest.run() else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    # usage first: FileNotFoundError is an OSError but means bad input, not
    # a runtime failure
    except _USAGE_ERRORS as exc:
        _emit_error(exc)
        return 2
    except _RUNTIME_ERRORS as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
