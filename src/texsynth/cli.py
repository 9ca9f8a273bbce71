"""Command line interface.

Subcommands: synth, eval-ds, eval-klw, bt-fit, project-spectrum, selftest.
Exit 2 is bad input: an InputError (CliError is one), or a user path that
is missing, a directory, under a regular file, or not valid JSON or text.
Every other exception exits 1.
Either way stderr gets one JSON object {"error", "message"}. The synth
options are the fields of RunConfig: each is a flag and a key of the JSON
config file (strict schema; the key has `_` where the flag has `-`). A
--config file presets them, and flags win. A --replay session sets them all,
takes only the REPLAY_FLAGS paths, and writes the recorded bytes or exits 1.
Each bt-fit --filter key of FILTERS may be given once. eval-klw names the
image whose size cannot take --scales; eval-ds names the image smaller than
a patch, or the synth whose channel count differs from the exemplar's;
project-spectrum names an --image whose shape differs from the exemplar's.
Before any read, every command checks each value by its name's RULES entry
(MethodVariant checks synth's variant, K and loss weights) and each path by
its INPUTS or OUTPUTS role: an output that is the same file as an input or
as another output, that is a directory, or whose directory does not exist,
exits 2. So does an eval-ds
--disp-dir that is not a directory or would be made under a regular file; a
missing one is created.
`-` means stdout only as the --out of eval-ds, eval-klw and bt-fit; every
other path `-` is a file. The eval commands score one image at a time, and
BLAS threads (OPENBLAS_NUM_THREADS) are their only parallelism. synth runs its
loss terms on the host's other CPUs, beside the network, for images of at
least losses.POOL_MIN_PIXELS pixels, and then holds OpenBLAS at 1 thread; no
output byte depends on the CPU or thread count.
On glibc, main first fixes malloc's mmap and trim thresholds at the values its
dynamic rule ends in, so loss evaluations reuse heap pages instead of faulting
them in afresh, and allows one arena, which the loss workers share; no output
byte depends on it, and elsewhere it does nothing.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bradley_terry, displacement, ggd, losses
from . import net as netmod
from . import optim, selftest, synth
from .imagecore import InputError, read_image, write_image


class CliError(InputError):
    """Invalid flags, config, or input files; exits 2."""


class ReplayMismatch(Exception):
    """A replay wrote other bytes than its session recorded; exits 1."""


# the values each option may take, by its name in any command
RULES = {
    **dict.fromkeys(("seed", "net_seed", "iterations", "history", "grad_tol"),
                    (">= 0", lambda v: v >= 0)),  # False for a NaN grad_tol
    "bits": ("8 or 16", lambda v: v in (8, 16)),
    "pool": ("avg or max", lambda v: v in ("avg", "max")),
    "patch": ("odd and >= 1", lambda v: v >= 1 and v % 2 == 1),
    "scales": (">= 1", lambda v: v >= 1),
}
# the path options each command reads and writes, in the order _check_options claims them
INPUTS = ("exemplar", "ref", "synth", "image", "duels", "classes", "net_weights", "config",
          "replay")
OUTPUTS = ("out", "session", "curve")


def check_rules(values: dict) -> None:
    """Raise CliError for the first option in `values` that breaks its RULES entry."""
    for name, (rule, ok) in RULES.items():
        if name in values and not ok(values[name]):
            raise CliError(f"{name} must be {rule}, got {values[name]!r}")


def _option(default, help=None):
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """The synth options, listed once: each field is a flag and a config key.

    The flag is `--` + the name with `_` as `-`. A field's default fixes
    its type; a field that defaults to None is a str path. Values no run
    can use raise CliError. `method_variant`, the variant parsed with beta,
    K and layer_weight, owns the loss weights and their zero-weight rule.
    """

    exemplar: str | None = _option(None, "input PPM/PGM exemplar")
    out: str | None = _option(None, "output image path")
    session: str | None = _option(None, "session JSON path (default: out stem + .session.json)")
    curve: str | None = _option(None, "write per-scale loss curves to this CSV")
    variant: str = _option("gram+spectrum+msinit", "loss terms, e.g. gram+spectrum+msinit")
    K: int = _option(synth.DEFAULT_K, "pyramid depth for msinit")
    beta: float = _option(losses.DEFAULT_BETA, "spectrum term weight")
    seed: int = _option(0, "noise seed")
    iterations: int = _option(optim.LbfgsConfig.max_iter, "iteration cap per scale")
    history: int = _option(optim.LbfgsConfig.history, "curvature pairs kept")
    grad_tol: float = _option(optim.LbfgsConfig.grad_tol)
    layer_weight: float = _option(losses.DEFAULT_LAYER_WEIGHT)
    net_seed: int = _option(0, "random weights seed")
    net_weights: str | None = _option(None, "weights file to load")
    pool: str = _option("avg")
    bits: int = _option(16, "output sample depth")

    def __post_init__(self):
        check_rules(vars(self))
        try:  # the variant, K and the weights are MethodVariant's to check, once, here
            self.method_variant = synth.MethodVariant.parse(
                self.variant, beta=self.beta, K=self.K, layer_weight=self.layer_weight)
        except InputError as exc:
            raise CliError(str(exc)) from None


def _option_type(f) -> type:
    return str if f.default is None else type(f.default)


def parse_run_config(obj: dict, where: str) -> dict:
    """Validate a config dict strictly; returns coerced key/value pairs."""
    if not isinstance(obj, dict):
        raise CliError(f"{where}: config must be a JSON object")
    options = {f.name: f for f in fields(RunConfig)}
    unknown = set(obj) - set(options)
    if unknown:
        raise CliError(f"{where}: unknown config keys {sorted(unknown)}")
    out = {}
    for key, value in obj.items():
        kind = _option_type(options[key])
        if value is None and options[key].default is None:
            out[key] = None
        elif isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            raise CliError(f"{where}: bad type for key {key!r}")
        else:
            out[key] = kind(value)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON path
        raise CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="texsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a texture from an exemplar")
    p.add_argument("--config", help="JSON config file (strict schema)")
    p.add_argument("--replay", help="session JSON to reproduce bit for bit")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=_option_type(f),
                       help=f.metadata["help"])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval-ds", help="displacement maps and copy scores")
    p.add_argument("--exemplar", required=True)
    p.add_argument("--synth", required=True, nargs="+", help="synthesis result(s)")
    p.add_argument("--patch", type=int, default=displacement.DEFAULT_PATCH)
    p.add_argument("--image-id", dest="image_id", help="id column value (default: exemplar stem)")
    p.add_argument("--out", default="-", help="metrics CSV path, - for stdout")
    p.add_argument("--disp-dir", dest="disp_dir", help="also write colored maps here")
    p.set_defaults(func=cmd_eval_ds)

    p = sub.add_parser("eval-klw", help="wavelet-domain KL texture distances")
    p.add_argument("--ref", required=True, help="reference texture")
    p.add_argument("--synth", required=True, nargs="+")
    p.add_argument("--scales", type=int, default=8)
    p.add_argument("--image-id", dest="image_id")
    p.add_argument("--out", default="-", help="metrics CSV path, - for stdout")
    p.set_defaults(func=cmd_eval_klw)

    p = sub.add_parser("bt-fit", help="fit strengths to duel outcomes")
    p.add_argument("--duels", required=True, help="CSV: method_a,method_b,winner,image_id,scale")
    p.add_argument("--filter", action="append", default=[],
                   help=" or ".join(f"{key}={'|'.join(values)}"
                                    for key, values in FILTERS.items()) + ", each key once")
    p.add_argument("--classes", help="CSV image_id,class (needed by image-class filter)")
    p.add_argument("--out", default="-", help="result JSON path, - for stdout")
    p.set_defaults(func=cmd_bt_fit)

    p = sub.add_parser("project-spectrum", help="impose an exemplar's Fourier modulus")
    p.add_argument("--exemplar", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=16)
    p.set_defaults(func=cmd_project_spectrum)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=cmd_selftest)

    return parser


REPLAY_FLAGS = ("exemplar", "net_weights", "out", "session", "curve")


def _config_from_args(args) -> tuple[RunConfig, synth.SynthSession | None]:
    """The merged run config, plus the recorded session when replaying.

    Flags win over the config file. A replay takes every other option from
    its session, since REPLAY_FLAGS only say where its files are.
    """
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name) is not None}
    values, recorded = {}, None
    if args.replay:
        others = sorted(set(flags) - set(REPLAY_FLAGS)) + (["config"] if args.config else [])
        if others:
            raise CliError(f"--replay takes only the path options {list(REPLAY_FLAGS)}, "
                           f"not {others}")
        values, recorded = _config_from_session(args.replay)
    elif args.config:
        with open(args.config) as fh:
            values = parse_run_config(json.load(fh), args.config)
    return RunConfig(**{**values, **flags}), recorded


def _config_from_session(path) -> tuple[dict, synth.SynthSession]:
    """The config values a session recorded, and the session itself."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        session = synth.SynthSession(**obj)
        lbfgs = session.lbfgs
        values = {"variant": session.variant, "K": session.K, "beta": session.beta,
                  "seed": session.seed, "layer_weight": session.layer_weight,
                  "iterations": lbfgs["max_iter"], "history": lbfgs["history"],
                  "grad_tol": lbfgs["grad_tol"], "exemplar": session.exemplar["path"],
                  "bits": session.output["bits"]}
        if (type(session.output["sha256"]), type(session.environment)) != (str, dict):
            raise TypeError("output.sha256 must be a string, environment an object")
        if session.net is not None:
            values["pool"] = session.net["pool"]
            prov = session.net["provenance"]
            source = netmod.provenance_fields(prov)
            if "seed" in source:
                values["net_seed"] = source["seed"]
            elif "path" in source:
                values["net_weights"] = source["path"]
            else:
                raise CliError(f"{path}: cannot replay net provenance {prov!r}")
    except KeyError as exc:
        raise CliError(f"{path}: not a session file (missing {exc})") from None
    except (TypeError, AttributeError) as exc:
        raise CliError(f"{path}: not a session file ({exc})") from None
    return parse_run_config(values, str(path)), session


def cmd_synth(args) -> int:
    cfg, recorded = _config_from_args(args)
    if not cfg.exemplar:
        raise CliError("an exemplar is required (flag --exemplar or config)")
    if not cfg.out:
        raise CliError("an output path is required (flag --out or config)")
    session_path = cfg.session or str(Path(cfg.out).with_suffix("")) + ".session.json"
    _check_options({**vars(args), **vars(cfg), "session": session_path})
    exemplar = read_image(cfg.exemplar)
    if recorded is not None and synth.exemplar_hash(exemplar) != recorded.exemplar.get("sha256"):
        raise CliError(f"exemplar at {cfg.exemplar} does not match the session hash")
    network = None
    if set(cfg.method_variant.terms) & set(losses.FEATURE_TERMS):
        if cfg.net_weights:
            weights = netmod.load_weights(os.path.abspath(cfg.net_weights))
            crc32 = netmod.provenance_fields(weights.provenance)["crc32"]
            # by content, as the exemplar is: a copy at another path replays
            if recorded is not None and (recorded.net is None or crc32 != netmod.provenance_fields(
                    recorded.net["provenance"]).get("crc32")):
                raise CliError(f"weights {weights.provenance} do not match the session's network")
            network = netmod.Network(weights.specs, weights, pool=cfg.pool)
            if network.in_channels != exemplar.c:
                raise CliError(
                    f"weights expect {network.in_channels}-channel input, "
                    f"exemplar has {exemplar.c}"
                )
        else:
            network = netmod.make_network(in_channels=exemplar.c, seed=cfg.net_seed,
                                          pool=cfg.pool)
    lbfgs = optim.LbfgsConfig(max_iter=cfg.iterations, history=cfg.history,
                              grad_tol=cfg.grad_tol)
    result, session = synth.synth_multiscale(
        exemplar, cfg.method_variant, network, cfg.seed, lbfgs=lbfgs,
        exemplar_path=os.path.abspath(cfg.exemplar),
    )
    write_image(result, cfg.out, bits=cfg.bits)
    digest = hashlib.sha256(Path(cfg.out).read_bytes()).hexdigest()
    session.output = {"path": str(cfg.out), "bits": cfg.bits, "sha256": digest}
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
    if recorded is not None and digest != recorded.output["sha256"]:
        old, new = recorded.environment, session.environment
        differ = [f"{key} {old.get(key)} -> {new.get(key)}" for key in sorted(old | new)
                  if old.get(key) != new.get(key)]
        raise ReplayMismatch(f"{cfg.out} has sha256 {digest}, not the recorded "
                             f"{recorded.output['sha256']}; environment fields that "
                             f"differ: {', '.join(differ) or 'none'}")
    final = session.scales[-1]["trace"]["values"][-1]
    print(f"final loss {final:.6g}; wrote {cfg.out} and {session_path}")
    return 0


def _flag_paths(values: dict, names) -> list:
    """(flag, path) for each path the `names` options of `values` give."""
    return [("--" + name.replace("_", "-"), path) for name in names if values.get(name)
            for path in (values[name] if isinstance(values[name], list) else [values[name]])]


def _check_options(values: dict, maps=()) -> None:
    """Apply RULES to `values`, a command's options by name. Reject an output of
    OUTPUTS, or a map in --disp-dir, that is a directory, an INPUTS or another output's
    file, or whose directory does not exist, unless that is a --disp-dir under a directory."""
    check_rules(values)
    made = values.get("disp_dir") and os.path.abspath(values["disp_dir"])
    claimed = {os.path.realpath(path): flag for flag, path in _flag_paths(values, INPUTS)}
    for flag, path in _flag_paths(values, OUTPUTS) + [("--disp-dir", p) for p in maps]:
        parent = os.path.dirname(os.path.abspath(path))
        if parent == made:  # its nearest existing ancestor must be a directory
            while not os.path.exists(parent):
                parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise CliError(f"{flag} {path}: {parent} is not an existing directory")
        if os.path.isdir(path):
            raise CliError(f"{flag} {path} is a directory")
        real = os.path.realpath(path)
        if real in claimed:
            raise CliError(f"{flag} {path} is the same file as {claimed[real]}, "
                           "which it would overwrite")
        claimed[real] = flag


def _text_file(path):
    """The file a text --out names: None for `-`, which _write_text sends to stdout."""
    return None if path == "-" else path


def _write_text(path, text: str) -> None:
    """Write text to stdout for `-`, else to the file, newlines untranslated."""
    if _text_file(path) is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _metric_rows(out_path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([["image_id", "method", "metric", "value"], *rows])
    _write_text(out_path, buf.getvalue())


def _method_names(paths) -> list[str]:
    """The method column of each --synth file: its stem, which must be unique."""
    stems = [Path(path).stem for path in paths]
    repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
    if repeated:
        raise CliError(f"--synth files share the stems {repeated}, so their rows "
                       "and maps could not be told apart")
    return stems


def cmd_eval_ds(args) -> int:
    methods = _method_names(args.synth)
    maps = [os.path.join(args.disp_dir, f"{m}.disp.ppm") for m in methods] if args.disp_dir else []
    _check_options({**vars(args), "out": _text_file(args.out)}, maps)
    exemplar = read_image(args.exemplar)
    image_id = args.image_id or Path(args.exemplar).stem

    results = []
    for path in args.synth:  # every image scored before any write
        # --patch is checked, so a failure is an image's: the exemplar's when
        # it is smaller than a patch, else the synth's size or channel count
        culprit = args.exemplar if min(exemplar.h, exemplar.w) < args.patch else path
        synth = read_image(path)
        try:
            disp = displacement.displacement_map(synth, exemplar, patch=args.patch)
            results.append((disp, displacement.ds_score(disp)))
        except InputError as exc:
            raise type(exc)(f"{culprit}: {exc}") from None
    if maps:
        os.makedirs(args.disp_dir, exist_ok=True)
    for path, (disp, _) in zip(maps, results):
        write_image(displacement.displacement_to_rgb(disp), path, bits=8)
    _metric_rows(args.out, [[image_id, method, "ds", repr(score)]
                            for method, (_, score) in zip(methods, results)])
    return 0


def cmd_eval_klw(args) -> int:
    methods = _method_names(args.synth)
    _check_options({**vars(args), "out": _text_file(args.out)})
    # one decomposition of --ref, for all synths
    ref_details = ggd.wavelet_details(read_image(args.ref), args.scales, args.ref)
    image_id = args.image_id or Path(args.ref).stem

    rows = []
    for method, path in zip(methods, args.synth):  # every image scored before any write
        _, aggregate = ggd.details_distance_klw(
            ggd.wavelet_details(read_image(path), args.scales, path), ref_details,
            names=(path, args.ref))
        rows.append([image_id, method, "klw", repr(ggd.log_score(aggregate))])
        rows.append([image_id, method, "klw_sum", repr(aggregate)])
    _metric_rows(args.out, rows)
    return 0


# each bt-fit --filter key and the values it takes
FILTERS = {"scale": ("global", "local"), "image-class": ("regular", "irregular")}


def _parse_filters(pairs) -> dict:
    """The --filter key=value pairs as {key: value}; a key given twice exits 2."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"bad --filter {pair!r}, expected key=value")
        if key not in FILTERS:
            raise CliError(f"unknown filter key {key!r}")
        if value not in FILTERS[key]:
            raise CliError(f"{key} filter must be {' or '.join(FILTERS[key])}")
        if key in out:
            raise CliError(f"--filter {key} is given twice, as {out[key]} and {value}")
        out[key] = value
    return out


def _load_classes(path) -> dict[str, str]:
    """image_id -> class, under the row rules of bradley_terry.csv_table; an
    image_id listed with two classes exits 2."""
    classes: dict[str, str] = {}
    with open(path, newline="") as fh:
        (image_id, cls), rows = bradley_terry.csv_table(fh, ("image_id", "class"),
                                                        f"{path}: classes CSV")
        for row in rows:
            known = classes.setdefault(row[image_id], row[cls])
            if known != row[cls]:
                raise CliError(f"{path}: image_id {row[image_id]!r} is listed as both "
                               f"{known!r} and {row[cls]!r}")
    return classes


def cmd_bt_fit(args) -> int:
    _check_options({**vars(args), "out": _text_file(args.out)})
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
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_project_spectrum(args) -> int:
    _check_options(vars(args))
    exemplar = read_image(args.exemplar)
    image = read_image(args.image)
    try:
        projected = losses.spectrum_project(image, losses.spectrum_target(exemplar))
    except InputError as exc:  # the one check is the image's shape against the exemplar's
        raise type(exc)(f"{args.image}: {exc}") from None
    write_image(projected, args.out, bits=args.bits)
    return 0


def cmd_selftest(args) -> int:
    return 0 if selftest.run() else 1


# glibc's mallopt(3) parameters, and the largest mmap threshold its dynamic rule reaches
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def tune_malloc() -> None:
    """Start glibc malloc where its dynamic threshold rule ends: mmap above
    MMAP_THRESHOLD_MAX, trim above twice that. At the rule's start the heap
    top is given back after each loss evaluation and faulted in again by the
    next. Both are set or neither, since either call stops the rule. Then
    allow one arena, so that the loss workers allocate from the main heap:
    a second arena would keep up to the trim threshold besides. Without
    glibc's mallopt this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no such libc, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX):
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)
    mallopt(M_ARENA_MAX, 1)


def main(argv=None) -> int:
    tune_malloc()
    try:  # argparse reads sys.argv[1:] when argv is None
        args = build_parser().parse_args(argv)
        return args.func(args)
    # reading a user file raises these builtins; they are bad input too
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        error, code = exc, 2
    except Exception as exc:  # a runtime failure or a bug
        error, code = exc, 1
    print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
