"""Command-line surface.

Commands: ``features``, ``verify-invariance``, ``bingham sample|entropy|mode``,
``demo-wingtip``, ``train-toy``.  Exit codes: 0 success, 1 validation
failure, 2 invariance-check failure, 3 numeric failure.

Every command is deterministic given (input bytes, config, seed); files are
written atomically and floats are formatted with 17 significant digits so
output re-parses to bitwise-identical doubles.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np

from . import bingham
from .cloudio import format_rows, load_cloud, write_text_atomic
from .descriptors import (
    B1_SCORE_THRESHOLD,
    B2_DISTANCE_THRESHOLD_RAD,
    COINCIDENT_DISTANCE_FLOOR,
    DESCRIPTOR_MASKS,
    MASK_PPF,
    MASK_SIPF,
    ShadowCloud,
    coincident_pairs,
    shadow_of,
    sipf_field,
)
from .errors import (
    InvalidArgumentError,
    InvalidInputError,
    NumericError,
    SamplerStallError,
    SipfError,
)
from .geometry import (
    UnitQuaternion,
    apply_rotation,
    knn_graph,
    quat_to_matrix,
    random_rotation,
)
from .lrf import FRAME_MODE_BARYCENTER, FRAME_MODE_NORMAL, try_build_all_lrfs
from .training import (
    DEFAULT_N_CLOUDS,
    DEFAULT_POINTS_PER_CLOUD,
    ToyTaskConfig,
    make_wingtip_dataset,
    metrics_to_jsonl,
    train_toy,
)

__all__ = ["main", "load_config"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANCE = 2
EXIT_NUMERIC = 3

INVARIANCE_THRESHOLD = 1e-8
DEMO_SIPF_TARGET = 0.95
DEMO_PPF_CEILING = 0.60
_DATASET_SEED_OFFSET = 1000


def load_config(path: str | None) -> ToyTaskConfig:
    """Parse and validate a config file; unknown keys and bad values fail fast."""
    if path is None:
        return ToyTaskConfig()
    try:
        with open(path, "r") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInputError("config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(ToyTaskConfig)}
    for key in raw:
        if key not in known:
            raise InvalidInputError(f"unknown config key {key!r}")
    try:
        return ToyTaskConfig(**raw)
    except InvalidArgumentError as exc:
        raise InvalidInputError(f"config field {exc}") from exc


def _apply_overrides(config: ToyTaskConfig, args) -> ToyTaskConfig:
    overrides = {
        "seed": getattr(args, "seed", None),
        "k": getattr(args, "k", None),
        "descriptor_mask": getattr(args, "mask", None),
    }
    return dataclasses.replace(config, **{n: v for n, v in overrides.items() if v is not None})


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out_path, text)


def _parse_quaternion(text: str) -> UnitQuaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidArgumentError("--rotation expects w,x,y,z")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidArgumentError(f"--rotation has a non-numeric component: {exc}") from exc
    return UnitQuaternion.from_array(values)


def _random_bingham_seed(rng) -> bingham.BinghamSeed:
    return bingham.BinghamSeed(rng.standard_normal(4), rng.standard_normal(3))


def _seeded_shadow_rotation(seed: int):
    """Mode of the Bingham distribution that ``bingham mode --seed`` reports."""
    seed_params = _random_bingham_seed(np.random.default_rng(seed))
    return quat_to_matrix(bingham.mode(bingham.params_from_seed(seed_params)))


def _field_inputs(args):
    """The inputs of ``features`` and ``verify-invariance``: config, cloud, graph, frames, shadow, valid.

    Row policy: a point with a degenerate frame, on its own shadow (on the
    rotation axis; the origin for every rotation) or coincident with one of
    its neighbours is dropped with a warning line, and the number dropped is
    reported after them.  A coincident pair drops both of its points.
    """
    config = _apply_overrides(load_config(args.config), args)
    cloud = load_cloud(args.input)
    graph = knn_graph(cloud, config.k)
    mode_name = FRAME_MODE_NORMAL if cloud.normals is not None else FRAME_MODE_BARYCENTER
    frames, frame_valid = try_build_all_lrfs(cloud, graph, mode_name)
    if args.rotation is not None:
        rot = quat_to_matrix(_parse_quaternion(args.rotation))
    else:
        rot = _seeded_shadow_rotation(config.seed)
    shadow = shadow_of(cloud, frames, rot)
    moved = np.linalg.norm(shadow.points - cloud.points, axis=1) >= COINCIDENT_DISTANCE_FLOOR
    for i in np.nonzero(~frame_valid)[0]:
        sys.stderr.write(f"warning: degenerate frame at point {int(i)}; rows omitted\n")
    for i in np.nonzero(frame_valid & ~moved)[0]:
        sys.stderr.write(f"warning: shadow coincides with point {int(i)}; rows omitted\n")
    valid = frame_valid & moved
    pairs = coincident_pairs(cloud, graph)
    for i, j in pairs.tolist():
        sys.stderr.write(f"warning: coincident points {i} and {j}; rows omitted\n")
    valid[pairs.ravel()] = False
    n_bad = int((~valid).sum())
    if n_bad:
        sys.stderr.write(f"warning: {n_bad} point(s) omitted\n")
    return config, cloud, graph, frames, shadow, valid


def _usable_edges(graph, valid):
    """(N, k) mask of the edges whose reference point and neighbour both survive the row policy."""
    return valid[:, None] & valid[graph.indices]


def cmd_features(args) -> int:
    _, cloud, graph, frames, shadow, valid = _field_inputs(args)
    field = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF, valid=valid)
    # np.nonzero walks the mask row-major: by reference point, then neighbour slot.
    ref, col = np.nonzero(_usable_edges(graph, valid))
    table = np.column_stack([ref, graph.indices[ref, col], field[ref, col]])
    header = "ref_index,nbr_index,ppf1,ppf2,ppf3,ppf4,sippf1,sippf2,sippf3,sippf4\n"
    _emit(header + format_rows(table, n_int=2), args.out)
    return EXIT_OK


def _rotate_field_inputs(cloud, frames, shadow, rotation):
    m = rotation.matrix
    shadow_r = ShadowCloud(points=shadow.points @ m, frames=shadow.frames @ m, rotation=shadow.rotation)
    return apply_rotation(cloud, rotation), frames @ m, shadow_r


def cmd_verify_invariance(args) -> int:
    if args.trials < 1:
        raise InvalidArgumentError("--trials must be >= 1")
    # Dropped points stay dropped under every joint rotation: a frame and a
    # shadow offset rotate with the cloud.
    config, cloud, graph, frames, shadow, valid = _field_inputs(args)
    keep = _usable_edges(graph, valid)
    if not keep.any():
        raise InvalidInputError("no descriptor row is usable: every point or every neighbor was omitted")
    base = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF, valid=valid)
    # Trial rotations draw from a stream decoupled from the shadow seed: the
    # seed-derived mode is the raw seed quaternion composed with a fixed
    # half-turn, so a shared stream can make trial and shadow rotations agree
    # on axis points and produce exact coincidences.
    rng = np.random.default_rng([config.seed, 1])
    worst = 0.0
    for _ in range(args.trials):
        rnd = random_rotation(rng)
        cloud_r, frames_r, shadow_r = _rotate_field_inputs(cloud, frames, shadow, rnd)
        if args.break_shadow:
            shadow_r = shadow  # negative control: shadow left out of the joint rotation
        dev = sipf_field(cloud_r, frames_r, graph, shadow_r, mask=MASK_SIPF, valid=valid)
        np.abs(np.subtract(dev, base, out=dev), out=dev)
        # Deviations are >= 0, so zeroing the unusable edges leaves the maximum of the rest.
        dev[~keep] = 0.0
        # max() drops a NaN trial, as every comparison with NaN is false: keep it, so that it fails.
        trial = float(dev.max())
        worst = trial if np.isnan(trial) else max(worst, trial)
    passed = worst <= INVARIANCE_THRESHOLD
    report = {
        "trials": args.trials,
        # JSON has no NaN or infinity: a non-finite deviation, which fails, reads null.
        "max_abs_deviation": worst if np.isfinite(worst) else None,
        "threshold": INVARIANCE_THRESHOLD,
        "break_shadow": bool(args.break_shadow),
        "pass": passed,
    }
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.out)
    return EXIT_OK if passed else EXIT_INVARIANCE


def _bingham_seed_from_args(args, config: ToyTaskConfig):
    if (args.z1 is None) != (args.z2 is None):
        raise InvalidArgumentError("--z1 and --z2 must be given together")
    if args.z1 is not None:
        try:
            z1 = [float(v) for v in args.z1.split(",")]
            z2 = [float(v) for v in args.z2.split(",")]
        except ValueError as exc:
            raise InvalidArgumentError(f"--z1/--z2 have a non-numeric component: {exc}") from exc
        if len(z1) != 4 or len(z2) != 3:
            raise InvalidArgumentError("--z1 needs 4 components and --z2 needs 3")
        return bingham.BinghamSeed(np.array(z1), np.array(z2)), None
    rng = np.random.default_rng(config.seed)
    return _random_bingham_seed(rng), rng


def cmd_bingham(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    seed, rng = _bingham_seed_from_args(args, config)
    params = bingham.params_from_seed(seed)
    if args.bingham_cmd == "sample":
        if args.n < 1:
            raise InvalidArgumentError("-n must be >= 1")
        if rng is None:
            rng = np.random.default_rng(config.seed)
        samples = bingham.sample(params, rng, args.n)
        _emit("w,x,y,z\n" + format_rows(samples, n_int=0), args.out)
    elif args.bingham_cmd == "entropy":
        res = bingham.normalization(params)
        report = {
            "lambda": params.lambdas.tolist(),
            "F": res.F,
            "gradF": res.gradF.tolist(),
            "entropy": res.entropy,
        }
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", bingham.IdentityModeWarning)
            q = bingham.mode(params)
        sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
        report = {
            "quaternion": [q.w, q.x, q.y, q.z],
            "matrix": quat_to_matrix(q).matrix.tolist(),
        }
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _run_toy(config: ToyTaskConfig, mask: str):
    dataset = make_wingtip_dataset(
        n_clouds=DEFAULT_N_CLOUDS,
        points_per_cloud=DEFAULT_POINTS_PER_CLOUD,
        noise_sigma=0.0,
        seed=config.seed + _DATASET_SEED_OFFSET,
    )
    return train_toy(dataset, dataclasses.replace(config, descriptor_mask=mask))


def cmd_demo_wingtip(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from exc
    runs = [("sipf", MASK_SIPF), ("ppf", MASK_PPF)]
    extra = getattr(args, "mask", None)
    if extra is not None and extra not in (MASK_SIPF, MASK_PPF):
        runs.append((extra.replace("-", "_"), extra))
    summary = {}
    for name, mask in runs:
        result = _run_toy(config, mask)
        accs = [m["accuracy"] for m in result.metrics]
        write_text_atomic(
            os.path.join(out_dir, f"metrics-{mask}.jsonl"), metrics_to_jsonl(result.metrics)
        )
        summary[f"{name}_accuracy"] = max(accs)
        summary[f"{name}_final_accuracy"] = accs[-1]
        if name == "sipf":
            reached = [m["epoch"] for m in result.metrics if m["accuracy"] >= DEMO_SIPF_TARGET]
            summary["sipf_first_epoch_at_target"] = reached[0] if reached else None
            summary["b1_max_score"] = result.b1_max_score
            summary["b2_min_distance_rad"] = result.b2_min_distance_rad
    summary["collapse_confirmed"] = bool(
        summary["ppf_accuracy"] <= DEMO_PPF_CEILING
        and summary["sipf_accuracy"] >= DEMO_SIPF_TARGET
    )
    summary["degeneracy_flagged"] = bool(
        summary["b1_max_score"] > B1_SCORE_THRESHOLD
        or summary["b2_min_distance_rad"] < B2_DISTANCE_THRESHOLD_RAD
    )
    write_text_atomic(
        os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n"
    )
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    result = _run_toy(config, config.descriptor_mask)
    _emit(metrics_to_jsonl(result.metrics), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipf",
        description="Rotation-invariant point-cloud descriptors with a learned shadow reference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_options(p):
        # The options _field_inputs reads, shared by the two field commands.
        p.add_argument("--input", required=True, help="point-cloud file (.xyz or ascii .ply)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--k", type=int, default=None, help="override neighborhood size")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--rotation", default=None, help="shadow rotation quaternion w,x,y,z")

    p = sub.add_parser("features", help="export per-edge descriptors as CSV")
    add_field_options(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("verify-invariance", help="check descriptor invariance under joint rotations")
    add_field_options(p)
    p.add_argument("--trials", type=int, required=True, help="number of random rotations")
    p.add_argument(
        "--break-shadow",
        action="store_true",
        help="test-only: skip shadow co-rotation (negative control)",
    )
    p.set_defaults(func=cmd_verify_invariance)

    p = sub.add_parser("bingham", help="rotation-distribution utilities")
    bsub = p.add_subparsers(dest="bingham_cmd", required=True)
    for name, help_text in (
        ("sample", "draw quaternions as CSV"),
        ("entropy", "normalization constant, gradient, and entropy as JSON"),
        ("mode", "mode quaternion and rotation matrix as JSON"),
    ):
        bp = bsub.add_parser(name, help=help_text)
        bp.add_argument("--config", default=None)
        bp.add_argument("--seed", type=int, default=None)
        bp.add_argument("--z1", default=None, help="explicit 4-dim seed a,b,c,d")
        bp.add_argument("--z2", default=None, help="explicit 3-dim seed a,b,c")
        bp.add_argument("--out", default=None)
        if name == "sample":
            bp.add_argument("-n", type=int, required=True, help="number of samples")
        bp.set_defaults(func=cmd_bingham)

    p = sub.add_parser("demo-wingtip", help="run the wing-tip collapse/rescue experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mask", choices=DESCRIPTOR_MASKS, default=None, help="additional mask to run")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo_wingtip)

    p = sub.add_parser("train-toy", help="train once with the configured descriptor mask")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mask", choices=DESCRIPTOR_MASKS, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, SamplerStallError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except SipfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
