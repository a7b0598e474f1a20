"""Batch experiment driver with reproducible JSON reports.

Subcommands: validate, osc, discretize. Configuration is a
flat JSON document with kebab-case keys; any key can be overridden on the
command line by the flag of the same name. Exit codes: 0 success,
1 property failure, 2 configuration error (including a file that cannot be
read, decoded or written), 3 certification refusal, 4 numerical failure
(including running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .coverings import Covering, covering_from_json, singleton_covering, \
    uniform_covering, validate_covering, weight_compatibility
from .errors import CertificationError, SingularOperatorError, StructuralError
from .models import FrameModel, build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model
from .oscillation import PhaseFunction, oscillation_report, refine_until
from .pipeline import run_discretization
from .quadrature import load_space
from .spaces import WeightedLp

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_NUMERICAL = 4

MAX_POINTS = 4096

DEFAULTS = {
    "model-kind": "gabor",
    "n-time": 12,
    "n-freq": 12,
    "window-width": 3.0,
    "dim": 8,
    "n-points": 64,
    "smoothness": 1.5,
    "model-seed": 0,
    "grid-file": None,
    "weight-rule": "one",
    "weight-scale": 1.0,
    "p": 2,
    "delta": 0.25,
    "covering-width": None,
    "covering-overlap": 0.0,
    "covering-sets": None,
    "refine-max-rounds": 12,
    "gamma": "kernel",
    "inversion-method": "neumann",
    "inversion-tol": 1e-12,
    "inversion-n-max": 200,
    "n-trials": 50,
    "seed": 0,
    "tol-atomic": 1e-8,
    "tol-banach": 1e-8,
    "tol-duality": 1e-10,
    "tol-cross": 1e-9,
    "output": None,
}


def _parse_widths(width):
    """``covering-width`` as "singleton", None, one float, or a list of
    per-axis floats (given as "1,0.0745" on the command line or a JSON list)."""
    if width is None or width == "singleton":
        return width
    parts = width.split(",") if isinstance(width, str) else width
    if not isinstance(parts, (list, tuple)):
        parts = [parts]
    try:
        widths = [float(w) for w in parts]
    except (TypeError, ValueError):
        widths = []
    if not widths:
        raise StructuralError(f"covering-width {width!r} is not a number or a "
                              f"list of numbers")
    return widths[0] if len(widths) == 1 else widths


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        unknown = set(doc) - set(DEFAULTS) - {"schema-version"}
        if unknown:
            raise StructuralError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(doc)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    # numeric keys take the type of their default; p is a float or "inf";
    # an integer key takes only integral numbers, and no key takes a boolean
    for key, default in DEFAULTS.items():
        if not isinstance(default, (int, float)) or (key == "p" and cfg[key] == "inf"):
            continue
        kind = float if key == "p" else type(default)
        value = cfg[key]
        try:
            if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                           and not value.is_integer()):
                raise ValueError
            cfg[key] = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructuralError(
                f"{key}: {value!r} is not a valid {kind.__name__}") from exc
        if kind is float and not np.isfinite(cfg[key]):
            raise StructuralError(f"{key}: {cfg[key]!r} is not finite")
    if isinstance(cfg.get("covering-sets"), str):
        cfg["covering-sets"] = json.loads(cfg["covering-sets"])
    cfg["covering-width"] = _parse_widths(cfg.get("covering-width"))
    return cfg


def validate_config(cfg: dict) -> None:
    if cfg["model-kind"] not in ("gabor", "random-smooth", "orthonormal"):
        raise StructuralError(f"unknown model kind {cfg['model-kind']!r}")
    for key in ("n-time", "n-freq", "dim", "n-points"):
        if cfg[key] <= 0:
            raise StructuralError(f"{key} must be positive")
    # the orthonormal model has one grid point per dimension
    points = {"gabor": cfg["n-time"] * cfg["n-freq"],
              "random-smooth": cfg["n-points"],
              "orthonormal": cfg["dim"]}[cfg["model-kind"]]
    if points > MAX_POINTS:
        raise StructuralError(f"{cfg['model-kind']} grid of {points} points "
                              f"exceeds the {MAX_POINTS}-point cap")
    if cfg["p"] not in (1, 2, "inf") and cfg["p"] not in (1.0, 2.0):
        raise StructuralError("p must be 1, 2 or 'inf'")
    if cfg["delta"] < 0:
        raise StructuralError("delta must be nonnegative")
    if cfg["seed"] < 0 or cfg["model-seed"] < 0:
        raise StructuralError("seed and model-seed must be nonnegative")
    if cfg["n-trials"] < 1 or cfg["inversion-n-max"] < 1:
        raise StructuralError("n-trials and inversion-n-max must be at least 1")
    if cfg["inversion-tol"] <= 0:
        raise StructuralError("inversion-tol must be positive")
    if cfg["covering-overlap"] < 0:
        raise StructuralError("covering-overlap must be nonnegative")
    if cfg["weight-rule"] not in ("one", "exp", "power"):
        raise StructuralError(f"unknown weight rule {cfg['weight-rule']!r}")
    if cfg["gamma"] not in ("one", "kernel"):
        raise StructuralError(f"unknown phase rule {cfg['gamma']!r}")
    if cfg["inversion-method"] not in ("neumann", "direct"):
        raise StructuralError(f"unknown inversion method {cfg['inversion-method']!r}")


def build_model(cfg: dict) -> FrameModel:
    kind = cfg["model-kind"]
    if kind == "gabor":
        return build_gabor_model(cfg["n-time"], cfg["n-freq"], cfg["window-width"])
    if kind == "random-smooth":
        return build_random_smooth_model(cfg["dim"], cfg["n-points"],
                                         cfg["smoothness"], cfg["model-seed"])
    return build_orthonormal_model(cfg["dim"])


def weighted_space_for(cfg: dict, space) -> WeightedLp:
    rule = cfg["weight-rule"]
    if rule == "one":
        w = np.ones(space.n_points)
    else:
        radius = np.linalg.norm(space.points, axis=1)
        if rule == "exp":
            w = np.exp(cfg["weight-scale"] * radius)
        else:
            w = (1.0 + radius ** 2) ** (cfg["weight-scale"] / 2.0)
    p = np.inf if cfg["p"] == "inf" else float(cfg["p"])
    return WeightedLp(space, p, w)


def build_covering_on(cfg: dict, space) -> Covering | None:
    if cfg["covering-sets"] is not None:
        return covering_from_json(space, {"sets": cfg["covering-sets"]})
    if cfg["covering-width"] is None:
        return None
    width = cfg["covering-width"]
    if width == "singleton":
        return singleton_covering(space)
    return uniform_covering(space, width, cfg["covering-overlap"])


def check_output(output: str | None) -> None:
    """Refuse an output path that cannot be written, before any work: a
    directory, a file in a missing directory, or a path without write
    permission. Nothing is created or truncated, so a run that fails
    later leaves no report."""
    if not output:
        return
    if os.path.isdir(output):
        raise StructuralError(f"output {output!r} is a directory")
    parent = os.path.dirname(os.path.abspath(output))
    if not os.path.isdir(parent):
        raise StructuralError(f"output {output!r}: directory {parent!r} "
                              f"does not exist")
    target = output if os.path.exists(output) else parent
    if not os.access(target, os.W_OK):
        raise StructuralError(f"output {output!r} is not writable")


def emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(cfg: dict) -> int:
    if cfg["grid-file"] is not None:
        space = load_space(cfg["grid-file"])
        if space.n_points > MAX_POINTS:
            raise StructuralError(f"grid exceeds the {MAX_POINTS}-point cap")
    else:
        space = build_model(cfg).space
    Y = weighted_space_for(cfg, space)
    weight = Y.weight2d()
    cov = build_covering_on(cfg, space)
    if cov is None:
        raise StructuralError("validate requires covering-sets or covering-width")
    doc = validate_covering(cov)
    doc["C_mU"] = weight_compatibility(cov, weight)
    doc["covering_id"] = cov.identifier()
    doc["schema_version"] = "1"
    emit(doc, cfg["output"])
    return EXIT_OK if doc["moderate"] else EXIT_PROPERTY


def cmd_osc(cfg: dict) -> int:
    model = build_model(cfg)
    Y = weighted_space_for(cfg, model.space)
    weight = Y.weight2d()
    cov = build_covering_on(cfg, model.space)
    if cov is None:
        report = refine_until(model, weight, cfg["delta"],
                              gamma_rule=cfg["gamma"],
                              max_rounds=cfg["refine-max-rounds"])
    else:
        gamma = PhaseFunction(model, cfg["gamma"])
        report = oscillation_report(model, cov, gamma, weight, cfg["delta"])
    doc = report.to_json_dict()
    doc["schema_version"] = "1"
    emit(doc, cfg["output"])
    return EXIT_OK if report.certified else EXIT_PROPERTY


def cmd_discretize(cfg: dict) -> int:
    model = build_model(cfg)
    Y = weighted_space_for(cfg, model.space)
    cov = build_covering_on(cfg, model.space)
    result = run_discretization(
        model, Y, cfg["delta"], covering=cov,
        gamma_rule=cfg["gamma"], method=cfg["inversion-method"],
        tol=cfg["inversion-tol"], n_max=cfg["inversion-n-max"],
        refine_max_rounds=cfg["refine-max-rounds"],
        n_trials=cfg["n-trials"], seed=cfg["seed"],
    )
    doc = result.to_json_dict()
    res = doc["residuals"]
    res_sw = doc["residuals_swapped"]
    checks = {
        "atomic": res["atomic_max"] <= cfg["tol-atomic"],
        "banach": res["banach_max"] <= cfg["tol-banach"],
        "duality": res["duality_max"] <= cfg["tol-duality"],
        "atomic_swapped": res_sw["atomic_max"] <= cfg["tol-atomic"],
        "banach_swapped": res_sw["banach_max"] <= cfg["tol-banach"],
        "duality_swapped": res_sw["duality_max"] <= cfg["tol-duality"],
        "bounds": doc["bounds"]["violations"] == 0,
    }
    if result.cross_method_gap is not None:
        checks["cross_method"] = result.cross_method_gap <= cfg["tol-cross"]
    doc["checks"] = checks
    doc["failing_checks"] = sorted(k for k, ok in checks.items() if not ok)
    emit(doc, cfg["output"])
    return EXIT_OK if all(checks.values()) else EXIT_PROPERTY


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    for key in DEFAULTS:
        parser.add_argument(f"--{key}", dest=key, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="framedisc",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "osc", "discretize"):
        _add_config_flags(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {k: getattr(args, k) for k in DEFAULTS}
        cfg = load_config(args.config, overrides)
        validate_config(cfg)
        check_output(cfg["output"])
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "osc":
            return cmd_osc(cfg)
        return cmd_discretize(cfg)
    except (StructuralError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"certification refused: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (SingularOperatorError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
