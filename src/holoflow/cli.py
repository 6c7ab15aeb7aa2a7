"""Command-line surface: classify, derive, solve, verify, cone, smoothness,
report.

Outputs are deterministic: fixed float formatting, sorted JSON keys, and all
tolerance defaults embedded in every report.  Exit status 0 on success, 1
when a verification check misses its bar or an integration stops before its
end, 2 on invalid input or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .closed_form import ProfileError
from .flow import derivation
from .flow import derive_flow  # noqa: F401  (kept importable; perfbench/test_recorder.py patches it here)
from .homogeneous import MODEL_SPECS, ModelError, get_model, model_spec
from .integrate import (
    CSVError,
    IntegrationError,
    IntegratorConfig,
    OrbitError,
    OrbitSpec,
    SeriesStartError,
    Trajectory,
    solve_orbit,
    start_offset,
)
from .verify import (
    DEFAULT_BARS,
    VerifyError,
    cone_fit,
    evaluate_bars,
    run_report,
    smoothness_report,
    verify_trajectory,
)


class InputError(ValueError):
    pass


#: the initial-value flags, ``--<x>0`` for each state name of either model
VALUE_FLAGS = tuple(
    dict.fromkeys(x + "0" for spec in MODEL_SPECS.values() for x in spec.state_names)
)


def _model_from_args(args):
    """The model of ``--model`` with its ``--k``, ``--l``, ``--m``, each 1
    when not given: Q(1,1,1) or M(1,1) for every command but classify."""
    names = model_spec(args.model).index_names
    if getattr(args, "m", None) is not None and "m" not in names:
        raise InputError("--m applies only to the Q model; M(k, l) takes --k and --l")
    indices = (getattr(args, n, None) for n in names)
    return get_model(args.model, tuple(1 if i is None else i for i in indices))


def _orbit_spec(args) -> OrbitSpec:
    values = {}
    for name in model_spec(args.model).state_names:
        raw = getattr(args, f"{name}0", None)
        if raw is not None:
            values[name] = raw
    try:
        return OrbitSpec(args.model, args.orbit, values, negative_branch=args.negative_branch)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _singular_spec(args) -> OrbitSpec:
    spec = _orbit_spec(args)
    if not spec.collapsing:
        raise InputError(f"{spec.orbit!r} is not a singular orbit of the {spec.model_kind} model")
    return spec


def _check_start(args, spec: OrbitSpec) -> None:
    """Reject a series start at or past ``--t-end`` before any model is built."""
    if spec.collapsing:
        offset = start_offset(spec, args.eps)
        if offset >= args.t_end:
            raise InputError(
                f"the series starts at t={offset:g}, not before --t-end {args.t_end:g}"
            )


def _check_args(args) -> None:
    """Reject malformed numeric input before any model is built.

    The exact initial values are parsed here, in place, so the commands
    receive Fractions.
    """
    for name in VALUE_FLAGS:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        try:
            value = Fraction(raw)
            if value and float(value) == 0.0:  # below float range; above it, float() overflows
                raise OverflowError
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(
                f"--{name} must be an exact number such as 3, 0.5 or 2/3, got {raw!r}"
            ) from exc
        except OverflowError as exc:
            raise InputError(f"--{name} must lie within float range, got {raw!r}") from exc
        setattr(args, name, value)
    checks = (
        ("t_end", "--t-end", "> 0"),
        ("rtol", "--rtol", "> 0"),
        ("atol", "--atol", "> 0"),
        ("eps", "--eps", "> 0"),
        ("initial_step", "--initial-step", ">= 0"),
        ("cone_bar", "--cone-bar", "> 0"),
        ("closure_bar", "--closure-bar", "> 0"),
        ("closed_form_bar", "--closed-form-bar", "> 0"),
    )
    for attr, flag, rule in checks:
        value = getattr(args, attr, None)
        if value is None:
            continue
        in_range = value > 0 if rule == "> 0" else value >= 0
        if not (math.isfinite(value) and in_range):
            raise InputError(f"{flag} must be finite and {rule}, got {value}")


def _read_traj(args, kind: str) -> Trajectory:
    try:
        return Trajectory.from_csv(args.traj, kind)
    except OSError as exc:
        raise InputError(f"cannot read --traj {args.traj}: {exc.strerror}") from exc
    except CSVError as exc:
        raise InputError(f"--traj {args.traj}: {exc}") from exc


def _config(args) -> IntegratorConfig:
    return IntegratorConfig(
        rtol=args.rtol,
        atol=args.atol,
        t_end=args.t_end,
        initial_step=args.initial_step,
        eps=args.eps,
    )


def _emit(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_model_flags(p, with_indices=True):
    kinds = list(MODEL_SPECS)
    p.add_argument("--model", required=True, choices=[k.lower() for k in kinds] + kinds)
    if with_indices:
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--m", type=int, default=None)


def _add_orbit_flags(p):
    p.add_argument("--orbit", required=True)
    for name in VALUE_FLAGS:
        p.add_argument(f"--{name}", default=None, help="exact initial value (fraction ok)")
    p.add_argument("--negative-branch", action="store_true")


def _add_integrator_flags(p):
    defaults = IntegratorConfig
    p.add_argument("--rtol", type=float, default=defaults.rtol)
    p.add_argument("--atol", type=float, default=defaults.atol)
    p.add_argument("--t-end", dest="t_end", type=float, default=defaults.t_end)
    p.add_argument("--eps", type=float, default=defaults.eps, help="series-start offset")
    p.add_argument("--initial-step", dest="initial_step", type=float, default=defaults.initial_step)


def _add_bar_flags(p):
    p.add_argument("--cone-bar", type=float, default=DEFAULT_BARS["cone"])
    p.add_argument("--closure-bar", type=float, default=None)
    p.add_argument("--closed-form-bar", type=float, default=DEFAULT_BARS["closed_form"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holoflow",
        description="Derive, integrate and verify the invariant holonomy flows",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="admissibility of the embedding indices")
    _add_model_flags(p)

    p = sub.add_parser("derive", help="derive the holonomy ODE system")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")

    p = sub.add_parser("solve", help="integrate from a singular orbit, write CSV")
    _add_model_flags(p, with_indices=False)
    _add_orbit_flags(p)
    _add_integrator_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a stored trajectory CSV")
    _add_model_flags(p, with_indices=False)
    _add_orbit_flags(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default=None)
    _add_bar_flags(p)

    p = sub.add_parser("cone", help="cone-limit sub-report for a trajectory CSV")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cone-bar", type=float, default=DEFAULT_BARS["cone"])

    p = sub.add_parser("smoothness", help="smoothness sub-report for one orbit")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--orbit", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="full pipeline for one orbit spec")
    _add_model_flags(p, with_indices=False)
    _add_orbit_flags(p)
    _add_integrator_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--traj-out", default=None, help="also write the trajectory CSV")
    _add_bar_flags(p)

    return ap


def cmd_classify(args) -> int:
    model = _model_from_args(args)
    from .homogeneous import classify_invariant_g2

    verdict = classify_invariant_g2(model)
    print(f"model: {model.label}")
    print(f"admissible: {'true' if verdict else 'false'}")
    return 0


def cmd_derive(args) -> int:
    sys_ = derivation(_model_from_args(args)).sys
    if args.json is not None:
        _emit(sys_.to_json_dict(), args.json)
    else:
        for name in sys_.state:
            print(f"{name}' = {sys_.rhs[name]!r}")
    return 0


def cmd_solve(args) -> int:
    spec = _orbit_spec(args)
    _check_start(args, spec)
    model = _model_from_args(args)
    cfg = _config(args)
    traj, _ = solve_orbit(derivation(model).sys, spec, cfg)
    traj.require_done()
    traj.to_csv(args.out)
    print(f"wrote {traj.n_samples} samples to {args.out} (status: {traj.status})")
    return 0


def _bars(args) -> dict:
    return {"closure": args.closure_bar, "cone": args.cone_bar, "closed_form": args.closed_form_bar}


def cmd_verify(args) -> int:
    model = _model_from_args(args)
    spec = _singular_spec(args)
    doc, code = verify_trajectory(model, spec, _read_traj(args, model.kind), _bars(args))
    _emit(doc, args.out)
    return code


def cmd_cone(args) -> int:
    model = _model_from_args(args)
    traj = _read_traj(args, model.kind)
    cone = cone_fit(traj)
    doc = {"model": model.label, "cone": cone.to_json_dict()}
    code = evaluate_bars(doc, {"cone": args.cone_bar}, cone)
    _emit(doc, args.out)
    return code


def cmd_smoothness(args) -> int:
    model = _model_from_args(args)
    try:
        rep = smoothness_report(model, args.orbit)
    except VerifyError as exc:
        raise InputError(str(exc)) from exc
    doc = {"model": model.label, "orbit": args.orbit, "smoothness": rep.to_json_dict()}
    _emit(doc, args.out)
    return 0


def cmd_report(args) -> int:
    spec = _singular_spec(args)
    _check_start(args, spec)
    doc, code, traj = run_report(_model_from_args(args), spec, _config(args), _bars(args))
    if args.traj_out:
        traj.to_csv(args.traj_out)
    _emit(doc, args.out)
    return code


COMMANDS = {
    "classify": cmd_classify,
    "derive": cmd_derive,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "cone": cmd_cone,
    "smoothness": cmd_smoothness,
    "report": cmd_report,
}


#: errors that invalid input raises; anything else is a bug and shows its traceback
INPUT_ERRORS = (InputError, ModelError, OrbitError, ProfileError, SeriesStartError, VerifyError)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_args(args)
        return COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be written; --traj reads raise InputError
        print(f"error: cannot write {exc.filename or 'the output'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
