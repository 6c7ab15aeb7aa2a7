"""Command-line surface: classify, derive, solve, verify, cone, smoothness,
report.

Outputs are deterministic: fixed float formatting, sorted JSON keys, and all
tolerance defaults embedded in every report.  Exit status 0 on success, 1
when a verification check misses its bar or an integration stops before its
end, 2 on invalid input or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .errors import (
    CSVError,
    IntegrationError,
    OrbitError,
    ProfileError,
    SeriesStartError,
    VerifyError,
)
from .homogeneous import MODEL_SPECS, ModelError, get_model, model_spec

# Each command imports the modules it runs, so that ``classify`` loads
# neither the flow nor the integrator nor the checks.


class InputError(ValueError):
    pass


def __getattr__(name):
    # ``holoflow.cli.derive_flow`` is ``holoflow.flow.derive_flow``, read from
    # ``flow`` on each access; perfbench/test_recorder.py asserts that it is
    # the wrapper its recorder patches onto ``flow``
    if name == "derive_flow":
        from .flow import derive_flow

        return derive_flow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _orbit_spec(args):
    from .integrate import OrbitSpec

    values = {}
    for name in model_spec(args.model).state_names:
        raw = getattr(args, f"{name}0", None)
        if raw is not None:
            values[name] = raw
    return OrbitSpec(args.model, args.orbit, values, negative_branch=args.negative_branch)


def _singular_spec(args):
    spec = _orbit_spec(args)
    if not spec.collapsing:
        raise InputError(f"{spec.orbit!r} is not a singular orbit of the {spec.model_kind} model")
    return spec


def _check_start(cfg, spec) -> None:
    """Reject a series start at or past ``--t-end`` before any model is built."""
    from .integrate import start_offset

    if spec.collapsing:
        offset = start_offset(spec, cfg.eps)
        if offset >= cfg.t_end:
            raise InputError(
                f"the series starts at t={offset:g}, not before --t-end {cfg.t_end:g}"
            )


#: a decimal with an exponent, as ``Fraction`` reads one: sign, whole digits,
#: fraction digits and exponent, each digit group with single underscores
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<whole>\d*|\d+(?:_\d+)*)(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?"
    r"e(?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z",
    re.IGNORECASE,
)


def _exact(raw: str) -> Fraction:
    """``Fraction(raw)``, except that a decimal with an exponent is first read
    from its digits: zero is 0, and a value beyond 400 decades either way,
    where no float lies, raises OverflowError.  Neither computes
    10**exponent, which for ``1e10000000`` takes seconds."""
    form = _EXPONENT_FORM.match(raw)
    if form is None:
        return Fraction(raw)
    frac = (form["frac"] or "").replace("_", "")
    # these int() calls raise ValueError where Fraction's own would, in its order
    mantissa = int(form["whole"] or "0") * 10 ** len(frac) + (int(frac) if frac else 0)
    exponent = int(form["exp"]) - len(frac)
    if not mantissa:
        return Fraction(0)
    # bit_length * log10(2), floored, is within 1 of log10(mantissa)
    if abs(mantissa.bit_length() * 30103 // 100000 + exponent) > 400:
        raise OverflowError
    return Fraction(raw)


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
            value = _exact(raw)
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


def _read_traj(args, kind: str):
    from .integrate import Trajectory

    try:
        return Trajectory.from_csv(args.traj, kind)
    except OSError as exc:
        raise InputError(f"cannot read --traj {args.traj}: {exc.strerror}") from exc
    except CSVError as exc:
        raise InputError(f"--traj {args.traj}: {exc}") from exc


def _config(args):
    """The ``IntegratorConfig`` of the integrator flags given; a flag not
    given keeps the config's default."""
    from .integrate import IntegratorConfig

    given = {name: getattr(args, name) for name in ("rtol", "atol", "t_end", "initial_step", "eps")}
    return IntegratorConfig(**{name: v for name, v in given.items() if v is not None})


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


# The integrator and bar flags default to None, "not given": ``_config`` and
# ``evaluate_bars`` read the defaults when a command runs, so the parser needs
# neither ``integrate`` nor ``verify``.


def _add_integrator_flags(p):
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--eps", type=float, default=None, help="series-start offset")
    p.add_argument("--initial-step", dest="initial_step", type=float, default=None)


def _add_bar_flags(p):
    p.add_argument("--cone-bar", type=float, default=None)
    p.add_argument("--closure-bar", type=float, default=None)
    p.add_argument("--closed-form-bar", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a help formatter for each argument added, and each asks
    # the terminal for its width; ask once and give every parser that width.
    # ``shutil`` is imported here, where argparse's formatter would import
    # it, so that importing the CLI does not load it
    import shutil

    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    ap = argparse.ArgumentParser(
        prog="holoflow",
        description="Derive, integrate and verify the invariant holonomy flows",
        formatter_class=formatter,
    )
    add_parser = functools.partial(
        ap.add_subparsers(dest="command", required=True).add_parser, formatter_class=formatter
    )

    p = add_parser("classify", help="admissibility of the embedding indices")
    _add_model_flags(p)

    p = add_parser("derive", help="derive the holonomy ODE system")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")

    p = add_parser("solve", help="integrate from a singular orbit, write CSV")
    _add_model_flags(p, with_indices=False)
    _add_orbit_flags(p)
    _add_integrator_flags(p)
    p.add_argument("--out", required=True)

    p = add_parser("verify", help="verify a stored trajectory CSV")
    _add_model_flags(p, with_indices=False)
    _add_orbit_flags(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default=None)
    _add_bar_flags(p)

    p = add_parser("cone", help="cone-limit sub-report for a trajectory CSV")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cone-bar", type=float, default=None)

    p = add_parser("smoothness", help="smoothness sub-report for one orbit")
    _add_model_flags(p, with_indices=False)
    p.add_argument("--orbit", required=True)
    p.add_argument("--out", default=None)

    p = add_parser("report", help="full pipeline for one orbit spec")
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
    sys_ = _model_from_args(args).derivation.sys
    if args.json is not None:
        _emit(sys_.to_json_dict(), args.json)
    else:
        for name in sys_.state:
            print(f"{name}' = {sys_.rhs[name]!r}")
    return 0


def cmd_solve(args) -> int:
    from .integrate import solve_orbit

    cfg = _config(args)
    spec = _orbit_spec(args)
    _check_start(cfg, spec)
    model = _model_from_args(args)
    traj, _ = solve_orbit(model.derivation.sys, spec, cfg)
    traj.require_done()
    traj.to_csv(args.out)
    print(f"wrote {traj.n_samples} samples to {args.out} (status: {traj.status})")
    return 0


def _bars(args) -> dict:
    """The closure, cone and closed-form bars as given; ``verify`` takes the
    default of each bar not given."""
    return {"closure": args.closure_bar, "cone": args.cone_bar, "closed_form": args.closed_form_bar}


def cmd_verify(args) -> int:
    from .verify import verify_trajectory

    model = _model_from_args(args)
    spec = _singular_spec(args)
    doc, code = verify_trajectory(model, spec, _read_traj(args, model.kind), _bars(args))
    _emit(doc, args.out)
    return code


def cmd_cone(args) -> int:
    from .verify import cone_fit, cone_location, evaluate_bars

    model = _model_from_args(args)
    traj = _read_traj(args, model.kind)
    cone = cone_fit(traj)
    doc = {"model": model.label, "cone": cone.to_json_dict()}
    code = evaluate_bars(doc, {"cone": args.cone_bar}, cone, where={"cone": cone_location(cone, traj)})
    _emit(doc, args.out)
    return code


def cmd_smoothness(args) -> int:
    from .verify import smoothness_report

    model = _model_from_args(args)
    rep = smoothness_report(model, args.orbit)
    doc = {"model": model.label, "orbit": args.orbit, "smoothness": rep.to_json_dict()}
    _emit(doc, args.out)
    return 0


def cmd_report(args) -> int:
    from .verify import run_report

    cfg = _config(args)
    spec = _singular_spec(args)
    _check_start(cfg, spec)
    doc, code, traj = run_report(_model_from_args(args), spec, cfg, _bars(args))
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
