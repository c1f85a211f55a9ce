"""Command-line driver: derive, solve, correlate, spectrum.

Every command takes a model file.  ``derive`` writes the completed
equation archive plus a human-readable dump; ``solve`` integrates the
moment equations and writes a CSV; ``correlate`` and ``spectrum`` handle
the two-time correlation and its transform.  ``--oracle`` reruns the
observables through the dense master-equation backend and appends
reference columns with a deviation summary.

CSV layout (solve): t, then Re/Im of every stored average (conjugate
averages never get columns of their own), then one column per observable
(two for complex-valued ones).  All floats print with 12 significant
digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..algebra.qexpr import QExpr
from ..algebra.render import render_average
from ..algebra.scalars import ScalarExpr
from ..completion import complete, filter_by_name, missing_averages
from ..correlation import (build_correlation_system, correlation_trajectory,
                           decay_time, linearize_steady, spectrum_fourier,
                           spectrum_laplace)
from ..cumulant import OrderSpec
from ..errors import CqfError, DslError
from ..meanfield import meanfield_derive
from ..numerics import (StepperConfig, initial_state, integrate, lower,
                        state_mapping, steady_state)
from ..oracle import (TruncationSpec, ground_state, me_correlation, me_evolve,
                      me_steady)
from . import archive as archive_mod
from .dsl import ParsedModel, parse_model
from .observables import evaluate_observables

DEFAULT_OMEGA = (-np.pi, np.pi, 301)
DEFAULT_ORACLE_CUTOFF = 10


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            fh.write(",".join(_fmt(float(col[r])) for col in columns) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqf",
        description="moment-closure compiler for open quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("derive", "derive and close the moment equations, write an archive"),
        ("solve", "integrate the moment equations, write a CSV"),
        ("correlate", "compute a two-time correlation function"),
        ("spectrum", "compute a power spectrum"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("model", help="model definition file")
        cmd.add_argument("--order", help="expansion order (N or N,N,...)")
        cmd.add_argument("--filter", dest="filter_name",
                         choices=["none", "phase"], help="average filter preset")
        cmd.add_argument("--out", help="output path")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="NAME=VALUE", help="bind a parameter")
        if name == "derive":
            cmd.add_argument("--archive", help="archive output path")
            cmd.add_argument("--format", choices=["text", "latex"],
                             default="text", help="dump format")
        else:
            cmd.add_argument("--archive",
                             help="load a previously derived archive")
            cmd.add_argument("--method", choices=["rk4", "rk45"])
            cmd.add_argument("--dt", type=float)
            cmd.add_argument("--rtol", type=float)
            cmd.add_argument("--atol", type=float)
            cmd.add_argument("--oracle", action="store_true",
                             help="append master-equation reference columns")
            cmd.add_argument("--cutoff", action="append", default=[],
                             metavar="SPACE=N", help="oracle Fock cutoff")
        if name in ("correlate", "spectrum"):
            cmd.add_argument("--tau-max", type=float,
                             help="correlation window length")
            cmd.add_argument("--tau-points", type=int, default=2001)
            cmd.add_argument("--no-steady", action="store_true",
                             help="co-evolve single-time averages instead of "
                                  "assuming steady state")
        if name == "spectrum":
            cmd.add_argument("--omega", metavar="MIN:MAX:COUNT",
                             help="frequency grid (default -pi:pi:301)")
    return parser


def _parse_model_file(path: str) -> ParsedModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def _resolve_order(parsed: ParsedModel, args) -> OrderSpec:
    if getattr(args, "order", None):
        text = args.order
        try:
            orders = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise CqfError(f"--order expects N or N,N,..., got {text!r}") from None
        return OrderSpec.of(orders if "," in text else orders[0])
    if parsed.options.order is not None:
        return parsed.options.order
    raise CqfError("no expansion order given (model file 'order' or --order)")


def _resolve_filter(parsed: ParsedModel, args):
    name = getattr(args, "filter_name", None) or parsed.options.filter_name
    return None if name == "none" else filter_by_name(name)


def _resolve_params(parsed: ParsedModel, args) -> dict:
    values = dict(parsed.options.param_values)
    for item in getattr(args, "set", []):
        name, _, text = item.partition("=")
        try:
            values[name.strip()] = float(text)
        except ValueError:
            raise CqfError(f"--set expects NAME=VALUE, got {item!r}") from None
    declared = {p.name for p in parsed.model.parameters}
    unknown = set(values) - declared
    if unknown:
        raise CqfError("unknown parameters: " + ", ".join(sorted(unknown)))
    missing = declared - set(values)
    if missing:
        raise CqfError("parameters without values: " + ", ".join(sorted(missing)))
    return values


def _closed_equations(parsed: ParsedModel, args, progress=None):
    if getattr(args, "archive", None) and args.command != "derive":
        eqs = archive_mod.load(args.archive)
        print(f"loaded {len(eqs)} equations from {args.archive}")
        return eqs
    order = _resolve_order(parsed, args)
    filt = _resolve_filter(parsed, args)
    track = parsed.options.track
    if not track:
        raise CqfError("model file needs a 'track' line naming the seed operators")
    eqs = meanfield_derive(track, parsed.model, order, filt)
    closed = complete(eqs, progress=progress)
    print(f"derived {len(closed)} equations "
          f"(order {order.uniform or list(order.per_subspace)}, "
          f"filter {args.filter_name or parsed.options.filter_name})")
    return closed


def _stepper_values(parsed: ParsedModel, args, names) -> dict:
    """Each named setting from its flag, else from the model file, if given."""
    values = {}
    for name in names:
        value = getattr(args, name)
        if value is not None and not value > 0:
            raise CqfError(f"--{name} expects a positive number, got '{value:g}'")
        value = value if value is not None else getattr(parsed.options, name)
        if value is not None:
            values[name] = value
    return values


def _stepper(parsed: ParsedModel, args, tspan) -> StepperConfig:
    """Stepper from the flags over the model file; runs before any derivation."""
    values = _stepper_values(parsed, args, ("dt", "rtol", "atol"))
    method = (args.method or parsed.options.method
              or ("rk4" if "dt" in values else "rk45"))
    if method == "rk4" and "dt" not in values:
        values["dt"] = (tspan[1] - tspan[0]) / 5000.0
        print(f"note: fixed-step dt defaulted to {values['dt']:.6g}")
    return StepperConfig(method, **values)


def _oracle_setup(parsed: ParsedModel, args):
    """Truncation and initial density matrix for ``--oracle``, or None.

    Runs before anything is derived, so a bad ``--cutoff`` fails at once.
    """
    if not args.oracle:
        return None
    space = parsed.model.space
    fock_names = [f.name for f in space.factors if f.kind == "fock"]
    cutoffs = dict(parsed.options.cutoffs)
    for item in args.cutoff:
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            cutoffs[name] = int(value)
        except ValueError:
            raise CqfError(f"--cutoff expects SPACE=N, got {item!r}") from None
        if name not in fock_names:
            raise CqfError(f"--cutoff expects SPACE=N with SPACE one of the "
                           f"model's Fock spaces ({', '.join(fock_names)}), "
                           f"got {item!r}: no Fock space {name!r}")
    entries = []
    for k, f in enumerate(space.factors):
        if f.kind == "fock":
            entries.append((k, cutoffs.get(f.name, DEFAULT_ORACLE_CUTOFF)))
    trunc = TruncationSpec(tuple(entries))
    occupation = dict(parsed.options.oracle_state)
    rho0 = ground_state(space, trunc, occupation)
    return trunc, rho0


def cmd_derive(args) -> int:
    def progress(n):
        if n % 200 == 0:
            print(f"  ... {n} equations")

    closed = _closed_equations(_parse_model_file(args.model), args, progress)
    archive_path = args.archive or (args.model + ".eqs.json")
    archive_mod.save(closed, archive_path)
    print(f"archive written to {archive_path}")
    dump_path = args.out or (args.model + (".tex" if args.format == "latex"
                                           else ".txt"))
    with open(dump_path, "w", encoding="utf-8") as fh:
        fh.write(closed.latex() if args.format == "latex" else closed.render())
        fh.write("\n")
    print(f"equations written to {dump_path}")
    return 0


def _observable_columns(parsed, traj, order, filt, params, header, columns):
    obs = evaluate_observables(parsed.options.observables, traj, order, filt,
                              params)
    for name, series in obs.items():
        if np.iscomplexobj(series) and np.max(np.abs(series.imag)) > 1e-9:
            header.extend([f"Re[{name}]", f"Im[{name}]"])
            columns.extend([series.real, series.imag])
        else:
            header.append(name)
            columns.append(np.real(series))


def cmd_solve(args) -> int:
    parsed = _parse_model_file(args.model)
    params = _resolve_params(parsed, args)
    oracle = _oracle_setup(parsed, args)
    tspan = parsed.options.tspan
    if tspan is None:
        raise CqfError("model file needs a 'tspan' line")
    cfg = _stepper(parsed, args, tspan)
    closed = _closed_equations(parsed, args)
    if missing_averages(closed):
        raise CqfError("equation set is not closed")
    prog = lower(closed)
    bound = prog.bind(params)
    u0 = initial_state(prog.layout, parsed.options.initial)
    npts = 1001 if parsed.options.saveat is None else parsed.options.saveat
    saveat = np.linspace(tspan[0], tspan[1], npts)
    traj = integrate(bound, u0, tspan, cfg, saveat=saveat)

    header = ["t"]
    columns: list[np.ndarray] = [traj.times]
    for k, lhs in enumerate(prog.layout):
        name = render_average(lhs)
        header.extend([f"Re{name}", f"Im{name}"])
        columns.extend([traj.states[:, k].real, traj.states[:, k].imag])
    _observable_columns(parsed, traj, closed.order, closed.filter, params,
                        header, columns)

    if oracle:
        trunc, rho0 = oracle
        me = me_evolve(parsed.model, trunc, rho0, tspan, params=params,
                       saveat=saveat)
        for warning in me.warnings:
            print(f"oracle warning: {warning}")
        deviations = []
        for k, lhs in enumerate(prog.layout):
            op = QExpr(parsed.model.space, ((lhs.ops, ScalarExpr.one()),))
            ref = lhs.orient(me.expect(op))
            name = render_average(lhs)
            header.extend([f"ME:Re{name}", f"ME:Im{name}"])
            columns.extend([ref.real, ref.imag])
            deviations.append((name, float(np.max(np.abs(traj.states[:, k] - ref)))))
        worst = max(deviations, key=lambda kv: kv[1])
        print(f"oracle max deviation: {worst[1]:.3e} on {worst[0]}")

    out = args.out or (args.model + ".csv")
    write_csv(out, header, columns)
    print(f"wrote {out}")
    return 0


def _correlation_inputs(parsed: ParsedModel, args, params):
    """Correlation system, reference state and delay stepper; every flag is
    checked before anything is derived.

    The steady state is a Newton root and takes no stepper, and a steady
    delay system is solved exactly, so the delay stepper is None there.
    Co-evolved (``--no-steady``), the delay is integrated by rk45 at the
    resolved tolerances, and the run up to the reference time by the
    model's stepper.
    """
    if args.tau_points < 2:
        raise CqfError(f"--tau-points expects an integer of at least 2, "
                       f"got '{args.tau_points}'")
    if args.tau_max is not None and not args.tau_max > 0:
        raise CqfError(f"--tau-max expects a positive number, "
                       f"got '{args.tau_max:g}'")
    if parsed.options.correlation is None:
        raise CqfError("model file needs a 'correlation A, B' line")
    a_expr, b_expr = parsed.options.correlation
    steady = not args.no_steady
    adaptive = StepperConfig.rk45(**_stepper_values(parsed, args, ("rtol", "atol")))
    if steady and (args.dt is not None or args.method == "rk4"):
        flag = "--dt" if args.dt is not None else "--method rk4"
        raise CqfError(f"{flag} does not apply to a steady-state correlation, "
                       "whose delay is solved exactly: pass --no-steady")
    if not steady:
        tspan = parsed.options.tspan
        if tspan is None:
            raise CqfError("co-evolved correlations need a 'tspan' line to "
                           "reach the reference time t")
        cfg = _stepper(parsed, args, tspan)
        if args.tau_max is None:
            raise CqfError("co-evolved correlations need --tau-max")
    closed = _closed_equations(parsed, args)
    prog = lower(closed)
    bound = prog.bind(params)
    u0 = initial_state(prog.layout, parsed.options.initial)
    if steady:
        state = steady_state(bound, u0)
    else:
        state = integrate(bound, u0, tspan, cfg).final_state
    cs = build_correlation_system(a_expr, b_expr, closed, steady=steady)
    state_map = state_mapping(prog.layout, state)
    return cs, state_map, None if steady else adaptive


def _oracle_correlation(parsed: ParsedModel, args, params, oracle, taus):
    """The master equation's C(tau) at ``taus`` for ``--oracle``.

    Its reference state is the steady state, or with ``--no-steady`` the
    oracle's initial state evolved over ``tspan``, as the cumulant side's.
    """
    trunc, rho0 = oracle
    model = parsed.model
    if args.no_steady:
        rho = me_evolve(model, trunc, rho0, parsed.options.tspan, params).final
    else:
        rho = me_steady(model, trunc, rho0, params)
    a_expr, b_expr = parsed.options.correlation
    return me_correlation(model, trunc, a_expr, b_expr, rho, taus, params)


def cmd_correlate(args) -> int:
    parsed = _parse_model_file(args.model)
    params = _resolve_params(parsed, args)
    oracle = _oracle_setup(parsed, args)
    cs, state_map, cfg = _correlation_inputs(parsed, args, params)
    tau_max = (args.tau_max if args.tau_max is not None
               else decay_time(linearize_steady(cs, state_map, params)))
    taus = np.linspace(0.0, tau_max, args.tau_points)
    traj = correlation_trajectory(cs, state_map, (0.0, tau_max), cfg, params,
                                  saveat=taus)
    corr = traj.states[:, 0]
    header = ["tau", "ReC", "ImC"]
    columns = [traj.times, corr.real, corr.imag]
    if oracle:
        corr_me = _oracle_correlation(parsed, args, params, oracle, taus)
        header.extend(["ME:ReC", "ME:ImC"])
        columns.extend([corr_me.real, corr_me.imag])
        print(f"oracle max deviation: {np.max(np.abs(corr - corr_me)):.3e}")
    out = args.out or (args.model + ".corr.csv")
    write_csv(out, header, columns)
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    parsed = _parse_model_file(args.model)
    params = _resolve_params(parsed, args)
    if args.omega:
        try:
            lo, hi, count = args.omega.split(":")
            omegas = np.linspace(float(lo), float(hi), int(count))
        except ValueError:
            omegas = np.empty(0)
        if omegas.size == 0:
            raise CqfError("--omega expects MIN:MAX:COUNT with COUNT >= 1, "
                           f"got {args.omega!r}")
    else:
        omegas = np.linspace(*DEFAULT_OMEGA)
    oracle = _oracle_setup(parsed, args)
    cs, state_map, cfg = _correlation_inputs(parsed, args, params)
    if cs.steady:
        ls = linearize_steady(cs, state_map, params)
        result = spectrum_laplace(ls, omegas)
        for w in result.skipped:
            print(f"warning: singular resolvent at omega = {w:.6g}; point skipped")
    else:
        taus = np.linspace(0.0, args.tau_max, args.tau_points)
        traj = correlation_trajectory(cs, state_map, (0.0, args.tau_max), cfg,
                                      params, saveat=taus)
        result = spectrum_fourier(taus, traj.states[:, 0], omegas)
    header = ["omega", "S"]
    columns = [result.omegas, result.values]
    if oracle:
        taus = np.linspace(0.0, 60.0 if args.tau_max is None else args.tau_max,
                           max(args.tau_points, 4001))
        corr_me = _oracle_correlation(parsed, args, params, oracle, taus)
        s_me = spectrum_fourier(taus, corr_me, omegas).values
        header.append("ME:S")
        columns.append(s_me)
        scale = max(result.values.max(), 1e-300)
        dev = np.max(np.abs(result.values - s_me)) / scale
        print(f"oracle max relative deviation: {dev:.3e}")
    out = args.out or (args.model + ".spec.csv")
    write_csv(out, header, columns)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "solve": cmd_solve,
        "correlate": cmd_correlate,
        "spectrum": cmd_spectrum,
    }
    try:
        return handlers[args.command](args)
    except DslError as err:
        print(f"{args.model}:{err}", file=sys.stderr)
        return 1
    except CqfError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
