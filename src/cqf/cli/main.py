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

from ..algebra.averages import average_symbol
from ..algebra.qexpr import QExpr
from ..algebra.render import render_average
from ..algebra.scalars import ScalarExpr
from ..completion import complete, filter_by_name, missing_averages
from ..correlation import (build_correlation_system, correlation_trajectory,
                           decay_time, initial_values, linearize_steady,
                           spectrum_fourier, spectrum_laplace)
from ..cumulant import OrderSpec
from ..errors import CqfError, DslError
from ..meanfield import meanfield_derive
from ..numerics import (StepperConfig, initial_state, integrate, lower,
                        state_mapping, steady_state)
from ..oracle import TruncationSpec, ground_state, me_evolve, me_spectrum, to_matrix
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
        ("correlate", "integrate a two-time correlation function"),
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
        if "," in text:
            return OrderSpec.of(tuple(int(x) for x in text.split(",")))
        return OrderSpec.of(int(text))
    if parsed.options.order is not None:
        return parsed.options.order
    raise CqfError("no expansion order given (model file 'order' or --order)")


def _resolve_filter(parsed: ParsedModel, args):
    name = getattr(args, "filter_name", None) or parsed.options.filter_name
    return None if name == "none" else filter_by_name(name)


def _resolve_params(parsed: ParsedModel, args) -> dict:
    values = dict(parsed.options.param_values)
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise CqfError(f"--set expects NAME=VALUE, got {item!r}")
        name, _, text = item.partition("=")
        values[name.strip()] = float(text)
    declared = {p.name for p in parsed.model.parameters}
    unknown = set(values) - declared
    if unknown:
        raise CqfError("unknown parameters: " + ", ".join(sorted(unknown)))
    missing = declared - set(values)
    if missing:
        raise CqfError("parameters without values: " + ", ".join(sorted(missing)))
    return values


def _closed_equations(parsed: ParsedModel, args, quiet=False):
    if getattr(args, "archive", None) and args.command != "derive":
        eqs = archive_mod.load(args.archive)
        if not quiet:
            print(f"loaded {len(eqs)} equations from {args.archive}")
        return eqs
    order = _resolve_order(parsed, args)
    filt = _resolve_filter(parsed, args)
    track = parsed.options.track
    if not track:
        raise CqfError("model file needs a 'track' line naming the seed operators")
    eqs = meanfield_derive(track, parsed.model, order, filt)
    closed = complete(eqs)
    if not quiet:
        print(f"derived {len(closed)} equations "
              f"(order {order.uniform or list(order.per_subspace)}, "
              f"filter {parsed.options.filter_name if getattr(args, 'filter_name', None) is None else args.filter_name})")
    return closed


def _stepper(parsed: ParsedModel, args, tspan) -> StepperConfig:
    opts = parsed.options
    method = getattr(args, "method", None) or opts.method
    dt = getattr(args, "dt", None) if getattr(args, "dt", None) is not None else opts.dt
    rtol = getattr(args, "rtol", None) if getattr(args, "rtol", None) is not None else opts.rtol
    atol = getattr(args, "atol", None) if getattr(args, "atol", None) is not None else opts.atol
    if method is None:
        method = "rk4" if dt is not None else None
    if method == "rk4":
        if dt is None:
            dt = (tspan[1] - tspan[0]) / 5000.0
            print(f"note: fixed-step dt defaulted to {dt:.6g}")
        return StepperConfig.rk4(dt)
    if method == "rk45" or method is None:
        return StepperConfig.rk45(rtol=rtol or 1e-8, atol=atol or 1e-10,
                                  dt=dt)
    raise CqfError(f"unknown method {method!r}")


def _oracle_setup(parsed: ParsedModel, args):
    cutoffs = dict(parsed.options.cutoffs)
    for item in getattr(args, "cutoff", []):
        name, _, value = item.partition("=")
        cutoffs[name.strip()] = int(value)
    space = parsed.model.space
    entries = []
    for k, f in enumerate(space.factors):
        if f.kind == "fock":
            entries.append((k, cutoffs.get(f.name, DEFAULT_ORACLE_CUTOFF)))
    trunc = TruncationSpec(tuple(entries))
    occupation = dict(parsed.options.oracle_state)
    rho0 = ground_state(space, trunc, occupation)
    return trunc, rho0


def cmd_derive(args) -> int:
    parsed = _parse_model_file(args.model)
    progress_every = 200

    order = _resolve_order(parsed, args)
    filt = _resolve_filter(parsed, args)
    if not parsed.options.track:
        raise CqfError("model file needs a 'track' line naming the seed operators")
    eqs = meanfield_derive(parsed.options.track, parsed.model, order, filt)

    count_holder = [0]

    def progress(n):
        count_holder[0] = n
        if n % progress_every == 0:
            print(f"  ... {n} equations")

    closed = complete(eqs, progress=progress)
    print(f"derived {len(closed)} equations")
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
    closed = _closed_equations(parsed, args)
    if missing_averages(closed):
        raise CqfError("equation set is not closed")
    tspan = parsed.options.tspan
    if tspan is None:
        raise CqfError("model file needs a 'tspan' line")
    cfg = _stepper(parsed, args, tspan)
    prog = lower(closed)
    bound = prog.bind(params)
    u0 = initial_state(prog.layout, parsed.options.initial)
    npts = parsed.options.saveat or 1001
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

    if args.oracle:
        trunc, rho0 = _oracle_setup(parsed, args)
        me = me_evolve(parsed.model, trunc, rho0, tspan, params=params,
                       saveat=saveat)
        for warning in me.warnings:
            print(f"oracle warning: {warning}")
        deviations = []
        for k, lhs in enumerate(prog.layout):
            op = QExpr(parsed.model.space, ((lhs.ops, ScalarExpr.one()),))
            ref = me.expect(op)
            if lhs.conjugated:
                ref = ref.conjugate()
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
    if parsed.options.correlation is None:
        raise CqfError("model file needs a 'correlation A, B' line")
    a_expr, b_expr = parsed.options.correlation
    closed = _closed_equations(parsed, args)
    prog = lower(closed)
    bound = prog.bind(params)
    u0 = initial_state(prog.layout, parsed.options.initial)
    steady = not args.no_steady
    if steady:
        state = steady_state(bound, u0)
    else:
        tspan = parsed.options.tspan
        if tspan is None:
            raise CqfError("co-evolved correlations need a 'tspan' line to "
                           "reach the reference time t")
        cfg = _stepper(parsed, args, tspan)
        state = integrate(bound, u0, tspan, cfg).final_state
    cs = build_correlation_system(a_expr, b_expr, closed, steady=steady)
    state_map = state_mapping(prog.layout, state)
    return closed, cs, state_map, a_expr, b_expr


def _tau_window(cs, state_map, params, args):
    if args.tau_max is not None:
        return args.tau_max
    if cs.steady:
        ls = linearize_steady(cs, state_map, params)
        return decay_time(ls)
    raise CqfError("co-evolved correlations need --tau-max")


def cmd_correlate(args) -> int:
    parsed = _parse_model_file(args.model)
    params = _resolve_params(parsed, args)
    closed, cs, state_map, a_expr, b_expr = _correlation_inputs(parsed, args, params)
    tau_max = _tau_window(cs, state_map, params, args)
    taus = np.linspace(0.0, tau_max, args.tau_points)
    traj = correlation_trajectory(cs, state_map, (0.0, tau_max),
                                  StepperConfig.rk45(), params, saveat=taus)
    corr = traj.states[:, 0]
    header = ["tau", "ReC", "ImC"]
    columns = [traj.times, corr.real, corr.imag]
    if args.oracle:
        trunc, rho0 = _oracle_setup(parsed, args)
        omegas = np.linspace(*DEFAULT_OMEGA)
        _, _, corr_me, taus_me = me_spectrum(
            parsed.model, trunc, a_expr, b_expr, omegas, params=params,
            rho0=rho0, tau_max=tau_max, tau_points=args.tau_points)
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
    closed, cs, state_map, a_expr, b_expr = _correlation_inputs(parsed, args, params)
    if args.omega:
        lo, hi, count = args.omega.split(":")
        omegas = np.linspace(float(lo), float(hi), int(count))
    else:
        omegas = np.linspace(*DEFAULT_OMEGA)
    if cs.steady:
        ls = linearize_steady(cs, state_map, params)
        result = spectrum_laplace(ls, omegas)
        for w in result.skipped:
            print(f"warning: singular resolvent at omega = {w:.6g}; point skipped")
    else:
        tau_max = _tau_window(cs, state_map, params, args)
        taus = np.linspace(0.0, tau_max, args.tau_points)
        traj = correlation_trajectory(cs, state_map, (0.0, tau_max),
                                      StepperConfig.rk45(), params, saveat=taus)
        result = spectrum_fourier(taus, traj.states[:, 0], omegas)
    header = ["omega", "S"]
    columns = [result.omegas, result.values]
    if args.oracle:
        trunc, rho0 = _oracle_setup(parsed, args)
        tau_max = args.tau_max or 60.0
        _, s_me, _, _ = me_spectrum(parsed.model, trunc, a_expr, b_expr,
                                    omegas, params=params, rho0=rho0,
                                    tau_max=tau_max,
                                    tau_points=max(args.tau_points, 4001))
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
