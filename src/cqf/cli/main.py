"""Command-line driver: derive, solve, correlate, spectrum.

Every command takes a model file.  ``derive`` writes the completed
equation archive plus a human-readable dump; ``solve`` integrates the
moment equations and writes a CSV; ``correlate`` and ``spectrum`` handle
the two-time correlation and its transform.  ``--oracle`` reruns the
observables through the dense master-equation backend and appends
reference columns with a deviation summary.

``main`` folds the flags over the model file's run options, checking each
before anything is derived; later steps read only the options.  The CSV
commands build one program and return a header and columns for ``main``.

CSV layout (solve): t, then Re/Im of every stored average (conjugate
averages never get columns of their own), then one column per observable
(two for complex-valued ones).  All floats print with 12 significant
digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from ..algebra.qexpr import QExpr
from ..algebra.render import render_average
from ..algebra.scalars import ScalarExpr
from ..completion import complete, filter_by_name
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
from .dsl import ParsedModel, RunOptions, parse_model
from .observables import evaluate_observables

DEFAULT_OMEGA = (-np.pi, np.pi, 301)
DEFAULT_ORACLE_CUTOFF = 10


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            fh.write(",".join(f"{float(col[r]):.12g}" for col in columns) + "\n")


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
        if name == "derive":
            cmd.add_argument("--archive", help="archive output path")
            cmd.add_argument("--format", choices=["text", "latex"],
                             default="text", help="dump format")
            continue
        cmd.add_argument("--set", action="append", default=[],
                         metavar="NAME=VALUE", help="bind a parameter")
        if name == "solve":
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
            cmd.add_argument("--tau-points", type=int)
            cmd.add_argument("--no-steady", action="store_true",
                             help="co-evolve single-time averages instead of "
                                  "assuming steady state")
        if name == "spectrum":
            cmd.add_argument("--omega", metavar="MIN:MAX:COUNT",
                             help="frequency grid as --omega=MIN:MAX:COUNT, "
                                  "so MIN may be negative (default -pi:pi:301)")
    return parser


def _run_options(parsed: ParsedModel, args) -> RunOptions:
    """The model file's run options with every flag checked and folded in."""
    opts = dataclasses.replace(parsed.options)
    if args.order:
        try:
            orders = tuple(int(x) for x in args.order.split(","))
        except ValueError:
            raise CqfError(f"--order expects N or N,N,..., "
                           f"got {args.order!r}") from None
        opts.order = OrderSpec.of(orders if "," in args.order else orders[0])
    opts.filter_name = args.filter_name or opts.filter_name
    if args.command == "derive":
        return opts

    opts.param_values = dict(opts.param_values)
    for item in args.set:
        name, _, text = item.partition("=")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CqfError(f"--set expects NAME=VALUE with a finite VALUE, "
                           f"got {item!r}")
        opts.param_values[name.strip()] = value
    declared = {p.name for p in parsed.model.parameters}
    unknown = set(opts.param_values) - declared
    if unknown:
        raise CqfError("unknown parameters: " + ", ".join(sorted(unknown)))
    missing = declared - set(opts.param_values)
    if missing:
        raise CqfError("parameters without values: " + ", ".join(sorted(missing)))

    opts.cutoffs = dict(opts.cutoffs)
    fock_names = [f.name for f in parsed.model.space.factors if f.kind == "fock"]
    for item in args.cutoff:
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            opts.cutoffs[name] = int(value)
        except ValueError:
            raise CqfError(f"--cutoff expects SPACE=N, got {item!r}") from None
        if opts.cutoffs[name] < 1:
            raise CqfError(f"--cutoff expects SPACE=N with N >= 1, "
                           f"got {item!r}")
        if name not in fock_names:
            raise CqfError(f"--cutoff expects SPACE=N with SPACE one of the "
                           f"model's Fock spaces ({', '.join(fock_names)}), "
                           f"got {item!r}: no Fock space {name!r}")

    for name in ("dt", "rtol", "atol"):
        value = getattr(args, name)
        if value is not None:
            if not 0 < value < math.inf:
                raise CqfError(f"--{name} expects a finite positive number, "
                               f"got '{value:g}'")
            setattr(opts, name, value)
    opts.method = args.method or opts.method
    if (args.command in ("correlate", "spectrum") and not args.no_steady
            and (args.dt is not None or args.method == "rk4")):
        flag = "--dt" if args.dt is not None else "--method rk4"
        raise CqfError(f"{flag} does not apply to a steady-state correlation, "
                       "whose delay is solved exactly: pass --no-steady")
    return opts


def _tolerances(opts: RunOptions) -> dict:
    return {name: getattr(opts, name) for name in ("rtol", "atol")
            if getattr(opts, name) is not None}


def _stepper(opts: RunOptions, tspan) -> StepperConfig:
    """The model's stepper over ``tspan``; built before any derivation."""
    dt = opts.dt
    method = opts.method or ("rk4" if dt is not None else "rk45")
    if method == "rk4" and dt is None:
        dt = (tspan[1] - tspan[0]) / 5000.0
        print(f"note: fixed-step dt defaulted to {dt:.6g}")
    return StepperConfig(method, dt, **_tolerances(opts))


def _oracle_setup(parsed: ParsedModel, opts: RunOptions):
    """Truncation and initial density matrix for ``--oracle``."""
    space = parsed.model.space
    trunc = TruncationSpec(tuple(
        (k, opts.cutoffs.get(f.name, DEFAULT_ORACLE_CUTOFF))
        for k, f in enumerate(space.factors) if f.kind == "fock"))
    return trunc, ground_state(space, trunc, dict(opts.oracle_state))


def _closed_equations(parsed: ParsedModel, opts: RunOptions, archive=None,
                      progress=None):
    if archive:
        eqs = archive_mod.load(archive)
        print(f"loaded {len(eqs)} equations from {archive}")
        return eqs
    order = opts.order
    if order is None:
        raise CqfError("no expansion order given (model file 'order' or --order)")
    if not opts.track:
        raise CqfError("model file needs a 'track' line naming the seed operators")
    eqs = meanfield_derive(opts.track, parsed.model, order,
                           filter_by_name(opts.filter_name))
    closed = complete(eqs, progress=progress)
    print(f"derived {len(closed)} equations "
          f"(order {order.uniform or list(order.per_subspace)}, "
          f"filter {opts.filter_name})")
    return closed


def _program(parsed: ParsedModel, opts: RunOptions, archive=None):
    """The closed equations, their lowering, the bound program and u0."""
    closed = _closed_equations(parsed, opts, archive)
    prog = lower(closed)
    bound = prog.bind(opts.param_values)
    return closed, prog, bound, initial_state(prog.layout, opts.initial)


def cmd_derive(parsed: ParsedModel, opts: RunOptions, args) -> int:
    def progress(n):
        if n % 200 == 0:
            print(f"  ... {n} equations")

    closed = _closed_equations(parsed, opts, progress=progress)
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


def cmd_solve(parsed: ParsedModel, opts: RunOptions, args, oracle):
    tspan = opts.tspan
    if tspan is None:
        raise CqfError("model file needs a 'tspan' line")
    cfg = _stepper(opts, tspan)
    closed, prog, bound, u0 = _program(parsed, opts, args.archive)
    params = opts.param_values
    npts = 1001 if opts.saveat is None else opts.saveat
    saveat = np.linspace(tspan[0], tspan[1], npts)
    traj = integrate(bound, u0, tspan, cfg, saveat=saveat)

    header = ["t"]
    columns: list[np.ndarray] = [traj.times]
    for k, lhs in enumerate(prog.layout):
        name = render_average(lhs)
        header.extend([f"Re{name}", f"Im{name}"])
        columns.extend([traj.states[:, k].real, traj.states[:, k].imag])
    obs = evaluate_observables(opts.observables, traj, closed.order,
                               closed.filter, params)
    for name, series in obs.items():
        if np.iscomplexobj(series) and np.max(np.abs(series.imag)) > 1e-9:
            header.extend([f"Re[{name}]", f"Im[{name}]"])
            columns.extend([series.real, series.imag])
        else:
            header.append(name)
            columns.append(np.real(series))

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
    return header, columns


def _correlation(parsed: ParsedModel, opts: RunOptions, args, oracle,
                 omegas=None):
    """The tau grid and C(tau), or ``omegas`` and S(omega), and the oracle's
    C(tau) as a function of a grid (None without ``--oracle``).

    Steady, the state is a Newton root and the delay is solved exactly;
    co-evolved, the model's stepper reaches the reference time and rk45 at
    the resolved tolerances runs the delay.  The oracle starts from its own
    steady state, or co-evolved from its initial state evolved over tspan.
    """
    if args.tau_points is not None and args.tau_points < 2:
        raise CqfError(f"--tau-points expects an integer of at least 2, "
                       f"got '{args.tau_points}'")
    if args.tau_max is not None and not 0 < args.tau_max < math.inf:
        raise CqfError(f"--tau-max expects a finite positive number, "
                       f"got '{args.tau_max:g}'")
    steady = not args.no_steady
    if omegas is not None and steady and not oracle:
        for name in ("tau_points", "tau_max"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise CqfError(f"{flag} does not apply to a steady-state spectrum, "
                               "which has no delay grid: pass --no-steady or --oracle")
    if opts.correlation is None:
        raise CqfError("model file needs a 'correlation A, B' line")
    delay_cfg = StepperConfig.rk45(**_tolerances(opts))
    if not steady:
        if opts.tspan is None:
            raise CqfError("co-evolved correlations need a 'tspan' line to "
                           "reach the reference time t")
        cfg = _stepper(opts, opts.tspan)
        if args.tau_max is None:
            raise CqfError("co-evolved correlations need --tau-max")
    closed, prog, bound, u0 = _program(parsed, opts)
    params = opts.param_values
    state = (steady_state(bound, u0) if steady
             else integrate(bound, u0, opts.tspan, cfg).final_state)
    cs = build_correlation_system(*opts.correlation, closed, steady=steady)
    state_map = state_mapping(prog.layout, state)
    if omegas is not None and steady:
        result = spectrum_laplace(linearize_steady(cs, state_map, params), omegas)
        for w in result.skipped:
            print(f"warning: singular resolvent at omega = {w:.6g}; point skipped")
        grid, values = omegas, result.values
    else:
        tau_max = (args.tau_max if args.tau_max is not None
                   else decay_time(linearize_steady(cs, state_map, params)))
        grid = np.linspace(0.0, tau_max, args.tau_points or 2001)
        traj = correlation_trajectory(cs, state_map, (0.0, tau_max),
                                      None if steady else delay_cfg, params,
                                      saveat=grid)
        values = traj.states[:, 0]
        if omegas is not None:
            grid, values = omegas, spectrum_fourier(grid, values, omegas).values
    if not oracle:
        return grid, values, None
    trunc, rho0 = oracle
    rho = (me_steady(parsed.model, trunc, params) if steady
           else me_evolve(parsed.model, trunc, rho0, opts.tspan, params).final)
    return grid, values, lambda taus: me_correlation(
        parsed.model, trunc, *opts.correlation, rho, taus, params)


def cmd_correlate(parsed: ParsedModel, opts: RunOptions, args, oracle):
    taus, corr, oracle_corr = _correlation(parsed, opts, args, oracle)
    header = ["tau", "ReC", "ImC"]
    columns = [taus, corr.real, corr.imag]
    if oracle_corr:
        corr_me = oracle_corr(taus)
        header.extend(["ME:ReC", "ME:ImC"])
        columns.extend([corr_me.real, corr_me.imag])
        print(f"oracle max deviation: {np.max(np.abs(corr - corr_me)):.3e}")
    return header, columns


def cmd_spectrum(parsed: ParsedModel, opts: RunOptions, args, oracle):
    omegas = np.linspace(*DEFAULT_OMEGA)
    if args.omega:
        try:
            lo, hi, count = args.omega.split(":")
            with np.errstate(invalid="ignore", over="ignore"):
                omegas = np.linspace(float(lo), float(hi), int(count))
        except ValueError:
            omegas = np.empty(0)
        if omegas.size == 0 or not np.isfinite(omegas).all():
            raise CqfError("--omega expects MIN:MAX:COUNT with finite MIN and "
                           f"MAX and COUNT >= 1, got {args.omega!r}")
    omegas, spectrum, oracle_corr = _correlation(parsed, opts, args, oracle,
                                                 omegas)
    header = ["omega", "S"]
    columns = [omegas, spectrum]
    if oracle_corr:
        taus = np.linspace(0.0, 60.0 if args.tau_max is None else args.tau_max,
                           args.tau_points or 4001)
        s_me = spectrum_fourier(taus, oracle_corr(taus), omegas).values
        header.append("ME:S")
        columns.append(s_me)
        scale = max(spectrum.max(), 1e-300)
        dev = np.max(np.abs(spectrum - s_me)) / scale
        print(f"oracle max relative deviation: {dev:.3e}")
    return header, columns


CSV_COMMANDS = {
    "solve": (cmd_solve, ".csv"),
    "correlate": (cmd_correlate, ".corr.csv"),
    "spectrum": (cmd_spectrum, ".spec.csv"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.model, encoding="utf-8") as fh:
            parsed = parse_model(fh.read())
        opts = _run_options(parsed, args)
        if args.command == "derive":
            return cmd_derive(parsed, opts, args)
        oracle = _oracle_setup(parsed, opts) if args.oracle else None
        command, suffix = CSV_COMMANDS[args.command]
        header, columns = command(parsed, opts, args, oracle)
        out = args.out or (args.model + suffix)
        write_csv(out, header, columns)
        print(f"wrote {out}")
        return 0
    except DslError as err:
        print(f"{args.model}:{err}", file=sys.stderr)
        return 1
    except CqfError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
