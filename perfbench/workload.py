"""One round of one workload, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --model FILE --started T
                                  [--trace] [--quick] [--probe]

Everything before the ``READY`` line is set-up: interpreter start, imports
and the model parse, timed from ``--started`` (the launcher's ``time.time()``
just before it started this process); the line carries that time.  Then the
workload's stages run one after another, timed into compile, solve and
oracle time; then the checks run, outside every timed stage.  The last line
of output is ``RESULT`` and one JSON object.  ``--probe`` stops after set-up; ``--trace`` hooks the cqf layers
(see tracer.py) and adds their metrics to the result.

Every call into cqf goes through the module attribute (``steppers.integrate``
rather than ``cqf.integrate``), so that the tracer's hooks see it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from functools import partial

import numpy as np

import inputs
import optomech_reference
from tracer import Tracer

from cqf import completion, correlation, meanfield, oracle
from cqf.algebra.averages import average_symbol
from cqf.algebra.qexpr import qmul
from cqf.cli import dsl, observables
from cqf.numerics import lowering, steppers

HBAR = 6.62607015e-34 / (2 * np.pi)    # J s; h and k_B are exact in SI
K_B = 1.380649e-23                      # J / K
TINY = np.finfo(float).tiny


class Round:
    """Runs stages and checks, keeps the operation ledger and the timings.

    A stage that raises, and every check it leaves unrun, makes the round
    incorrect: its timings then cover only part of the workload.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.phase_s = {"compile": 0.0, "solve": 0.0, "oracle": 0.0}
        self.ops: list = []
        self.broken = None
        self.incorrect = []

    def stage(self, name, phase, fn):
        if self.broken is not None:
            self.ops.append([name, False, f"not run: stage {self.broken} failed"])
            return
        span = self.tracer.open("bench.stage", name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - the ledger reports it
            self.broken = name
            self.ops.append([name, False, f"{type(err).__name__}: {err}"])
            self.incorrect.append(name)
        else:
            self.ops.append([name, True, ""])
        finally:
            self.phase_s[phase] += time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)

    def check(self, name, fn):
        if self.broken is not None:
            self.ops.append([name, False, f"not run: stage {self.broken} failed"])
            self.incorrect.append(name)
            return
        try:
            ok, detail = fn()
        except Exception as err:  # noqa: BLE001 - the ledger reports it
            ok, detail = False, f"{type(err).__name__}: {err}"
        self.ops.append([name, bool(ok), detail])
        if not ok:
            self.incorrect.append(name)


def _symbol(*ops):
    expr = ops[0]
    for op in ops[1:]:
        expr = qmul(expr, op)
    return average_symbol(expr.monomial_ops())


def _filter(opts):
    return (None if opts.filter_name == "none"
            else completion.filter_by_name(opts.filter_name))


def _stepper(opts):
    if opts.method == "rk4":
        return steppers.StepperConfig.rk4(opts.dt)
    return steppers.StepperConfig.rk45(rtol=opts.rtol, atol=opts.atol)


def _lower_and_bind(st, params):
    st["prog"] = lowering.lower(st["closed"])
    st["f"] = st["prog"].bind(params)


def _integrate(st, opts, times):
    u0 = lowering.initial_state(st["prog"].layout, opts.initial)
    st["traj"] = steppers.integrate(st["f"], u0, (times[0], times[-1]),
                                    _stepper(opts), saveat=times)


def _observe(st, opts, params):
    st["obs"] = observables.evaluate_observables(
        opts.observables, st["traj"], st["closed"].order, st["closed"].filter,
        params)


# -- laser-spectrum ---------------------------------------------------------

def laser(parsed, cfg):
    """Orders 2..8: closure, steady state, both spectrum routes, observables.

    Then one master-equation spectrum, whose C(0) is the reference photon
    number.
    """
    opts, model = parsed.options, parsed.model
    params = dict(opts.param_values)
    A, B = opts.correlation
    omegas = np.linspace(-np.pi, np.pi, 301)
    step = omegas[1] - omegas[0]
    st = {k: {} for k in cfg["orders"]}
    me = {}

    def derive(k):
        eqs = meanfield.meanfield_derive(opts.track, model, k, _filter(opts))
        st[k]["closed"] = completion.complete(eqs)

    def steady(k):
        s = st[k]
        s["yss"] = steppers.steady_state(
            s["f"], lowering.initial_state(s["prog"].layout))

    def build(k):
        st[k]["cs"] = correlation.build_correlation_system(
            A, B, st[k]["closed"], steady=True)

    def laplace(k):
        s = st[k]
        s["ls"] = correlation.linearize_steady(s["cs"], s["yss"], params)
        s["laplace"] = correlation.spectrum_laplace(s["ls"], omegas).values

    def fourier(k):
        s = st[k]
        tau = correlation.decay_time(s["ls"])
        taus = np.linspace(0.0, tau, cfg["tau_points"])
        traj = correlation.correlation_trajectory(
            s["cs"], s["yss"], (0.0, tau), steppers.StepperConfig.rk45(),
            params, saveat=taus)
        s["fourier"] = correlation.spectrum_fourier(
            taus, traj.states[:, 0], omegas).values

    def observe(k):
        s = st[k]
        s["traj"] = steppers.Trajectory(np.zeros(1), s["yss"][None, :],
                                        s["prog"].layout)
        _observe(s, opts, params)

    def master_equation():
        cutoffs = dict(opts.cutoffs)
        if cfg["oracle_cutoff"]:
            cutoffs = {name: cfg["oracle_cutoff"] for name in cutoffs}
        trunc = oracle.TruncationSpec(tuple(
            (k, cutoffs[f.name]) for k, f in enumerate(model.space.factors)
            if f.kind == "fock"))
        _, me["spectrum"], me["corr"], _ = oracle.me_spectrum(
            model, trunc, A, B, omegas, params=params, tau_max=60.0,
            tau_points=cfg["oracle_tau_points"])

    stages = []
    for k in cfg["orders"]:
        stages += [(f"o{k}.derive", "compile", partial(derive, k)),
                   (f"o{k}.lower", "compile",
                    partial(_lower_and_bind, st[k], params)),
                   (f"o{k}.steady_state", "solve", partial(steady, k)),
                   (f"o{k}.correlation", "compile", partial(build, k)),
                   (f"o{k}.laplace", "solve", partial(laplace, k)),
                   (f"o{k}.fourier", "solve", partial(fourier, k)),
                   (f"o{k}.observables", "solve", partial(observe, k))]
    stages.append(("oracle", "oracle", master_equation))

    def photon_number():
        c0 = me["corr"][0].real
        errors = [abs(st[k]["obs"]["n"][0].real - c0) for k in cfg["orders"]]
        ok = all(b <= a for a, b in zip(errors, errors[1:]))
        return ok, ("|n - C(0)| = " + ", ".join(f"{e:.4f}" for e in errors)
                    + f" at orders {cfg['orders']}, oracle C(0) = {c0:.6f}")

    def peaks(k):
        found = {route: float(omegas[np.nanargmax(s)]) for route, s in
                 (("laplace", st[k]["laplace"]), ("fourier", st[k]["fourier"]),
                  ("oracle", me["spectrum"]))}
        spread = max(found.values()) - min(found.values())
        shown = ", ".join(f"{route} {w:.4f}" for route, w in found.items())
        return spread <= step + 1e-12, f"peaks at {shown}; grid step {step:.4f}"

    def routes_agree(k):
        def norm(s):
            return s / np.max(np.abs(s))
        dev = float(np.max(np.abs(norm(st[k]["laplace"]) - norm(st[k]["fourier"]))))
        # the delay window is cut at e^-12 of the slowest decay; the
        # truncated tail is the larger error term, ~1e-5 of the peak
        return dev <= 1e-4, f"peak-normalized Laplace vs Fourier {dev:.2e} (bound 1e-4)"

    checks = [("photon_number", photon_number)]
    for k in cfg["orders"]:
        checks += [(f"o{k}.peaks", partial(peaks, k)),
                   (f"o{k}.laplace_vs_fourier", partial(routes_agree, k))]
    last = st[cfg["orders"][-1]]
    return stages, checks, lambda: (last["f"], 0.0, last["yss"])


# -- tavis-pulse ------------------------------------------------------------

def tavis(parsed, cfg):
    """Order-2 completion and RK4 superradiant pulse from full inversion."""
    opts, model = parsed.options, parsed.model
    params = dict(opts.param_values)
    n_atoms = cfg["atoms"]
    st = {}
    times = np.linspace(*opts.tspan, opts.saveat)

    def derive():
        st["eqs"] = meanfield.meanfield_derive(opts.track, model, opts.order,
                                               _filter(opts))

    def complete():
        st["closed"] = completion.complete(st["eqs"])

    stages = [("derive", "compile", derive), ("complete", "compile", complete),
              ("lower", "compile", partial(_lower_and_bind, st, params)),
              ("integrate", "solve", partial(_integrate, st, opts, times)),
              ("observables", "solve", partial(_observe, st, opts, params))]

    def populations():
        return np.array([st["traj"].column(_symbol(s)).real for s in opts.track])

    def equation_count():
        want = (n_atoms + 1) * (n_atoms + 2) // 2
        return len(st["closed"]) == want, f"{len(st['closed'])} equations, want {want}"

    def symmetry():
        # identical up to rounding: a broken symmetry shows at order one
        pops = populations()
        spread = float(np.max(np.abs(pops - pops[0])))
        bound = 1e-12 * float(np.max(np.abs(pops)))
        return spread <= bound, (f"largest difference between atoms {spread:.3e} "
                                 f"(bound {bound:.1e})")

    def excitation_balance():
        # d(n + Σσ22)/dt = -κ n - γ Σσ22 exactly: the Hamiltonian conserves
        # the excitation number.  The loss integral uses the trapezoid rule;
        # its own error is estimated by Richardson (grid h against 2h).
        n = st["obs"]["n"].real
        excitation = n + populations().sum(axis=0)
        loss = params["kappa"] * n + params["gamma"] * (excitation - n)

        def cumulative(t, y):
            return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2)))

        fine = cumulative(times, loss)[::2]
        coarse = cumulative(times[::2], loss[::2])
        residual = float(np.max(np.abs(excitation[::2] - excitation[0] + fine)))
        quadrature = float(np.max(np.abs(fine - coarse))) / 3.0
        bound = 2.0 * quadrature
        return residual <= bound, (f"residual {residual:.2e} on {excitation[0]:g}, "
                                   f"bound 2x quadrature error {bound:.2e}")

    def pulse():
        n = st["obs"]["n"].real
        peak, k_peak = float(n.max()), int(n.argmax())
        ok = peak > 10 * abs(n[0]) and peak > 10 * abs(n[-1])
        return ok, f"peak {peak:.4f} at t = {times[k_peak]:.2f}, ends {n[0]:.2e}, {n[-1]:.2e}"

    def secondary_maximum():
        n = st["obs"]["n"].real
        interior = (n[1:-1] > n[:-2]) & (n[1:-1] > n[2:]) & (n[1:-1] > 1e-3 * n.max())
        after = [float(times[k + 1]) for k in np.flatnonzero(interior) if k + 1 > n.argmax()]
        return bool(after), f"maxima after the peak at t = {after}"

    checks = [("equation_count", equation_count), ("symmetry", symmetry),
              ("excitation_balance", excitation_balance), ("pulse_peak", pulse),
              ("secondary_maximum", secondary_maximum)]
    return stages, checks, lambda: (st["f"], times[-1], st["traj"].final_state)


# -- optomech-cooling -------------------------------------------------------

def optomech(parsed, cfg):
    """The cooling model as written, over a shortened window."""
    opts, model = parsed.options, parsed.model
    params = dict(opts.param_values)
    window = cfg["window"]
    times = np.linspace(0.0, window, 1001)
    st = {}

    def derive():
        eqs = meanfield.meanfield_derive(opts.track, model, opts.order, _filter(opts))
        st["closed"] = completion.complete(eqs)

    stages = [("derive", "compile", derive),
              ("lower", "compile", partial(_lower_and_bind, st, params)),
              ("integrate", "solve", partial(_integrate, st, opts, times)),
              ("observables", "solve", partial(_observe, st, opts, params))]

    ops = dict(model.operators)
    a, b = ops["a"], ops["b"]
    sym = dict(a=_symbol(a), b=_symbol(b), Aa=_symbol(a.dag(), a),
               Bb=_symbol(b.dag(), b), ab=_symbol(a, b), abd=_symbol(a, b.dag()))

    def value(mapping, key):
        s = sym[key]
        v = mapping[s.family]
        return np.conj(v) if s.conjugated else v

    def equation_count():
        # ⟨a⟩, ⟨b⟩ and the six normal-ordered second moments up to conjugation
        return len(st["closed"]) == 8, f"{len(st['closed'])} equations, want 8"

    def first_moments():
        deviations = []
        layout = st["prog"].layout
        for t, y in zip(times[::100], st["traj"].states[::100]):
            m = lowering.state_mapping(layout, y)
            dm = lowering.state_mapping(layout, st["f"](t, y))
            v = {k: value(m, k) for k in sym}
            want = optomech_reference.first_moment_rates(
                params, v["a"], v["b"], v["Aa"], v["ab"], v["abd"])
            scales = ((abs(params["Delta"]) + params["kappa"] / 2) * abs(v["a"])
                      + params["G"] * (abs(v["ab"]) + abs(v["abd"]))
                      + abs(params["E"]),
                      params["omega_m"] * abs(v["b"]) + params["G"] * abs(v["Aa"]))
            for key, w, scale in zip(("a", "b"), want, scales):
                # where every term vanishes the rate must be exactly zero
                deviations.append(abs(value(dm, key) - w) / max(scale, TINY))
        # np.max, unlike max(), lets a NaN through to fail the comparison
        worst = float(np.max(deviations))
        return worst <= 1e-12, f"largest relative deviation {worst:.2e} (bound 1e-12)"

    def temperature():
        # the documented relation k_B T = n hbar omega; the temperature of a
        # thermal state, hbar omega / (k_B ln(1 + 1/n)), is shown beside it
        n = st["traj"].column(sym["Bb"]).real
        worst, bose = [], []
        for obs in opts.observables:
            if obs.kind == "temperature":
                got = st["obs"][obs.name]
                want = n * HBAR * obs.omega / K_B
                worst.append(np.max(np.abs(got - want) / want))
                thermal = HBAR * obs.omega / (K_B * np.log1p(1.0 / n))
                bose.append(np.max(np.abs(got - thermal) / thermal))
        if not worst:
            return False, "the model has no temperature observable"
        worst, bose = float(np.max(worst)), float(np.max(bose))
        return worst <= 1e-12, (f"largest relative deviation from n*hbar*omega/k_B "
                                f"{worst:.2e} (bound 1e-12); from the thermal-state "
                                f"hbar*omega/(k_B ln(1 + 1/n)) {bose:.2e}")

    def reference():
        with open(optomech_reference.REFERENCE_FILE, encoding="utf-8") as fh:
            ref = json.load(fh)
        n0 = value(lowering.state_mapping(st["prog"].layout, st["traj"].states[0]), "Bb")
        if ref["params"] != params or ref["n_b0"] != n0.real:
            return False, "stored reference was made for other parameters; regenerate it"
        entry = next((w for w in ref["windows"] if w["t_end"] == window), None)
        if entry is None:
            return False, f"no stored reference for t = {window:g}; regenerate it"
        final = lowering.state_mapping(st["prog"].layout, st["traj"].final_state)
        dev = float(np.max([abs(value(final, "Bb").real - entry["n_b"]) / entry["n_b"],
                            abs(value(final, "Aa").real - entry["n_a"]) / entry["n_a"]]))
        # the workload integrates with rtol = opts.rtol
        return dev <= opts.rtol, (f"relative deviation from Radau {dev:.2e} "
                                  f"(bound rtol {opts.rtol:g})")

    checks = [("equation_count", equation_count), ("first_moments", first_moments),
              ("temperature", temperature), ("reference", reference)]
    return stages, checks, lambda: (st["f"], window, st["traj"].final_state)


BUILDERS = {"laser-spectrum": laser, "tavis-pulse": tavis,
            "optomech-cooling": optomech}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--model", required=True, help="model file to parse")
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() at which the launcher started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    with open(args.model, encoding="utf-8") as fh:
        parsed = dsl.parse_model(fh.read())
    print(f"READY {time.time() - args.started!r}", flush=True)
    if args.probe:
        return 0

    cfg = (inputs.QUICK if args.quick else inputs.FULL)[args.workload]
    stages, checks, main_rhs = BUILDERS[args.workload](parsed, cfg)
    rnd = Round(tracer)
    t0 = time.perf_counter()
    for name, phase, fn in stages:
        rnd.stage(name, phase, fn)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    for name, fn in checks:
        rnd.check(name, fn)

    result = {"wall_s": wall, "compile_s": rnd.phase_s["compile"],
              "solve_s": rnd.phase_s["solve"], "oracle_s": rnd.phase_s["oracle"],
              "peak_rss_mb": peak_mb, "ops": rnd.ops,
              "correct": not rnd.incorrect}
    if tracer is not None:
        if rnd.broken is None:
            tracer.probe_main_rhs(*main_rhs())
        result["layers"] = tracer.layer_metrics()
        result["self_times"] = tracer.self_times()
        result["missing"] = tracer.missing
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
