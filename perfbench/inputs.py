"""Workload definitions shared by the runner and the round process.

No workload draws random inputs: every size below is fixed, so the
runner's ``--seed`` selects nothing.  ``QUICK`` holds the tiny sizes of the
harness self-test; it runs the same stages and checks.
"""

from __future__ import annotations

WORKLOADS = ("laser-spectrum", "tavis-pulse", "optomech-cooling")

FULL = {
    # both τ grids are those of the criterion-4 spectrum cross-validation in
    # tests/test_acceptance.py: 6001 points, the oracle's over [0, 60]
    "laser-spectrum": dict(orders=(2, 4, 6, 8), oracle_cutoff=None,
                           tau_points=6001, oracle_tau_points=6001),
    "tavis-pulse": dict(atoms=20),
    # criterion 7 integrates to t = 60000 (159 s); this window keeps one
    # round near one second, so a run holds some thirty rounds and the
    # medians of its 25 ms compile time are steady, while the adaptive
    # stepper still takes nearly all of the time
    "optomech-cooling": dict(window=200.0),
}

QUICK = {
    "laser-spectrum": dict(orders=(2, 4), oracle_cutoff=8,
                           tau_points=2001, oracle_tau_points=2001),
    "tavis-pulse": dict(atoms=3),
    "optomech-cooling": dict(window=20.0),
}

def tavis_model_text(n_atoms: int) -> str:
    """Tavis–Cummings model file: one cavity mode, ``n_atoms`` two-level atoms.

    Same Hamiltonian, jumps and parameters as ``make_tavis`` in
    ``tests/conftest.py``; the pulse starts from full inversion.
    """
    atoms = range(1, n_atoms + 1)
    lines = ["# Tavis-Cummings superradiant pulse, generated by perfbench",
             "space cavity fock"]
    lines += [f"space atom{k} nlevel 1 2" for k in atoms]
    lines.append("op a = destroy(cavity)")
    for k in atoms:
        lines += [f"op s12_{k} = transition(atom{k}, 1, 2)",
                  f"op s21_{k} = transition(atom{k}, 2, 1)",
                  f"op s22_{k} = transition(atom{k}, 2, 2)"]
    lines += ["param Delta = 0.5", "param g = 0.5", "param gamma = 1/4",
              "param kappa = 1"]
    coupling = " + ".join(f"a'*s12_{k} + a*s21_{k}" for k in atoms)
    lines.append(f"hamiltonian Delta*a'*a + g*({coupling})")
    lines.append("jump a rate kappa")
    lines += [f"jump s12_{k} rate gamma" for k in atoms]
    lines += ["order 2", "filter phase",
              "track " + ", ".join(f"s22_{k}" for k in atoms),
              "observable n = a'*a"]
    lines += [f"initial <s22_{k}> = 1" for k in atoms]
    lines += ["tspan 0 10", "solver rk4", "dt 0.005", "saveat 1001"]
    return "\n".join(lines) + "\n"
