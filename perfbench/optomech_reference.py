"""Independent reference for the optomech-cooling workload.

The moment equations of ``models/optomech.cqm`` are written out here by
hand, from the Heisenberg equations of

    H = -Δ a'a + ω_m b'b + G a'a (b + b') + E (a + a'),   jump a at rate κ,

closed at second order: every third-order moment is replaced by its
Gaussian factorization (third-order cumulant set to zero).  Nothing here
imports cqf, so the stored reference tests derivation, lowering and the
stepper together.

Run as a script to integrate the equations with SciPy's Radau method on the
real-split 16-dimensional system and store ⟨b'b⟩ and ⟨a'a⟩ at the end of each
window the benchmark uses:

    python3 perfbench/optomech_reference.py

It writes ``perfbench/optomech_reference.json``.  The [0, 200] window takes
about 35 seconds on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# models/optomech.cqm, written out; the benchmark checks that the model file
# still carries these values before comparing against the stored reference.
PARAMS = dict(Delta=-10.0, omega_m=1.0, E=200.0, G=0.0125, kappa=20.0)
N_B0 = 4e6
RTOL = 1e-11
ATOL = 1e-9
# End times of the integration windows: the measured workload and the
# harness self-test.
WINDOWS = (200.0, 20.0)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "optomech_reference.json")


def first_moment_rates(p, alpha, beta, na, ab, abd):
    """d⟨a⟩/dt and d⟨b⟩/dt; exact, since first moments need no closure.

    ``ab`` is ⟨ab⟩ and ``abd`` is ⟨ab'⟩.
    """
    da = (1j * p["Delta"] - p["kappa"] / 2) * alpha \
        - 1j * p["G"] * (ab + abd) - 1j * p["E"]
    db = -1j * p["omega_m"] * beta - 1j * p["G"] * na
    return da, db


def closed_rates(p, m):
    """Order-2 closed moment equations.

    ``m`` maps 'a', 'b' (first moments) and 'Aa', 'Bb', 'aa', 'bb', 'ab',
    'Ab' (normal-ordered second moments ⟨a'a⟩, ⟨b'b⟩, ⟨aa⟩, ⟨bb⟩, ⟨ab⟩,
    ⟨a'b⟩; a capital letter is the creation operator) to complex values.
    Returns the same keys mapped to their time derivatives.
    """
    first = {"a": m["a"], "A": np.conj(m["a"]),
             "b": m["b"], "B": np.conj(m["b"])}
    pairs = {("A", "a"): m["Aa"], ("a", "a"): m["aa"],
             ("A", "A"): np.conj(m["aa"]),
             ("B", "b"): m["Bb"], ("b", "b"): m["bb"],
             ("B", "B"): np.conj(m["bb"]),
             ("a", "b"): m["ab"], ("A", "B"): np.conj(m["ab"]),
             ("A", "b"): m["Ab"], ("a", "B"): np.conj(m["Ab"])}

    def pair(u, v):
        # cavity and mechanical operators commute; within one mode the
        # arguments always arrive normal-ordered
        return pairs[(u, v)] if (u, v) in pairs else pairs[(v, u)]

    def triple(x, y, z):
        return (pair(x, y) * first[z] + pair(x, z) * first[y]
                + pair(y, z) * first[x] - 2 * first[x] * first[y] * first[z])

    dl, om, E, G, k = (p["Delta"], p["omega_m"], p["E"], p["G"], p["kappa"])
    da, db = first_moment_rates(p, m["a"], m["b"], m["Aa"], m["ab"],
                                np.conj(m["Ab"]))
    return {
        "a": da,
        "b": db,
        "Aa": -k * m["Aa"] + 1j * E * (m["a"] - np.conj(m["a"])),
        "Bb": 1j * G * (triple("A", "a", "b") - triple("A", "a", "B")),
        "aa": (2j * dl - k) * m["aa"]
        - 2j * G * (triple("a", "a", "b") + triple("a", "a", "B"))
        - 2j * E * m["a"],
        "bb": -2j * om * m["bb"] - 2j * G * triple("A", "a", "b"),
        "ab": (1j * dl - 1j * om - k / 2) * m["ab"]
        - 1j * G * (triple("a", "b", "b") + triple("a", "B", "b"))
        - 1j * E * m["b"]
        - 1j * G * (triple("A", "a", "a") + m["a"]),
        "Ab": (-1j * dl - 1j * om - k / 2) * m["Ab"]
        + 1j * G * (triple("A", "b", "b") + triple("A", "B", "b"))
        + 1j * E * m["b"]
        - 1j * G * triple("A", "A", "a"),
    }


KEYS = ("a", "b", "Aa", "Bb", "aa", "bb", "ab", "Ab")


def _real_rhs(p):
    def rhs(t, u):
        z = u[:8] + 1j * u[8:]
        d = closed_rates(p, dict(zip(KEYS, z)))
        dz = np.array([d[k] for k in KEYS])
        return np.concatenate([dz.real, dz.imag])
    return rhs


def integrate_reference(t_end: float) -> dict:
    from scipy.integrate import solve_ivp

    u0 = np.zeros(16)
    u0[KEYS.index("Bb")] = N_B0
    sol = solve_ivp(_real_rhs(PARAMS), (0.0, t_end), u0, method="Radau",
                    rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"Radau failed: {sol.message}")
    end = sol.y[:, -1]
    return {"t_end": t_end, "n_b": float(end[KEYS.index("Bb")]),
            "n_a": float(end[KEYS.index("Aa")]), "nfev": int(sol.nfev)}


def main() -> int:
    windows = []
    for t_end in WINDOWS:
        t0 = time.perf_counter()
        entry = integrate_reference(t_end)
        entry["seconds"] = round(time.perf_counter() - t0, 1)
        print(f"t = {t_end:g}: <b'b> = {entry['n_b']!r}, "
              f"<a'a> = {entry['n_a']!r} ({entry['seconds']} s)")
        windows.append(entry)
    blob = {
        "command": "python3 perfbench/optomech_reference.py",
        "method": f"scipy.integrate.solve_ivp Radau, rtol {RTOL}, atol {ATOL}",
        "params": PARAMS,
        "n_b0": N_B0,
        "windows": windows,
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
