"""Brute-force master-equation backend for cross-validation.

Operators are represented as dense matrices in truncated tensor-product
bases and the density matrix is evolved under the Lindblad generator

    drho/dt = -i [H, rho] + sum_n rate_n (c rho c' - 1/2 {c'c, rho})

with the same Runge-Kutta steppers as the moment engine.  This back end
consumes the identical model definition object as the symbolic engine, so
both sides see exactly the same Hamiltonian, jump operators and rates.
Intended for desk-scale verification (dimensions up to a few thousand),
not production simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra.qexpr import QExpr
from .algebra.spaces import FOCK, ProductSpace
from .errors import AlgebraError, EvaluationError
from .meanfield import ModelDefinition
from .numerics.steppers import integrate, steady_state

LEAK_THRESHOLD = 1e-4       # top-Fock-level population that flags truncation


@dataclass(frozen=True)
class TruncationSpec:
    """Photon-number cutoffs per bosonic subspace (dimension = cutoff + 1).

    Discrete subsystems have their dimension fixed by the level count.
    """

    cutoffs: tuple[tuple[int, int], ...] = ()   # (subspace index, cutoff)

    def __post_init__(self):
        if any(c < 1 for _, c in self.cutoffs):
            raise AlgebraError("fock cutoffs must be >= 1")

    @staticmethod
    def uniform(space: ProductSpace, cutoff: int) -> "TruncationSpec":
        return TruncationSpec(tuple((k, cutoff)
                                    for k, f in enumerate(space.factors)
                                    if f.kind == FOCK))

    def cutoff_of(self, index: int) -> int:
        for k, c in self.cutoffs:
            if k == index:
                return c
        raise AlgebraError(f"no cutoff declared for fock subspace {index}")

    def dims(self, space: ProductSpace) -> tuple[int, ...]:
        out = []
        for k, f in enumerate(space.factors):
            out.append(self.cutoff_of(k) + 1 if f.kind == FOCK else f.dim)
        return tuple(out)


def _destroy_matrix(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return m


def to_matrix(x: QExpr, trunc: TruncationSpec, params: dict | None = None) -> np.ndarray:
    """Dense matrix of an operator expression in the truncated basis.

    The basis layout follows the product-space factor order with row-major
    tensor indexing.  Coefficients containing parameters need bindings;
    coefficients containing averages are not representable here.
    """
    space = x.space
    dims = trunc.dims(space)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=np.complex128)
    for ops, coeff in x.terms:
        if any(op.is_frozen for op in ops):
            raise AlgebraError("frozen factors have no matrix representation")
        if coeff.averages():
            raise EvaluationError(
                "coefficient contains averages; no matrix representation"
            )
        factor_mats = []
        for k, f in enumerate(space.factors):
            dim = dims[k]
            block = np.eye(dim, dtype=np.complex128)
            for op in ops:
                if op.subspace != k:
                    continue
                if f.kind == FOCK:
                    a = _destroy_matrix(dim)
                    block = block @ (a.conj().T if op.kind == "create" else a)
                else:
                    m = np.zeros((dim, dim), dtype=np.complex128)
                    m[op.i, op.j] = 1.0
                    block = block @ m
            factor_mats.append(block)
        mat = factor_mats[0]
        for b in factor_mats[1:]:
            mat = np.kron(mat, b)
        out += complex(coeff.evaluate(params or {})) * mat
    return out


def expect(op_matrix: np.ndarray, rho: np.ndarray) -> complex:
    """tr(rho O) for a density matrix and an operator matrix."""
    return complex(np.trace(op_matrix @ rho))


def ground_state(space: ProductSpace, trunc: TruncationSpec,
                 occupation: dict | None = None) -> np.ndarray:
    """Pure product density matrix.

    ``occupation`` overrides per factor name: a Fock occupation number or a
    level label.  Default is vacuum / the first declared level.
    """
    occupation = occupation or {}
    dims = trunc.dims(space)
    vecs = []
    for k, f in enumerate(space.factors):
        v = np.zeros(dims[k], dtype=np.complex128)
        choice = occupation.get(f.name, 0)
        if f.kind == FOCK:
            n = int(choice)
            if not 0 <= n < dims[k]:
                raise AlgebraError(f"occupation {n} outside cutoff of {f.name!r}")
            v[n] = 1.0
        else:
            idx = f.level_index(str(choice)) if not isinstance(choice, int) or choice != 0 \
                else 0
            v[idx] = 1.0
        vecs.append(v)
    psi = vecs[0]
    for v in vecs[1:]:
        psi = np.kron(psi, v)
    return np.outer(psi, psi.conj())


@dataclass
class MEResult:
    """Sampled density-matrix evolution with expectation extraction."""

    times: np.ndarray
    rhos: list
    space: ProductSpace
    trunc: TruncationSpec
    params: dict
    warnings: list = field(default_factory=list)

    def expect(self, op: QExpr) -> np.ndarray:
        m = to_matrix(op, self.trunc, self.params)
        return np.array([expect(m, rho) for rho in self.rhos])

    @property
    def final(self) -> np.ndarray:
        return self.rhos[-1]


def _lindblad_rhs(model: ModelDefinition, trunc: TruncationSpec, params: dict):
    """The Lindblad generator as K rho + rho K_r + sum_n (g_n c_n) rho c_n',

    with K = -iH - 1/2 sum g c'c and K_r = iH - 1/2 sum g c'c (K' for real
    rates) folded once; rho need not be Hermitian (the delay evolution starts
    from B rho_ss).
    """
    H = to_matrix(model.hamiltonian, trunc, params)
    loss = np.zeros_like(H)
    jumps = []
    for c, rate in zip(model.jumps, model.rates):
        if rate.averages():
            raise EvaluationError(
                "symbolic average in a rate; the oracle needs numeric rates"
            )
        g = complex(rate.evaluate(params))
        cm = to_matrix(c, trunc, params)
        loss += 0.5 * g * (cm.conj().T @ cm)
        jumps.append((g * cm, cm.conj().T))
    K, K_right = -1j * H - loss, 1j * H - loss
    dim = H.shape[0]

    def rhs(t, rho_flat):
        rho = rho_flat.reshape(dim, dim)
        drho = K @ rho + rho @ K_right
        for gc, cd in jumps:
            drho += gc @ rho @ cd
        return drho.reshape(-1)

    return rhs, dim


def _top_level_projectors(space: ProductSpace, trunc: TruncationSpec):
    dims = trunc.dims(space)
    projs = []
    for k, f in enumerate(space.factors):
        if f.kind != FOCK:
            continue
        blocks = []
        for j, d in enumerate(dims):
            m = np.eye(d, dtype=np.complex128)
            if j == k:
                m = np.zeros((d, d), dtype=np.complex128)
                m[d - 1, d - 1] = 1.0
            blocks.append(m)
        p = blocks[0]
        for b in blocks[1:]:
            p = np.kron(p, b)
        projs.append((f.name, p))
    return projs


def me_evolve(model: ModelDefinition, trunc: TruncationSpec, rho0: np.ndarray,
              tspan, params: dict | None = None, saveat=None) -> MEResult:
    """Evolve the Lindblad master equation; attach truncation-leak warnings.

    Population above the leak threshold in any top Fock level means the
    cutoff is biting; the result is still returned, flagged.
    """
    params = params or {}
    rhs, dim = _lindblad_rhs(model, trunc, params)
    traj = integrate(rhs, np.asarray(rho0, dtype=np.complex128).reshape(-1),
                     tspan, saveat=saveat)
    rhos = [row.reshape(dim, dim) for row in traj.states]
    result = MEResult(traj.times, rhos, model.space, trunc, params)
    for name, proj in _top_level_projectors(model.space, trunc):
        top = max(abs(expect(proj, rho)) for rho in rhos)
        if top > LEAK_THRESHOLD:
            result.warnings.append(
                f"truncation leak on {name!r}: top-level population {top:.3e}"
            )
    return result


def me_steady(model: ModelDefinition, trunc: TruncationSpec,
              rho0: np.ndarray | None = None,
              params: dict | None = None) -> np.ndarray:
    """Steady density matrix by integrating until the generator residual vanishes."""
    params = params or {}
    rhs, dim = _lindblad_rhs(model, trunc, params)
    if rho0 is None:
        rho0 = ground_state(model.space, trunc)
    flat = steady_state(rhs, np.asarray(rho0, dtype=np.complex128).reshape(-1))
    return flat.reshape(dim, dim)


def me_spectrum(model: ModelDefinition, trunc: TruncationSpec, A: QExpr,
                B: QExpr, omegas, params: dict | None = None,
                rho0: np.ndarray | None = None, tau_max: float = 60.0,
                tau_points: int = 4096):
    """Power spectrum via the regression theorem and a Fourier quadrature.

    The steady state is reached first; then B rho_ss is evolved under the
    same generator and tr(A rho(tau)) is transformed on the requested grid.
    Returns (omegas, S, C_tau, taus).
    """
    params = params or {}
    rho_ss = me_steady(model, trunc, rho0=rho0, params=params)
    rhs, _ = _lindblad_rhs(model, trunc, params)
    Bm = to_matrix(B, trunc, params)
    Am = to_matrix(A, trunc, params)
    taus = np.linspace(0.0, tau_max, tau_points)
    # tr(A rho) = sum_ij A_ji rho_ij, a dot product with the flattened rho
    corr = integrate(rhs, (Bm @ rho_ss).reshape(-1), (0.0, tau_max),
                     saveat=taus, observe=Am.T.reshape(-1)).states
    spectrum = fourier_spectrum(taus, corr, omegas)
    return np.asarray(omegas, dtype=float), spectrum, corr, taus


def fourier_spectrum(taus: np.ndarray, corr: np.ndarray,
                     omegas) -> np.ndarray:
    """2 Re integral_0^T exp(-i w tau) C(tau) dtau by trapezoid quadrature."""
    taus = np.asarray(taus, dtype=float)
    corr = np.asarray(corr, dtype=np.complex128)
    omegas = np.asarray(omegas, dtype=float)
    weights = np.empty_like(taus)
    weights[1:-1] = (taus[2:] - taus[:-2]) / 2.0
    weights[0] = (taus[1] - taus[0]) / 2.0
    weights[-1] = (taus[-1] - taus[-2]) / 2.0
    out = np.empty(len(omegas))
    chunk = 64
    wc = weights * corr
    for start in range(0, len(omegas), chunk):
        block = omegas[start:start + chunk]
        phases = np.exp(-1j * np.outer(block, taus))
        out[start:start + chunk] = 2.0 * (phases @ wc).real
    return out
