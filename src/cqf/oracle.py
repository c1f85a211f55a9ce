"""Brute-force master-equation backend for cross-validation.

Operators are represented as dense matrices in truncated tensor-product
bases and the density matrix is evolved under the Lindblad generator

    drho/dt = -i [H, rho] + sum_n rate_n (c rho c' - 1/2 {c'c, rho}).

This back end consumes the identical model definition object as the
symbolic engine, so both sides see exactly the same Hamiltonian, jump
operators and rates.

Each basis state carries the charge q = sum of its Fock occupations and
level indices, the U(1) phase that ``FundamentalOp.phase`` counts.  When
every Hamiltonian monomial has phase 0 and the monomials of each jump share
one phase, the generator maps each sector {(i, j): q_i - q_j = k} of
density-matrix entries to itself, a weak symmetry (B. Buca and T. Prosen,
New J. Phys. 14, 073007 (2012)).  An evolution then runs only on the
sectors its start occupies, under the generator restricted to them as a
dense matrix L built by index arithmetic.  On such a matrix nothing is
stepped: the steady state is the null vector of sector 0 (its SVD, with
the uniqueness certified by the singular values), and every evolution, of
a density matrix (``me_evolve``) or of B rho for the regression C(tau)
(``me_correlation``), is exp(L tau) applied by ``propagate``.  A model that
does not conserve q, or sectors too large for a dense matrix to pay, keep
the product form K rho + rho K_r + sum g c rho c' on the whole matrix,
integrated by the same Runge-Kutta steppers as the moment engine; its
steady state is integrated to rest from the ground state.
Intended for desk-scale verification (dimensions up to a few thousand), not
production simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .algebra.operators import sequence_phase
from .algebra.qexpr import QExpr
from .algebra.spaces import FOCK, ProductSpace
from .correlation import fourier_spectrum
from .errors import AlgebraError, EvaluationError, NonStationaryError
from .meanfield import ModelDefinition
from .numerics.steppers import integrate, propagate, sample_times, steady_state

LEAK_THRESHOLD = 1e-4       # top-Fock-level population that flags truncation
NOISE_THRESHOLD = 1e-12     # entries below this share of max|start| occupy no sector
UNIQUE_THRESHOLD = 1e-10    # least sigma_{n-1}/sigma_1 of a unique steady state


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
        return tuple(self.cutoff_of(k) + 1 if f.kind == FOCK else f.dim
                     for k, f in enumerate(space.factors))


def _factor_matrix(op, kind: str, dim: int) -> np.ndarray:
    """The matrix of one fundamental operator on its own factor."""
    if kind == FOCK:
        a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)
        return a.conj().T if op.kind == "create" else a
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[op.i, op.j] = 1.0
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
        blocks = (reduce(np.matmul, [_factor_matrix(op, f.kind, dims[k])
                                     for op in ops if op.subspace == k],
                         np.eye(dims[k], dtype=np.complex128))
                  for k, f in enumerate(space.factors))
        out += complex(coeff.evaluate(params or {})) * reduce(np.kron, blocks)
    return out


def ground_state(space: ProductSpace, trunc: TruncationSpec,
                 occupation: dict | None = None) -> np.ndarray:
    """Pure product density matrix.

    ``occupation`` overrides per factor name: a Fock occupation number or a
    level label.  Default is vacuum / the first declared level.  A name
    that is not a factor, an occupation that is not an integer below the
    dimension, or a label that is not a level raises :class:`AlgebraError`.
    """
    occupation = occupation or {}
    for name in occupation:
        space.index(name)
    dims = trunc.dims(space)
    vecs = []
    for k, f in enumerate(space.factors):
        v = np.zeros(dims[k], dtype=np.complex128)
        choice = occupation.get(f.name)
        if choice is None:
            v[0] = 1.0
        elif f.kind != FOCK:
            v[f.level_index(choice)] = 1.0
        elif isinstance(choice, (int, np.integer)) and 0 <= choice < dims[k]:
            v[choice] = 1.0
        else:
            raise AlgebraError(f"occupation {choice!r} of {f.name!r} is not an "
                               f"integer from 0 to the cutoff {dims[k] - 1}")
        vecs.append(v)
    psi = reduce(np.kron, vecs)
    return np.outer(psi, psi.conj())


class Sector:
    """A set of density-matrix entries (i, j), listed in row-major order.

    ``gather`` reads the entries off a matrix, ``scatter`` fills them into
    zero matrices (over leading axes), and ``weights(O)`` is the vector w
    with tr(O rho) = w @ gather(rho), since tr(O rho) = sum O_ji rho_ij.
    """

    def __init__(self, mask: np.ndarray):
        self.dim = mask.shape[0]
        self.rows, self.cols = np.nonzero(mask)

    def __len__(self) -> int:
        return len(self.rows)

    def gather(self, m: np.ndarray) -> np.ndarray:
        return m[self.rows, self.cols]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim), dtype=np.complex128)
        out[..., self.rows, self.cols] = x
        return out

    def weights(self, op: np.ndarray) -> np.ndarray:
        return op[self.cols, self.rows]


@dataclass
class MEResult:
    """Sampled density-matrix evolution with expectation extraction.

    ``states`` holds one row per time: the entries of the density matrix in
    ``sector``, the charge sectors its start occupies (all entries for a
    product-form generator).  The other entries stay zero; ``rhos`` are the
    full matrices.
    """

    times: np.ndarray
    states: np.ndarray
    sector: Sector
    space: ProductSpace
    trunc: TruncationSpec
    params: dict
    warnings: list = field(default_factory=list)

    @cached_property
    def rhos(self) -> list:
        return list(self.sector.scatter(self.states))

    def expect(self, op: QExpr) -> np.ndarray:
        """tr(O rho) at every sampled time."""
        m = to_matrix(op, self.trunc, self.params)
        return self.states @ self.sector.weights(m)

    @property
    def final(self) -> np.ndarray:
        return self.sector.scatter(self.states[-1])


class _Lindblad:
    """The Lindblad generator K rho + rho K_r + sum_n (g_n c_n) rho c_n',

    with K = -iH - 1/2 sum g c'c and K_r = iH - 1/2 sum g c'c (K' for real
    rates) folded once; rho need not be Hermitian (the delay evolution starts
    from B rho_ss).  Called as ``f(t, rho_flat)`` it is the product form on
    the whole flattened matrix.  ``differences`` holds q_i - q_j per entry,
    all zero when the model does not conserve q.  ``to_matrix`` is the
    module's, in this truncation and with these parameters.
    """

    def __init__(self, model: ModelDefinition, trunc: TruncationSpec,
                 params: dict):
        self.space, self.trunc = model.space, trunc
        self.to_matrix = partial(to_matrix, trunc=trunc, params=params)
        H = self.to_matrix(model.hamiltonian)
        loss = np.zeros_like(H)
        self.jumps = []
        for c, rate in zip(model.jumps, model.rates):
            if rate.averages():
                raise EvaluationError(
                    "symbolic average in a rate; the oracle needs numeric rates"
                )
            g = complex(rate.evaluate(params))
            cm = self.to_matrix(c)
            loss += 0.5 * g * (cm.conj().T @ cm)
            self.jumps.append((g * cm, cm.conj().T))
        self.K, self.K_right = -1j * H - loss, 1j * H - loss
        self.dim = H.shape[0]
        dims = trunc.dims(model.space)
        self.levels = np.indices(dims).reshape(len(dims), -1)
        conserved = (
            all(sequence_phase(ops) == 0 for ops, _ in model.hamiltonian.terms)
            and all(len({sequence_phase(ops) for ops, _ in c.terms}) <= 1
                    for c in model.jumps))
        charges = (self.levels.sum(axis=0) if conserved
                   else np.zeros(self.dim, dtype=int))
        self.differences = charges[:, None] - charges[None, :]

    def __call__(self, t, rho_flat):
        rho = rho_flat.reshape(self.dim, self.dim)
        drho = self.K @ rho + rho @ self.K_right
        for gc, cd in self.jumps:
            drho += gc @ rho @ cd
        return drho.reshape(-1)

    def sector(self, start: np.ndarray) -> Sector:
        """The entries whose charge difference q_i - q_j is that of an entry
        of ``start`` above 1e-12 of max|start|; all entries when a dense
        generator on those would take more multiply-adds (|S|^2) than one
        n x n product (n^3).

        A start computed in floating point (B rho_ss with a least-squares
        rho_ss, say) leaves rounding noise in every sector.  The sectors
        evolve independently, so leaving out the entries below the bound
        drops only their own evolution, which starts at most 1e-12 of
        max|start| in size.
        """
        size = np.abs(start)
        occupied = size > NOISE_THRESHOLD * size.max()
        mask = np.isin(self.differences, self.differences[occupied])
        if np.count_nonzero(mask) ** 2 > self.dim ** 3:
            mask[:] = True
        return Sector(mask)

    def is_dense(self, sector: Sector) -> bool:
        return len(sector) < self.dim ** 2

    def matrix(self, sector: Sector) -> np.ndarray:
        """The generator on the entries of ``sector`` as a dense matrix.

        Entry ((i, j), (k, l)) is K_ik [j = l] + [i = k] K_r,lj
        + sum_n (g_n c_n)_ik (c_n')_lj.
        """
        r, c = sector.rows, sector.cols
        ik = (r[:, None], r[None, :])
        lj = (c[None, :], c[:, None])
        out = self.K[ik] * (lj[0] == lj[1]) + (ik[0] == ik[1]) * self.K_right[lj]
        for gc, cd in self.jumps:
            out += gc[ik] * cd[lj]
        return out

    def evolve(self, start: np.ndarray, taus, observe: np.ndarray | None = None):
        """The sectors of ``start`` and its evolution at ``taus`` (from 0).

        One row per tau: the entries in those sectors, or tr(observe rho)
        for the operator matrix ``observe``.  A dense sector is propagated
        exactly; the product form is integrated.
        """
        sector = self.sector(start)
        x0 = sector.gather(start)
        weights = None if observe is None else sector.weights(observe)
        if self.is_dense(sector):
            return sector, propagate(self.matrix(sector), x0, taus,
                                     observe=weights)
        return sector, integrate(self, x0, (0.0, taus[-1]), saveat=taus,
                                 observe=weights).states


def me_evolve(model: ModelDefinition, trunc: TruncationSpec, rho0: np.ndarray,
              tspan, params: dict | None = None, saveat=None) -> MEResult:
    """Evolve the Lindblad master equation; attach truncation-leak warnings.

    Only the charge sectors that ``rho0`` occupies are evolved, exactly on
    a dense sector; the state is sampled at ``saveat``, or else at the two
    ends of ``tspan``.  Population above the leak threshold in any top Fock
    level means the cutoff is biting; the result is still returned, flagged.
    """
    params = params or {}
    lindblad = _Lindblad(model, trunc, params)
    times = sample_times(tspan, saveat)
    sector, states = lindblad.evolve(np.asarray(rho0, dtype=np.complex128),
                                     times - float(tspan[0]))
    result = MEResult(times, states, sector, model.space, trunc, params)
    # populations are diagonal entries, which sector 0 holds
    diagonal = np.flatnonzero(sector.rows == sector.cols)
    levels = lindblad.levels[:, sector.rows[diagonal]]
    dims = trunc.dims(model.space)
    for k, f in enumerate(model.space.factors):
        if f.kind != FOCK:
            continue
        on_top = diagonal[levels[k] == dims[k] - 1]
        top = float(np.max(np.abs(states[:, on_top].sum(axis=1))))
        if top > LEAK_THRESHOLD:
            result.warnings.append(f"truncation leak on {f.name!r}: "
                                   f"top-level population {top:.3e}")
    return result


def _steady(lindblad: _Lindblad) -> np.ndarray:
    """The steady density matrix: the null vector of sector 0, or the
    product form integrated to rest from the ground state."""
    # a unique steady state commutes with q, so it lies in sector 0
    sector = lindblad.sector(np.eye(lindblad.dim))
    if not lindblad.is_dense(sector):
        x0 = sector.gather(ground_state(lindblad.space, lindblad.trunc))
        return sector.scatter(steady_state(lindblad, x0))
    _, sigma, vh = np.linalg.svd(lindblad.matrix(sector))
    if not sigma[-2] > UNIQUE_THRESHOLD * sigma[0]:
        raise NonStationaryError(
            f"the steady state is not unique: the second-smallest singular "
            f"value of sector 0, {sigma[-2]:.3e}, is below "
            f"{UNIQUE_THRESHOLD:g} of the largest, {sigma[0]:.3e}",
            residual=float(sigma[-1]), time=0.0)
    null = vh[-1].conj()
    return sector.scatter(null / null[sector.rows == sector.cols].sum())


def me_steady(model: ModelDefinition, trunc: TruncationSpec,
              params: dict | None = None) -> np.ndarray:
    """Steady density matrix of the master equation, with unit trace.

    With charge sectors it is the right singular vector of sector 0's
    matrix for the smallest singular value, unique when the second-smallest
    is at least 1e-10 of the largest (else :class:`NonStationaryError`).  A
    product form is integrated from the ground state until its residual
    vanishes; a unique steady state does not depend on where that starts.
    """
    return _steady(_Lindblad(model, trunc, params or {}))


def me_correlation(model: ModelDefinition, trunc: TruncationSpec, A: QExpr,
                   B: QExpr, rho: np.ndarray, taus, params: dict | None = None):
    """C(tau) = tr(A e^{L tau}(B rho)) at non-negative, increasing ``taus``
    from the reference state ``rho``: the steady state for the regression
    theorem, or an evolved state for a correlation at a finite time.  B rho
    evolves on the charge sectors it occupies, exactly on a dense sector.
    """
    return _correlation(_Lindblad(model, trunc, params or {}), A, B, rho, taus)


def _correlation(lindblad: _Lindblad, A, B, rho, taus) -> np.ndarray:
    start = lindblad.to_matrix(B) @ np.asarray(rho, dtype=np.complex128)
    return lindblad.evolve(start, taus, lindblad.to_matrix(A))[1]


def me_spectrum(model: ModelDefinition, trunc: TruncationSpec, A: QExpr,
                B: QExpr, omegas, params: dict | None = None,
                tau_max: float = 60.0, tau_points: int = 4096):
    """Power spectrum via the regression theorem and a Fourier quadrature.

    The steady state (``me_steady``) is the reference state of
    ``me_correlation`` on a uniform grid of ``tau_points`` over [0,
    ``tau_max``], and that C(tau) is transformed on the requested grid.
    Returns (omegas, S, C_tau, taus).
    """
    lindblad = _Lindblad(model, trunc, params or {})
    taus = np.linspace(0.0, tau_max, tau_points)
    corr = _correlation(lindblad, A, B, _steady(lindblad), taus)
    return (np.asarray(omegas, dtype=float),
            fourier_spectrum(taus, corr, omegas), corr, taus)
