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
the uniqueness certified by the singular values), and the regression
C(tau) is exp(L tau) applied by ``propagate``.  ``me_evolve`` integrates
the sectors with the same Runge-Kutta steppers as the moment engine.  A
model that does not conserve q, or sectors too large for a dense matrix to
pay, keep the product form K rho + rho K_r + sum g c rho c' on the whole
matrix, integrated.  Intended for desk-scale verification (dimensions up
to a few thousand), not production simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra.operators import sequence_phase
from .algebra.qexpr import QExpr
from .algebra.spaces import FOCK, ProductSpace
from .correlation import fourier_spectrum
from .errors import AlgebraError, EvaluationError, NonStationaryError
from .meanfield import ModelDefinition
from .numerics.steppers import integrate, propagate, steady_state

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
    all zero when the model does not conserve q.
    """

    def __init__(self, model: ModelDefinition, trunc: TruncationSpec,
                 params: dict):
        H = to_matrix(model.hamiltonian, trunc, params)
        loss = np.zeros_like(H)
        self.jumps = []
        for c, rate in zip(model.jumps, model.rates):
            if rate.averages():
                raise EvaluationError(
                    "symbolic average in a rate; the oracle needs numeric rates"
                )
            g = complex(rate.evaluate(params))
            cm = to_matrix(c, trunc, params)
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

    def rhs(self, sector: Sector):
        """d/dt of the entries of ``sector``."""
        if not self.is_dense(sector):
            return self
        L = self.matrix(sector)
        return lambda t, x: L @ x


def me_evolve(model: ModelDefinition, trunc: TruncationSpec, rho0: np.ndarray,
              tspan, params: dict | None = None, saveat=None) -> MEResult:
    """Evolve the Lindblad master equation; attach truncation-leak warnings.

    Only the charge sectors that ``rho0`` occupies are evolved.  Population
    above the leak threshold in any top Fock level means the cutoff is
    biting; the result is still returned, flagged.
    """
    params = params or {}
    lindblad = _Lindblad(model, trunc, params)
    rho0 = np.asarray(rho0, dtype=np.complex128)
    sector = lindblad.sector(rho0)
    traj = integrate(lindblad.rhs(sector), sector.gather(rho0), tspan,
                     saveat=saveat)
    result = MEResult(traj.times, traj.states, sector, model.space, trunc,
                      params)
    # populations are diagonal entries, which sector 0 holds
    diagonal = np.flatnonzero(sector.rows == sector.cols)
    levels = lindblad.levels[:, sector.rows[diagonal]]
    dims = trunc.dims(model.space)
    for k, f in enumerate(model.space.factors):
        if f.kind != FOCK:
            continue
        on_top = diagonal[levels[k] == dims[k] - 1]
        top = float(np.max(np.abs(traj.states[:, on_top].sum(axis=1))))
        if top > LEAK_THRESHOLD:
            result.warnings.append(
                f"truncation leak on {f.name!r}: top-level population {top:.3e}"
            )
    return result


def _steady(lindblad: _Lindblad, rho0: np.ndarray) -> np.ndarray:
    """The steady density matrix: the null vector of sector 0, or the
    product form integrated to rest from ``rho0``."""
    # a unique steady state commutes with q, so it lies in sector 0
    sector = lindblad.sector(np.eye(lindblad.dim))
    if not lindblad.is_dense(sector):
        x0 = sector.gather(np.asarray(rho0, dtype=np.complex128))
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
              rho0: np.ndarray | None = None,
              params: dict | None = None) -> np.ndarray:
    """Steady density matrix of the master equation, with unit trace.

    With charge sectors, the steady state lies in sector 0 (q_i = q_j).
    There the generator is a dense matrix and the state is its right
    singular vector of the smallest singular value.  It is unique when the
    second-smallest singular value is at least 1e-10 of the largest;
    otherwise :class:`NonStationaryError` is raised with both values.  A
    product-form generator is integrated from ``rho0`` until its residual
    vanishes.
    """
    params = params or {}
    if rho0 is None:
        rho0 = ground_state(model.space, trunc)
    return _steady(_Lindblad(model, trunc, params), rho0)


def me_spectrum(model: ModelDefinition, trunc: TruncationSpec, A: QExpr,
                B: QExpr, omegas, params: dict | None = None,
                rho0: np.ndarray | None = None, tau_max: float = 60.0,
                tau_points: int = 4096):
    """Power spectrum via the regression theorem and a Fourier quadrature.

    The steady state is reached first; then B rho_ss evolves under the same
    generator, on the charge sectors it occupies, and tr(A rho(tau)) is
    transformed on the requested grid.  On a dense sector the evolution is
    exact, by ``propagate`` of the sector matrix on the uniform tau grid;
    the product form is integrated.  Returns (omegas, S, C_tau, taus).
    """
    params = params or {}
    if rho0 is None:
        rho0 = ground_state(model.space, trunc)
    lindblad = _Lindblad(model, trunc, params)
    start = to_matrix(B, trunc, params) @ _steady(lindblad, rho0)
    sector = lindblad.sector(start)
    taus = np.linspace(0.0, tau_max, tau_points)
    weights = sector.weights(to_matrix(A, trunc, params))
    if lindblad.is_dense(sector):
        corr = propagate(lindblad.matrix(sector), sector.gather(start), taus,
                         observe=weights)
    else:
        corr = integrate(lindblad, sector.gather(start), (0.0, tau_max),
                         saveat=taus, observe=weights).states
    spectrum = fourier_spectrum(taus, corr, omegas)
    return np.asarray(omegas, dtype=float), spectrum, corr, taus
