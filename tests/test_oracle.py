"""Dense master-equation backend: matrix assembly and Lindblad evolution."""

import functools

import numpy as np
import pytest

from cqf import (ModelDefinition, StepperConfig, TruncationSpec, adjoint,
                 destroy, fock, ground_state, identity, me_evolve, me_steady,
                 nlevel, parameters, product, qmul, to_matrix, transition)
from cqf.errors import EvaluationError
from cqf.oracle import _lindblad_rhs


@pytest.fixture(scope="module")
def trunc(laser):
    return TruncationSpec.uniform(laser.space, 2)


def test_destroy_matrix_has_sqrt_superdiagonal(laser, trunc):
    m = to_matrix(laser.a, trunc)
    # basis: |n, s> with the atom fastest; a acts as sqrt(n) on the mode
    expected = np.kron(np.diag([np.sqrt(1), np.sqrt(2)], k=1), np.eye(2))
    assert np.allclose(m, expected)


def test_projector_matrix(laser, trunc):
    m = to_matrix(laser.see, trunc)
    assert np.allclose(m, np.kron(np.eye(3), np.diag([0.0, 1.0])))


def test_number_plus_one_is_diagonal(laser, trunc):
    m = to_matrix(qmul(laser.ad, laser.a) + identity(laser.space), trunc)
    assert np.allclose(np.diag(m).real, [1, 1, 2, 2, 3, 3])
    assert np.allclose(m, np.diag(np.diag(m)))


def test_parameter_coefficients_need_bindings(laser, trunc):
    H = laser.model.hamiltonian
    with pytest.raises(EvaluationError):
        to_matrix(H, trunc)
    m = to_matrix(H, trunc, laser.params)
    assert np.allclose(m, m.conj().T)


def test_matrix_representation_is_a_homomorphism(laser):
    """to_matrix(x y) = to_matrix(x) to_matrix(y) below the cutoff edge."""
    rng = np.random.default_rng(5)
    alphabet = [laser.a, laser.ad, laser.sge, laser.seg, laser.see]
    big = TruncationSpec.uniform(laser.space, 8)
    dims = big.dims(laser.space)
    inner = 4   # products of length <= 4 cannot reach the cutoff row from here
    mask_vec = np.kron((np.arange(dims[0]) < inner).astype(float),
                       np.ones(dims[1]))
    mask = np.outer(mask_vec, mask_vec)
    for _ in range(12):
        word = [alphabet[i] for i in rng.integers(0, 5, size=4)]
        x = functools.reduce(qmul, word[:2])
        y = functools.reduce(qmul, word[2:])
        lhs = to_matrix(qmul(x, y), big)
        rhs = to_matrix(x, big) @ to_matrix(y, big)
        assert np.allclose(lhs * mask, rhs * mask, atol=1e-12)


def test_commutation_below_cutoff(laser):
    big = TruncationSpec.uniform(laser.space, 10)
    a = to_matrix(laser.a, big)
    comm = a @ a.conj().T - a.conj().T @ a
    # exact identity except the last Fock row, where truncation bites
    dims = big.dims(laser.space)
    keep = dims[1] * (dims[0] - 1)
    assert np.allclose(comm[:keep, :keep], np.eye(dims[0] * dims[1])[:keep, :keep])


def test_photon_decay_is_exponential():
    h = product(fock("c"))
    a = destroy(h, "a")
    kappa, = parameters("κ")
    model = ModelDefinition.create(h, identity(h).scale(0), jumps=(a,),
                                   rates=(kappa,))
    trunc = TruncationSpec.uniform(h, 4)
    rho0 = ground_state(h, trunc, {"c": 1})
    times = np.linspace(0, 3, 31)
    res = me_evolve(model, trunc, rho0, (0, 3), params={"κ": 1.0},
                    saveat=times)
    n = res.expect(a.dag() * a).real
    assert np.max(np.abs(n - np.exp(-times))) < 1e-7
    assert not res.warnings


def test_generator_is_the_lindblad_form_on_non_hermitian_states(laser):
    """The folded generator against -i[H, rho] + sum g (c rho c' - {c'c, rho}/2),
    on a state that is not Hermitian, as B rho_ss in a delay evolution."""
    trunc = TruncationSpec.uniform(laser.space, 4)
    rhs, dim = _lindblad_rhs(laser.model, trunc, laser.params)
    H = to_matrix(laser.model.hamiltonian, trunc, laser.params)
    rng = np.random.default_rng(2)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    expected = -1j * (H @ rho - rho @ H)
    for c, rate in zip(laser.model.jumps, laser.model.rates):
        g = complex(rate.evaluate(laser.params))
        cm = to_matrix(c, trunc)
        cdc = cm.conj().T @ cm
        expected += g * (cm @ rho @ cm.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    got = rhs(0.0, rho.reshape(-1)).reshape(dim, dim)
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


def test_trace_and_hermiticity_preserved(laser):
    trunc = TruncationSpec.uniform(laser.space, 6)
    rho0 = ground_state(laser.space, trunc)
    res = me_evolve(laser.model, trunc, rho0, (0, 5), params=laser.params,
                    saveat=np.linspace(0, 5, 11))
    for rho in res.rhos:
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8


def test_truncation_leak_warning(laser):
    tight = TruncationSpec.uniform(laser.space, 1)
    rho0 = ground_state(laser.space, tight)
    res = me_evolve(laser.model, tight, rho0, (0, 5), params=laser.params,
                    saveat=[5.0])
    assert res.warnings


def test_steady_state_positivity(laser):
    trunc = TruncationSpec.uniform(laser.space, 10)
    rho = me_steady(laser.model, trunc, params=laser.params)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-8
    assert abs(np.trace(rho) - 1.0) < 1e-8


def test_oracle_uses_the_shared_model_object(laser):
    # the oracle consumes ModelDefinition directly: same H, jumps, rates
    trunc = TruncationSpec.uniform(laser.space, 3)
    H = to_matrix(laser.model.hamiltonian, trunc, laser.params)
    assert H.shape == (8, 8)
