"""Dense master-equation backend: matrix assembly and Lindblad evolution."""

import functools

import numpy as np
import pytest

from cqf import (ModelDefinition, StepperConfig, TruncationSpec, adjoint,
                 destroy, fock, ground_state, identity, integrate,
                 me_correlation, me_evolve, me_spectrum, me_steady, nlevel,
                 parameters, product, qmul, to_matrix, transition)
from cqf import oracle as oracle_mod
from cqf.errors import AlgebraError, EvaluationError, NonStationaryError
from cqf.oracle import _Lindblad, fourier_spectrum


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
    rhs = _Lindblad(laser.model, trunc, laser.params)
    dim = rhs.dim
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


@pytest.mark.parametrize("occupation, message", [
    ({"cavty": 1}, "no factor named 'cavty'"),
    ({"c": 3}, "occupation 3 of 'c' is not an integer from 0 to the cutoff 2"),
    ({"c": "1"}, "occupation '1' of 'c' is not an integer"),
    ({"c": 1.5}, "occupation 1.5 of 'c' is not an integer"),
    ({"atom": "f"}, "space 'atom' has no level 'f'"),
], ids=["unknown-name", "above-cutoff", "string-occupation",
        "fractional-occupation", "unknown-level"])
def test_ground_state_refuses_what_it_does_not_know(occupation, message):
    space = product(fock("c"), nlevel("atom", ("g", "e")))
    trunc = TruncationSpec.uniform(space, 2)
    with pytest.raises(AlgebraError, match=message):
        ground_state(space, trunc, occupation)
    rho = ground_state(space, trunc, {"c": 2, "atom": "e"})
    assert rho[5, 5] == 1.0 and np.count_nonzero(rho) == 1


def test_evolution_without_saveat_returns_the_span_ends(laser, trunc):
    rho0 = ground_state(laser.space, trunc)
    res = me_evolve(laser.model, trunc, rho0, (1.0, 3.0), params=laser.params)
    assert res.times.tolist() == [1.0, 3.0]
    assert np.array_equal(res.rhos[0], rho0)
    later = me_evolve(laser.model, trunc, rho0, (0.0, 2.0), params=laser.params,
                      saveat=[2.0])
    assert np.max(np.abs(res.final - later.final)) < 1e-14


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


# -- charge sectors, against the full-space product form ------------------------


def _superoperator(lindblad):
    """The full generator as an n^2 x n^2 matrix: the product form applied
    to every unit matrix."""
    units = np.eye(lindblad.dim ** 2, dtype=np.complex128)
    return np.column_stack([lindblad(0.0, e) for e in units])


def _full_steady(lindblad):
    """The null vector of the full generator with unit trace, by least squares."""
    n = lindblad.dim
    system = np.vstack([_superoperator(lindblad), np.eye(n).reshape(1, -1)])
    rhs = np.zeros(n * n + 1, dtype=np.complex128)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(n, n)


def _driven_laser(laser):
    """The laser with a coherent drive eta (a + a'), which breaks the charge."""
    eta, = parameters("η")
    H = laser.model.hamiltonian + eta * (laser.a + laser.ad)
    model = ModelDefinition.create(laser.space, H, jumps=laser.model.jumps,
                                   rates=laser.model.rates)
    return model, dict(laser.params, η=0.7)


def _cavity_superposition(space, trunc):
    """(|0> + |1>)/sqrt(2) in the cavity, the atom in g: sectors -1, 0, 1."""
    psi = np.kron(np.array([1.0, 1.0] + [0.0] * (trunc.dims(space)[0] - 2)),
                  np.eye(trunc.dims(space)[1])[0]) / np.sqrt(2)
    return np.outer(psi, psi).astype(np.complex128)


def test_each_sector_block_is_the_full_generator_on_its_unit_matrices(laser):
    trunc = TruncationSpec.uniform(laser.space, 3)
    lindblad = _Lindblad(laser.model, trunc, laser.params)
    n = lindblad.dim
    full = _superoperator(lindblad)
    covered = 0
    for k in np.unique(lindblad.differences):
        sector = lindblad.sector(lindblad.differences == k)
        assert lindblad.is_dense(sector)
        inside = sector.rows * n + sector.cols
        covered += len(inside)
        block = lindblad.matrix(sector)
        assert np.max(np.abs(block - full[np.ix_(inside, inside)])) < 1e-13
        # nothing the sector's entries generate lands outside it
        outside = np.setdiff1d(np.arange(n * n), inside)
        assert not np.any(full[np.ix_(outside, inside)])
    assert covered == n * n


def test_sector_steady_state_is_the_null_vector_of_the_full_generator(laser):
    trunc = TruncationSpec.uniform(laser.space, 4)
    reference = _full_steady(_Lindblad(laser.model, trunc, laser.params))
    rho = me_steady(laser.model, trunc, params=laser.params)
    assert np.max(np.abs(rho - reference)) < 1e-12


def test_sector_evolution_of_a_cavity_coherence(laser):
    # the smallest cutoff at which sectors -1, 0 and 1 together take the
    # dense form (|S|^2 <= n^3)
    trunc = TruncationSpec.uniform(laser.space, 16)
    lindblad = _Lindblad(laser.model, trunc, laser.params)
    rho0 = _cavity_superposition(laser.space, trunc)
    times = np.linspace(0.0, 4.0, 41)
    res = me_evolve(laser.model, trunc, rho0, (0.0, 4.0), params=laser.params,
                    saveat=times)
    assert len(res.sector) < lindblad.dim ** 2
    assert set(np.unique(lindblad.differences[res.sector.rows, res.sector.cols])) \
        == {-1, 0, 1}
    full = integrate(lindblad, rho0.reshape(-1), (0.0, 4.0),
                     StepperConfig.rk45(rtol=1e-13, atol=1e-16), saveat=times)
    reference = full.states.reshape(len(times), lindblad.dim, lindblad.dim)
    assert np.max(np.abs(np.array(res.rhos) - reference)) < 1e-9
    a = to_matrix(laser.a, trunc)
    coherence = np.einsum("ij,tji->t", a, reference)
    assert np.max(np.abs(coherence)) > 0.1
    assert np.max(np.abs(res.expect(laser.a) - coherence)) < 1e-9


def test_sector_spectrum_of_a_two_sector_operator(laser, monkeypatch):
    # at cutoff 5, sectors -1 and 1 together take the dense form
    trunc = TruncationSpec.uniform(laser.space, 5)
    lindblad = _Lindblad(laser.model, trunc, laser.params)
    built = []
    matrix = _Lindblad.matrix

    def spy(self, sector):
        built.append(sector)
        return matrix(self, sector)

    monkeypatch.setattr(_Lindblad, "matrix", spy)
    x = laser.a + laser.ad
    omegas = np.linspace(-3.0, 3.0, 61)
    _, s, corr, taus = me_spectrum(laser.model, trunc, x, x, omegas,
                                   params=laser.params, tau_max=20.0,
                                   tau_points=801)
    steady, sector = built      # sector 0 for rho_ss, then the delay's
    assert set(np.unique(lindblad.differences[steady.rows, steady.cols])) \
        == {0}
    assert lindblad.is_dense(sector)
    assert set(np.unique(lindblad.differences[sector.rows, sector.cols])) \
        == {-1, 1}
    xm = to_matrix(x, trunc)
    start = xm @ _full_steady(lindblad)
    ref_corr = integrate(lindblad, start.reshape(-1), (0.0, 20.0),
                         StepperConfig.rk45(rtol=1e-13, atol=1e-16),
                         saveat=taus, observe=xm.T.reshape(-1)).states
    ref_s = fourier_spectrum(taus, ref_corr, omegas)
    assert np.max(np.abs(corr - ref_corr)) < 1e-9 * np.max(np.abs(ref_corr))
    assert np.max(np.abs(s - ref_s)) < 1e-9 * np.max(np.abs(ref_s))


def test_dense_sectors_are_propagated_and_never_stepped(laser, monkeypatch):
    """On the laser's sectors ``me_evolve``, ``me_correlation`` and
    ``me_spectrum`` all run without the Runge-Kutta stepper."""
    def stepper(*args, **kwargs):
        raise AssertionError("a dense sector was stepped")

    monkeypatch.setattr(oracle_mod, "integrate", stepper)
    trunc = TruncationSpec.uniform(laser.space, 8)
    rho0 = ground_state(laser.space, trunc)
    res = me_evolve(laser.model, trunc, rho0, (0.0, 2.0), params=laser.params,
                    saveat=np.linspace(0.0, 2.0, 5))
    n = int(np.prod(trunc.dims(laser.space)))
    assert len(res.sector) < n * n      # a dense sector, not the product form
    rho = me_steady(laser.model, trunc, params=laser.params)
    corr = me_correlation(laser.model, trunc, laser.ad, laser.a, rho,
                          np.linspace(0.0, 5.0, 11), params=laser.params)
    assert corr.shape == (11,)
    me_spectrum(laser.model, trunc, laser.ad, laser.a, np.linspace(-1, 1, 5),
                params=laser.params, tau_max=5.0, tau_points=11)


def test_me_correlation_is_the_correlation_of_me_spectrum(laser):
    """``me_spectrum`` transforms exactly ``me_correlation`` from the steady
    state: the same C(tau), bit for bit."""
    trunc = TruncationSpec.uniform(laser.space, 8)
    _, _, corr, taus = me_spectrum(laser.model, trunc, laser.ad, laser.a,
                                   np.linspace(-3.0, 3.0, 31),
                                   params=laser.params, tau_max=15.0,
                                   tau_points=1501)
    rho = me_steady(laser.model, trunc, params=laser.params)
    alone = me_correlation(laser.model, trunc, laser.ad, laser.a, rho, taus,
                           params=laser.params)
    assert np.array_equal(alone, corr)


def test_sectors_ignore_rounding_noise_in_the_start(laser):
    """(a + a') rho_ss with a least-squares rho_ss carries rounding noise in
    every sector; only sectors -1 and 1 hold entries above 1e-12 of the
    largest."""
    trunc = TruncationSpec.uniform(laser.space, 5)
    lindblad = _Lindblad(laser.model, trunc, laser.params)
    start = to_matrix(laser.a + laser.ad, trunc) @ _full_steady(lindblad)
    exact = np.isin(lindblad.differences, (-1, 1))
    assert np.count_nonzero(start[~exact]) > 0
    sector = lindblad.sector(start)
    assert len(sector) == np.count_nonzero(exact) == 40
    assert np.array_equal(sector.rows * lindblad.dim + sector.cols,
                          np.flatnonzero(exact))


def test_sector_correlation_is_exact(laser):
    """C(tau) = <a'(tau) a> by the sector propagator, against rk45 at
    rtol 1e-13 on the sector matrix, within 1e-10 of max|C|."""
    trunc = TruncationSpec.uniform(laser.space, 8)
    lindblad = _Lindblad(laser.model, trunc, laser.params)
    omegas = np.linspace(-3.0, 3.0, 31)
    _, _, corr, taus = me_spectrum(laser.model, trunc, laser.ad, laser.a,
                                   omegas, params=laser.params, tau_max=15.0,
                                   tau_points=1501)
    start = to_matrix(laser.a, trunc) @ me_steady(laser.model, trunc,
                                                  params=laser.params)
    sector = lindblad.sector(start)
    L = lindblad.matrix(sector)
    ref = integrate(lambda t, x: L @ x, sector.gather(start), (0.0, 15.0),
                    StepperConfig.rk45(rtol=1e-13, atol=1e-16), saveat=taus,
                    observe=sector.weights(to_matrix(laser.ad, trunc))).states
    assert np.max(np.abs(corr - ref)) < 1e-10 * np.max(np.abs(ref))


def test_a_steady_state_that_is_not_unique_raises():
    """A cavity without decay keeps every Fock population: sector 0's
    generator is zero and has no unique null vector."""
    h = product(fock("c"))
    a = destroy(h, "a")
    kappa, = parameters("κ")
    model = ModelDefinition.create(h, a.dag() * a, jumps=(a,), rates=(kappa,))
    trunc = TruncationSpec.uniform(h, 4)
    with pytest.raises(NonStationaryError, match="not unique") as err:
        me_steady(model, trunc, params={"κ": 0.0})
    assert "second-smallest singular value of sector 0, 0.000e+00" \
        in str(err.value)
    # with decay the vacuum is the unique steady state
    rho = me_steady(model, trunc, params={"κ": 1.0})
    assert np.max(np.abs(rho - ground_state(h, trunc))) < 1e-14


@pytest.mark.parametrize("case", ["driven laser", "three-level"])
def test_models_without_the_charge_take_the_product_form(case, laser,
                                                         three_level):
    if case == "driven laser":
        model, params = _driven_laser(laser)
        space, probe = laser.space, laser.a
    else:
        model, params = three_level.model, three_level.params
        space, probe = three_level.space, three_level.a
    trunc = TruncationSpec.uniform(space, 3)
    lindblad = _Lindblad(model, trunc, params)
    assert not lindblad.differences.any()
    rho0 = ground_state(space, trunc)
    assert not lindblad.is_dense(lindblad.sector(rho0))

    # the product form is integrated until max|drho/dt| < 1e-8, which fixes
    # the state only to about that residual over the slowest decay rate
    rho = me_steady(model, trunc, params=params)
    assert np.max(np.abs(rho - _full_steady(lindblad))) < 1e-7

    times = np.linspace(0.0, 2.0, 21)
    res = me_evolve(model, trunc, rho0, (0.0, 2.0), params=params,
                    saveat=times)
    full = integrate(lindblad, rho0.reshape(-1), (0.0, 2.0), saveat=times)
    assert np.max(np.abs(np.array(res.rhos).reshape(len(times), -1)
                         - full.states)) < 1e-12
    pm = to_matrix(probe, trunc)
    assert np.allclose(res.expect(probe), full.states @ pm.T.reshape(-1),
                       atol=1e-12)
