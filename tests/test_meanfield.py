"""Equation-of-motion derivation and averaging against hand-checked forms."""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from cqf import (FILTER_PHASE, I_UNIT, TruncationSpec, adjoint, average,
                 average_symbol, create, destroy, fock, identity,
                 meanfield_derive, nlevel, parameters, product, qle_rhs, qmul,
                 to_matrix, transition, zero)
from cqf.algebra import ScalarExpr, append_frozen
from cqf.errors import AlgebraError, SpaceMismatchError
from cqf.meanfield import MeanfieldEquation, ModelDefinition


def _avg(*exprs) -> ScalarExpr:
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return ScalarExpr.from_average(average_symbol(tuple(ops)))


def test_field_operator_equation(laser):
    """d a/dt = -(i Delta + kappa/2) a - i g sge."""
    got = qle_rhs(laser.a, laser.model)
    expected = laser.a.scale(-(I_UNIT * laser.delta + laser.kappa / 2)) \
        - laser.sge.scale(I_UNIT * laser.g)
    assert got == expected
    assert repr(got) == "(-i*Δ - 1/2*κ)*a - i*g*σge"


def test_population_operator_equation(laser):
    """d see/dt = -gamma see + nu (1 - see) + i g (a' sge - a seg)."""
    got = qle_rhs(laser.see, laser.model)
    expected = (
        laser.see.scale(-laser.gamma)
        + (identity(laser.space) - laser.see).scale(laser.nu)
        + (qmul(laser.ad, laser.sge) - qmul(laser.a, laser.seg)).scale(I_UNIT * laser.g)
    )
    assert got == expected


def test_coherence_operator_equation_has_the_doubled_term(laser):
    """The commutator gives i g a (2 see - 1), matching the second-order
    photon equation's structure; the damping is -(gamma+nu)/2."""
    got = qle_rhs(laser.sge, laser.model)
    expected = (
        laser.sge.scale(-(laser.gamma + laser.nu) / 2)
        - laser.a.scale(I_UNIT * laser.g)
        + qmul(laser.a, laser.see).scale(2 * I_UNIT * laser.g)
    )
    assert got == expected


def test_identity_is_conserved(laser, three_level, optomech):
    for model in (laser.model, three_level.model, optomech.model):
        assert qle_rhs(identity(model.space), model).is_zero


def test_projector_completeness_is_conserved(three_level):
    """Sum of all level projectors evolves trivially (populations conserved)."""
    total = zero(three_level.space)
    for m in (1, 2, 3):
        total = total + three_level.s(m, m)
    assert total == identity(three_level.space)
    assert qle_rhs(total, three_level.model).is_zero


def test_qle_rhs_is_linear(laser):
    alpha, beta = parameters("c1 c2")
    x, y = qmul(laser.ad, laser.a), laser.see
    combined = qle_rhs(x.scale(alpha) + y.scale(beta), laser.model)
    separate = qle_rhs(x, laser.model).scale(alpha) + \
        qle_rhs(y, laser.model).scale(beta)
    assert combined == separate


def test_space_mismatch_raises(laser, optomech):
    with pytest.raises(SpaceMismatchError):
        qle_rhs(optomech.a, laser.model)


def test_averaging_is_linear(laser):
    lam1, lam2 = parameters("λ1 λ2")
    x = qmul(laser.ad, laser.sge).scale(lam1) + laser.see.scale(lam2)
    assert average(x) == lam1 * _avg(laser.ad, laser.sge) + lam2 * _avg(laser.see)


def test_average_of_identity(laser):
    assert average(identity(laser.space)) == ScalarExpr.one()
    assert average(qmul(laser.a, laser.ad)) == _avg(laser.ad, laser.a) + 1


def test_averaged_field_equation(laser):
    got = average(qle_rhs(laser.a, laser.model))
    expected = -(I_UNIT * laser.delta + laser.kappa / 2) * _avg(laser.a) \
        - I_UNIT * laser.g * _avg(laser.sge)
    assert got == expected
    assert repr(got) == "-i*Δ*⟨a⟩ - 1/2*κ*⟨a⟩ - i*g*⟨σge⟩"


def test_averaged_population_equation(laser):
    got = average(qle_rhs(laser.see, laser.model))
    expected = laser.nu * (1 - _avg(laser.see)) - laser.gamma * _avg(laser.see) \
        + I_UNIT * laser.g * (_avg(laser.ad, laser.sge) - _avg(laser.a, laser.seg))
    assert got == expected


def test_first_order_field_equation(laser):
    eqs = meanfield_derive([laser.a], laser.model, 1, None)
    eq = eqs.equations[0]
    assert eq.lhs == average_symbol(laser.a.monomial_ops())
    expected = -(I_UNIT * laser.delta + laser.kappa / 2) * _avg(laser.a) \
        - I_UNIT * laser.g * _avg(laser.sge)
    assert eq.rhs == expected
    assert eq.render() == "d⟨a⟩/dt = -i*Δ*⟨a⟩ - 1/2*κ*⟨a⟩ - i*g*⟨σge⟩"


def test_second_order_photon_equation(laser):
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    eq = eqs.equations[0]
    expected = -laser.kappa * _avg(laser.ad, laser.a) \
        - I_UNIT * laser.g * _avg(laser.ad, laser.sge) \
        + I_UNIT * laser.g * _avg(laser.a, laser.seg)
    assert eq.rhs == expected


def test_second_order_population_equation(laser):
    eqs = meanfield_derive([laser.see], laser.model, 2, FILTER_PHASE)
    eq = eqs.equations[0]
    expected = laser.nu * (1 - _avg(laser.see)) - laser.gamma * _avg(laser.see) \
        + I_UNIT * laser.g * (_avg(laser.ad, laser.sge) - _avg(laser.a, laser.seg))
    assert eq.rhs == expected


def test_sum_seeds_are_rejected(laser):
    with pytest.raises(AlgebraError, match="separately"):
        meanfield_derive([laser.a + laser.see], laser.model, 2, None)


def test_duplicate_and_conjugate_seeds_collapse(laser):
    eqs = meanfield_derive([laser.a, laser.a, adjoint_of(laser.a)],
                           laser.model, 1, None)
    assert len(eqs) == 1


def adjoint_of(x):
    return x.dag()


def test_equation_hermiticity(laser):
    """Deriving O and O' independently gives conjugate right-hand sides."""
    for op in (laser.a, qmul(laser.ad, laser.sge), laser.sge):
        rhs = average(qle_rhs(op, laser.model))
        rhs_dag = average(qle_rhs(op.dag(), laser.model))
        assert rhs.conj() == rhs_dag


def test_mismatched_jump_rate_lengths(laser):
    with pytest.raises(AlgebraError):
        ModelDefinition.create(laser.space, laser.model.hamiltonian,
                               jumps=(laser.a,), rates=())


def _full_qle_rhs(O, model):
    """i[H, O] + sum rate D[c]O with the whole Hamiltonian and every jump."""
    H = model.hamiltonian
    rhs = (qmul(H, O) + qmul(O, H).scale(-1)).scale(I_UNIT)
    for c, rate in zip(model.jumps, model.rates):
        cd = adjoint(c)
        cdc = qmul(cd, c)
        sandwich = qmul(qmul(cd, O), c)
        anti = (qmul(cdc, O) + qmul(O, cdc)).scale(Fraction(1, 2))
        rhs = rhs + (sandwich + anti.scale(-1)).scale(rate)
    return rhs


def _canonical_monomials(model, max_len=3):
    """Every canonical operator product of 1..max_len factors of the model.

    Factors are a' and a of each mode and every transition of each
    discrete system except the ground projector, which is not canonical;
    names are taken from the model's own operators.
    """
    space = model.space
    names = {op.subspace: op.name
             for expr in (model.hamiltonian, *model.jumps)
             for ops, _ in expr.terms for op in ops}
    factors = []
    for k, f in enumerate(space.factors):
        if f.kind == "fock":
            factors += [("mode", k, create(space, names[k], k)),
                        ("mode", k, destroy(space, names[k], k))]
            continue
        for i in f.levels:
            for j in f.levels:
                if i == j == f.levels[f.ground_index]:
                    continue
                factors.append(("level", k, transition(space, names[k], i, j, k)))
    out = []
    for n in range(1, max_len + 1):
        for word in combinations_with_replacement(factors, n):
            levels = [k for kind, k, _ in word if kind == "level"]
            if len(levels) != len(set(levels)):
                continue
            O = word[0][2]
            for _, _, x in word[1:]:
                O = qmul(O, x)
            O.monomial_ops()    # a single canonical product, coefficient one
            out.append(O)
    return out


def _hand_built_model():
    """A constant in H, a collective jump, and a jump on a mode H never touches."""
    h = product(fock("cavity"), nlevel("atom1", 2), nlevel("atom2", 2),
                fock("bath"))
    a = destroy(h, "a", "cavity")
    b = destroy(h, "b", "bath")

    def s(i, j, k):
        return transition(h, f"σ{k}", str(i), str(j), f"atom{k}")

    w0, delta, g, kappa, gamma, eta = parameters("ω0 Δ g κ γ η")
    H = identity(h).scale(w0) + delta * (a.dag() * a) \
        + g * (a.dag() * s(1, 2, 1) + a * s(2, 1, 1))
    return ModelDefinition.create(h, H, jumps=(a, s(1, 2, 1) + s(1, 2, 2), b),
                                  rates=(kappa, gamma, eta))


@pytest.mark.parametrize("name", ["laser", "three_level", "optomech",
                                  "tavis3", "hand-built"])
def test_local_equation_of_motion_equals_the_full_formula(name, request):
    from conftest import make_tavis

    if name == "tavis3":
        model = make_tavis(3).model
    elif name == "hand-built":
        model = _hand_built_model()
    else:
        model = request.getfixturevalue(name).model
    monomials = _canonical_monomials(model)
    assert len(monomials) > 10
    for O in monomials:
        assert qle_rhs(O, model) == _full_qle_rhs(O, model), repr(O)


def test_frozen_operator_is_rejected(laser):
    frozen = append_frozen(laser.a, laser.ad.monomial_ops())
    with pytest.raises(AlgebraError, match="right of a frozen factor"):
        qle_rhs(frozen, laser.model)


def _lindblad(model, trunc, params):
    """rho -> -i[H, rho] + sum rate (c rho c' - 1/2 {c'c, rho}), in plain
    matrix algebra on the truncated basis."""
    H = to_matrix(model.hamiltonian, trunc, params)
    jumps = [(complex(rate.evaluate(params)), to_matrix(c, trunc, params))
             for c, rate in zip(model.jumps, model.rates)]

    def L(rho):
        out = -1j * (H @ rho - rho @ H)
        for g, c in jumps:
            cd = c.conj().T
            out += g * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
        return out
    return L


def _state_below_the_cutoff(space, trunc, margin, rng):
    """A random density matrix whose Fock occupations stay ``margin`` levels
    below every cutoff, so that no truncated product reaches the top."""
    dims = trunc.dims(space)
    levels = np.indices(dims).reshape(len(dims), -1)
    inside = np.ones(levels.shape[1], dtype=bool)
    for k, f in enumerate(space.factors):
        if f.kind == "fock":
            inside &= levels[k] <= trunc.cutoff_of(k) - margin
    m = int(inside.sum())
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho = np.zeros((levels.shape[1],) * 2, dtype=np.complex128)
    rho[np.ix_(inside, inside)] = A @ A.conj().T
    return rho / np.trace(rho)


def _generator_gaps(model, params, *generator_params) -> list:
    """Worst relative gap between tr(M(qle_rhs(O)) rho) and tr(M(O) L(rho))
    over the canonical monomials O, one per parameter set of the generator
    L, at cutoff 9 with rho four levels below it."""
    trunc = TruncationSpec.uniform(model.space, 9)
    rho = _state_below_the_cutoff(model.space, trunc, 4,
                                  np.random.default_rng(7))
    L_rhos = [_lindblad(model, trunc, p)(rho) for p in generator_params]
    worst = [0.0] * len(L_rhos)
    for O in _canonical_monomials(model):
        heisenberg = np.trace(to_matrix(qle_rhs(O, model), trunc, params) @ rho)
        M = to_matrix(O, trunc)
        for k, L_rho in enumerate(L_rhos):
            schroedinger = np.trace(M @ L_rho)
            worst[k] = max(worst[k], abs(heisenberg - schroedinger)
                           / max(abs(heisenberg), abs(schroedinger)))
    return worst


@pytest.mark.parametrize("name", ["laser", "three_level", "optomech", "tavis3"])
def test_equation_of_motion_matches_the_lindblad_generator(name, request):
    """Layer 0: the unclosed equations against plain matrix algebra.  For
    every canonical monomial O, <dO/dt> from ``qle_rhs`` equals tr(O L(rho));
    no closure enters.  Scaling κ by 1.001 in the generator alone, as a
    negative control, must break the agreement (measured: worst gaps of
    3e-15 to 4e-12, and 7e-4 to 2e-3 under the control)."""
    from conftest import make_tavis

    fixture = make_tavis(3) if name == "tavis3" else request.getfixturevalue(name)
    model, params = fixture.model, fixture.params
    exact, control = _generator_gaps(model, params, params,
                                     {**params, "κ": 1.001 * params["κ"]})
    assert exact < 1e-10
    assert control > 1e-5
