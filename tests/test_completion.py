"""Automatic completion: missing-average search, closure, count fixtures."""

import pytest

from cqf import (FILTER_PHASE, average_symbol, complete, filter_by_name,
                 meanfield_derive, missing_averages, qmul)
from cqf.errors import CapacityError
from conftest import make_tavis


def _family(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops)).family


def test_missing_from_first_order_field_equation(laser):
    eqs = meanfield_derive([laser.a], laser.model, 1, None)
    assert missing_averages(eqs) == {_family(laser.sge)}


def test_missing_from_photon_equation_collapses_conjugates(laser):
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    # both <a' sge> and <a seg> occur; they are one representative
    assert missing_averages(eqs) == {_family(laser.ad, laser.sge)}


def test_closed_set_has_no_missing(laser):
    eqs = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                                    FILTER_PHASE))
    assert missing_averages(eqs) == set()


def test_laser_closure_is_three_equations(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, FILTER_PHASE))
    assert len(closed) == 3
    assert set(closed.lhs_families()) == {
        _family(laser.ad, laser.a),
        _family(laser.ad, laser.sge),
        _family(laser.see),
    }


def test_completion_is_idempotent(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, FILTER_PHASE))
    again = complete(closed)
    assert again.equations == closed.equations


def test_seed_independence(laser):
    seeds = [qmul(laser.ad, laser.a), qmul(laser.ad, laser.sge), laser.see]
    systems = [complete(meanfield_derive([seed], laser.model, 2, FILTER_PHASE))
               for seed in seeds]
    families = [set(s.lhs_families()) for s in systems]
    assert families[0] == families[1] == families[2]
    rhs_by_family = [
        {eq.lhs.family: eq.rhs for eq in system} for system in systems
    ]
    assert rhs_by_family[0] == rhs_by_family[1] == rhs_by_family[2]


def test_phase_filter_preset_properties(laser):
    f = FILTER_PHASE
    n_fam = _family(laser.ad, laser.a)
    assert f.keep(n_fam)
    assert not f.keep(_family(laser.a))
    assert not f.keep(_family(laser.ad, laser.seg))
    # conjugation symmetry
    sym = average_symbol(tuple(qmul(laser.a, laser.seg).monomial_ops()))
    assert f.keep(sym) == f.keep(sym.conj())


def test_no_filter_is_none():
    assert filter_by_name("none") is None
    assert filter_by_name("phase") is FILTER_PHASE


@pytest.mark.parametrize("n_atoms", [2, 3, 5])
def test_tavis_cummings_equation_counts(n_atoms):
    tavis = make_tavis(n_atoms)
    seeds = [tavis.s(2, 2, k) for k in range(n_atoms)]
    eqs = meanfield_derive(seeds, tavis.model, 2, FILTER_PHASE)
    closed = complete(eqs)
    assert len(closed) == n_atoms * (n_atoms - 1) // 2 + 2 * n_atoms + 1


def test_three_level_order_four_has_thirty_equations(three_level):
    seeds = [qmul(three_level.ad, three_level.a), three_level.s(3, 3),
             three_level.s(2, 2)]
    closed = complete(meanfield_derive(seeds, three_level.model, 4, None))
    assert len(closed) == 30
    assert missing_averages(closed) == set()


def test_equation_cap(laser):
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 4, None)
    with pytest.raises(CapacityError):
        complete(eqs, max_equations=2)


def test_progress_hook_reports_counts(laser):
    counts = []
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    complete(eqs, progress=counts.append)
    assert counts == [2, 3]
