import dataclasses
import random

import pytest

from eaqmds.codes import build_code
from eaqmds.cosets import DefiningSet, make_spec
from eaqmds.eaq import EaqParams, EbitOracleMismatch, derive_eaq, ebits_rank_oracle
from eaqmds.families import FamilyId, construction, instance_params
from eaqmds.fields import Matrix

import eaqmds.eaq as eaq_module

import oracles


def _setup(q, r, n, leaders=None, elements=None):
    spec = make_spec(q, r, n)
    if leaders is not None:
        t = DefiningSet.from_leaders(spec, leaders)
    else:
        t = DefiningSet.from_elements(spec, elements)
    return spec, t, build_code(spec, t)


# ---------------------------------------------------------------------------
# ebit counters
# ---------------------------------------------------------------------------

def test_ebits_combinatorial_values():
    spec = make_spec(5, 2, 26)
    assert len(DefiningSet.from_leaders(spec, [13, 15, 17, 19]).t_ss) == 4
    spec13 = make_spec(13, 2, 17)
    assert len(DefiningSet.from_leaders(spec13, [17, 19, 21, 23]).t_ss) == 1
    t0 = DefiningSet.from_leaders(spec, [13, 15, 17])
    assert not t0.t_ss


def test_rank_oracle_h3():
    _, t, code = _setup(5, 3, 8, elements=[1, 4, 7])
    assert ebits_rank_oracle(code) == 1 == len(t.t_ss)


def test_rank_oracle_negacyclic_four():
    _, t, code = _setup(5, 2, 26, leaders=[13, 15, 17, 19])
    assert ebits_rank_oracle(code) == 4 == len(t.t_ss)


def test_rank_oracle_zero_iff_dual_containing():
    _, t, code = _setup(5, 2, 26, leaders=[13, 15, 17])
    h, f = code.check_matrix.entries, code.check_matrix.field
    assert not t.t_ss
    assert oracles.times_transpose_is_zero(f, h, [[f.conj(x) for x in row] for row in h])
    assert ebits_rank_oracle(code) == 0


def test_rank_oracle_invariant_under_row_basis_change():
    _, _, code = _setup(5, 3, 8, elements=[1, 4, 7])
    h = code.check_matrix
    field = h.field
    rng = random.Random(2718)
    baseline = ebits_rank_oracle(code)
    for _ in range(5):
        while True:
            a = Matrix(field, [[rng.randrange(field.order) for _ in range(h.rows)]
                               for _ in range(h.rows)])
            if a.rank() == h.rows:
                break
        hacked = dataclasses.replace(code, check_matrix=a @ h)
        assert ebits_rank_oracle(hacked) == baseline


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

def test_derive_eaq_examples():
    _, _, code = _setup(5, 2, 26, leaders=[13, 15, 17, 19])
    p = derive_eaq(code)
    assert (p.n, p.k, p.d, p.c) == (26, 16, 8, 4)
    assert p.mds and p.verified == "rank-oracle"

    _, _, code = _setup(13, 2, 17, leaders=[17])
    p = derive_eaq(code)
    assert (p.n, p.k, p.d, p.c) == (17, 16, 2, 1)

    _, _, code = _setup(5, 3, 8, elements=[1, 4, 7])
    p = derive_eaq(code)
    assert (p.n, p.k, p.d, p.c) == (8, 3, 4, 1)
    assert str(p) == "[[8, 3, 4; 1]]_5"


def test_derive_combinatorial_matches_full_derivation():
    # the Q2P1_NEGA q=5 instance at k=3 has exactly these leaders
    spec, t, code = _setup(5, 2, 26, leaders=[13, 15, 17, 19])
    c = construction(FamilyId.Q2P1_NEGA, 5)
    assert c.defining_set(3) == t
    fast = instance_params(c, 3, t)
    full = derive_eaq(code)
    assert (fast.n, fast.k, fast.d, fast.c, fast.mds) == \
           (full.n, full.k, full.d, full.c, full.mds)
    assert fast.verified == "bch-only" and full.verified == "rank-oracle"


def test_k_relation():
    spec, t, code = _setup(13, 2, 17, leaders=[17, 19])
    p = derive_eaq(code)
    assert p.k == spec.n - 2 * len(t.elements) + p.c


def test_oracle_disagreement_is_hard_error(monkeypatch):
    _, _, code = _setup(5, 3, 8, elements=[1, 4, 7])
    monkeypatch.setattr(eaq_module, "ebits_rank_oracle", lambda code: 99)
    with pytest.raises(EbitOracleMismatch):
        derive_eaq(code)


def test_ebit_count_bounds_enforced():
    with pytest.raises(ValueError):
        EaqParams(q=5, n=8, k=3, d=4, c=8, mds=False)


# ---------------------------------------------------------------------------
# Singleton bound
# ---------------------------------------------------------------------------

def test_singleton_equalities():
    # mds is the EA-Singleton equality n + c - k = 2(d - 1); one less or
    # one more d breaks it
    for (q, r, n), elements, d, expected in [
            ((5, 2, 26), [7, 9, 11, 13, 15, 17, 19], 8, (26, 16, 8, 4)),
            ((5, 3, 8), [1, 4, 7], 4, (8, 3, 4, 1)),
            ((13, 2, 17), [17], 2, (17, 16, 2, 1))]:
        spec = make_spec(q, r, n)
        t = DefiningSet.from_elements(spec, elements)
        p = EaqParams.from_defining_set(spec, t, d, "bch-only")
        assert (p.n, p.k, p.d, p.c) == expected and p.mds
        for off in (d - 1, d + 1):
            assert not EaqParams.from_defining_set(spec, t, off, "bch-only").mds
