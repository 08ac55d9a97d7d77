import random

import pytest

from eaqmds.codes import build_code
from eaqmds.cosets import DefiningSet, dual_containing, make_spec
from eaqmds.eaq import (EaqParams, EbitOracleMismatch, check_singleton,
                        derive_eaq, ebits_combinatorial, ebits_rank_oracle,
                        singleton_equality)
from eaqmds.families import FamilyId, family_defining_set, instance_params
from eaqmds.fields import Matrix

import eaqmds.eaq as eaq_module


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
    assert ebits_combinatorial(DefiningSet.from_leaders(spec, [13, 15, 17, 19])) == 4
    spec13 = make_spec(13, 2, 17)
    assert ebits_combinatorial(DefiningSet.from_leaders(spec13, [17, 19, 21, 23])) == 1
    t0 = DefiningSet.from_leaders(spec, [13, 15, 17])
    assert dual_containing(t0) and ebits_combinatorial(t0) == 0


def test_rank_oracle_h3():
    _, t, code = _setup(5, 3, 8, elements=[1, 4, 7])
    assert ebits_rank_oracle(code) == 1 == ebits_combinatorial(t)


def test_rank_oracle_negacyclic_four():
    _, t, code = _setup(5, 2, 26, leaders=[13, 15, 17, 19])
    assert ebits_rank_oracle(code) == 4 == ebits_combinatorial(t)


def test_rank_oracle_zero_iff_dual_containing():
    _, t, code = _setup(5, 2, 26, leaders=[13, 15, 17])
    h = code.check_matrix
    assert dual_containing(t)
    assert (h @ h.conj_transpose()).is_zero()
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
        hacked = type(code)(spec=code.spec, defining_set=code.defining_set,
                            gen_poly=code.gen_poly, dim=code.dim,
                            bch_delta=code.bch_delta, gen_matrix=code.gen_matrix,
                            check_matrix=a @ h)
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
    instance = family_defining_set(FamilyId.Q2P1_NEGA, 5, k=3)
    assert instance.t == t
    fast = instance_params(instance)
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
    monkeypatch.setattr(eaq_module, "ebits_combinatorial", lambda t: 99)
    with pytest.raises(EbitOracleMismatch):
        derive_eaq(code)


def test_ebit_count_bounds_enforced():
    with pytest.raises(ValueError):
        EaqParams(q=5, n=8, k=3, d=4, c=8, mds=False)


# ---------------------------------------------------------------------------
# Singleton bound
# ---------------------------------------------------------------------------

def test_singleton_equalities():
    assert singleton_equality(EaqParams(q=5, n=26, k=16, d=8, c=4, mds=True))
    assert singleton_equality(EaqParams(q=5, n=8, k=3, d=4, c=1, mds=True))
    assert singleton_equality(EaqParams(q=13, n=17, k=16, d=2, c=1, mds=True))


def test_singleton_bound_vs_equality():
    slack = EaqParams(q=5, n=26, k=16, d=7, c=4, mds=False)
    assert check_singleton(slack) and not singleton_equality(slack)
    violating = EaqParams(q=5, n=26, k=16, d=9, c=4, mds=False)
    assert not check_singleton(violating)
