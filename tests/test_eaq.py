import pytest
from hypothesis import assume, given, strategies as st

from eaqmds.cli import main
from eaqmds.codes import build_code, build_tower
from eaqmds.cosets import DefiningSet, all_cosets, make_spec, minus_q
from eaqmds.eaq import EaqParams, EbitOracleMismatch, derive_eaq, ebits_rank_oracle
from eaqmds.families import FamilyId, construction, instance_params

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


# one spec per field: F_9, F_25, F_49, and F_{37^2} above the table cap
GRAM_SPECS = [(3, 4, 10), (5, 2, 13), (7, 2, 10), (37, 2, 12)]


def _draw_defining_set(spec, data):
    """A random closed T with 1 <= |T| < n, and the ebit count its kind
    forces: a dual-containing T (T_ss empty, c = 0), a T with T = T^{-q}
    (c = |T|), or any union of cosets (c not forced)."""
    kind = data.draw(st.sampled_from(["c=0", "c=|T|", "any"]))
    order = data.draw(st.permutations(all_cosets(spec)))
    count = data.draw(st.integers(min_value=1, max_value=len(order)))
    chosen: set[int] = set()
    for c in order[:count]:
        partner = {minus_q(spec, x) for x in c}
        if kind == "c=0" and partner & (chosen | set(c)):
            continue
        grown = chosen | set(c) | (partner if kind == "c=|T|" else set())
        if len(grown) < spec.n:
            chosen = grown
    assume(chosen)
    t = DefiningSet.from_elements(spec, chosen)
    forced = {"c=0": 0, "c=|T|": len(chosen), "any": None}[kind]
    return t, forced


@pytest.mark.parametrize("spec_args", GRAM_SPECS, ids=lambda a: f"GF({a[0]}^2)")
@given(data=st.data())
def test_rank_oracle_equals_schoolbook_rank_of_h_h_dagger(spec_args, data):
    """The Toeplitz oracle equals the rank of H H^dagger multiplied out term
    by term, for the check matrix and for A H with a random invertible A,
    and g h = x^n - eta holds for the check polynomial it reads."""
    spec = make_spec(*spec_args)
    t, forced = _draw_defining_set(spec, data)
    code = build_code(spec, t)
    f = code.check_poly.field
    eta = build_tower(spec).eta
    assert oracles.poly_product(f, list(code.gen_poly.coeffs), list(code.check_poly.coeffs)) \
        == [f.neg(eta)] + [0] * (spec.n - 1) + [1]

    h = [list(row) for row in code.check_matrix.entries]
    size = len(h)
    # A = L U with L unit lower and U upper triangular, U's diagonal nonzero
    unit = st.integers(min_value=1, max_value=f.order - 1)
    entry = st.integers(min_value=0, max_value=f.order - 1)
    lower = [[data.draw(entry) if j < i else int(i == j) for j in range(size)]
             for i in range(size)]
    upper = [[data.draw(unit) if j == i else data.draw(entry) if j > i else 0
              for j in range(size)] for i in range(size)]
    a_h = oracles.matrix_product(f, oracles.matrix_product(f, lower, upper, size), h, spec.n)

    c = ebits_rank_oracle(code)
    assert c == oracles.rref_rank(f, oracles.hermitian_gram(f, h))
    assert c == oracles.rref_rank(f, oracles.hermitian_gram(f, a_h))
    assert c == len(t.t_ss)
    if forced is not None:
        assert c == forced


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


def test_oracle_disagreement_is_hard_error(monkeypatch, capsys):
    _, _, code = _setup(5, 3, 8, elements=[1, 4, 7])
    monkeypatch.setattr(eaq_module, "ebits_rank_oracle", lambda code: 99)
    text = "ConstacyclicCode([8, 5, >=4] over GF(5^2)): rank oracle 99 != |T_ss| 1"
    with pytest.raises(EbitOracleMismatch) as err:
        derive_eaq(code)
    assert str(err.value) == text
    # the CLI prints the same text as one line and exits 1
    assert main(["code", "5", "3", "8", "--elements", "1,4,7", "--rank-oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {text}"] and captured.out == ""


def test_ebit_count_bounds_enforced():
    with pytest.raises(ValueError):
        EaqParams(q=5, n=8, k=3, d=4, c=8, mds=False)


# ---------------------------------------------------------------------------
# Singleton bound
# ---------------------------------------------------------------------------

def test_singleton_equalities():
    # mds is the EA-Singleton equality n + c - k = 2(d - 1) with d = delta(T),
    # that is d = |T| + 1: it holds on a single run and fails on the two runs
    # {7, 19} | {11, 15}, the cosets of 7 and 11, whose bound is 2
    for (q, r, n), elements, expected, mds in [
            ((5, 2, 26), [7, 9, 11, 13, 15, 17, 19], (26, 16, 8, 4), True),
            ((5, 3, 8), [1, 4, 7], (8, 3, 4, 1), True),
            ((13, 2, 17), [17], (17, 16, 2, 1), True),
            ((5, 2, 26), [7, 11, 15, 19], (26, 18, 2, 0), False)]:
        t = DefiningSet.from_elements(make_spec(q, r, n), elements)
        p = EaqParams.from_defining_set(t, "bch-only")
        assert (p.n, p.k, p.d, p.c, p.mds, p.verified) == expected + (mds, "bch-only")
