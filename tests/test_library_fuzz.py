"""Hypothesis tests over the library entry points with small integer inputs.

Whatever the integers, make_spec, coset, all_cosets, the DefiningSet
builders and its incremental step, construction, instance_params and
build_code either return or raise a ValueError subclass, inside the
deadline.  build_code runs only where the field tower is small, and the
oracles of instance_params only on short codes, so one example stays fast.

The incremental step DefiningSet.with_coset, folded over any sequence of
classes (any order, repeats allowed), gives the set from_leaders builds
from scratch, run starts included; onto a set that is not closed under
q^2 it gives what from_elements builds from the union.  bch_delta, which
reads the folded run starts, equals the exhaustive window oracle on every
set of such a sweep.
"""

import math

from hypothesis import example, given, settings, strategies as st

from eaqmds.codes import bch_delta, build_code
from eaqmds.cosets import DefiningSet, all_cosets, coset, make_spec, omega_set
from eaqmds.families import FamilyId, construction, instance_params

import oracles

SMALL_INT = st.integers(min_value=-3, max_value=40)
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
# build_code builds F_{q^(2m)}; above this order one tower takes seconds
TOWER_ORDER_CAP = 10**7


def _fields(t: DefiningSet) -> tuple:
    return t.elements, t.t_ss, t.t_sas, t.leaders, t.run_starts


def _call(fn, *args, **kwargs):
    """fn's result, or None when it raises a ValueError; any other error fails."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


@settings(deadline=5000)
@given(q=st.integers(min_value=-2, max_value=30), r=st.integers(min_value=-1, max_value=12),
       n=st.integers(min_value=-1, max_value=40), classes=st.lists(SMALL_INT, max_size=6),
       closed=st.booleans())
@example(q=3, r=1, n=1, classes=[0, 1], closed=True)  # rn = 1 once hung make_spec
def test_spec_and_set_entry_points_return_or_raise_value_error(q, r, n, classes, closed):
    spec = _call(make_spec, q, r, n)
    if spec is None:
        return
    assert sum(len(c) for c in all_cosets(spec)) == n
    for s in classes:
        _call(coset, spec, s)
    _call(DefiningSet.from_leaders, spec, classes)
    t = (_call(DefiningSet.from_elements, spec, classes, check_closure=closed)
         or DefiningSet.from_elements(spec, ()))
    for s in classes:
        t = _call(t.with_coset, s) or t
    if spec.q ** (2 * spec.m) <= TOWER_ORDER_CAP:
        code = _call(build_code, spec, t)
        assert code is None or code.dim == n - len(t.elements)


@settings(deadline=5000)
@given(family=st.sampled_from(list(FamilyId)), q=st.integers(min_value=-1, max_value=13),
       h=st.sampled_from([None, -1, 0, 3, 5, 7, 9]), dk=st.integers(min_value=-2, max_value=40),
       rank_oracle=st.booleans(), exact_distance=st.booleans())
def test_family_entry_points_return_or_raise_value_error(family, q, h, dk, rank_oracle,
                                                          exact_distance):
    try:
        c = construction(family, q, h)
    except ValueError:
        return
    k = c.lo + dk
    t = c.defining_set(k)
    short = c.spec.n <= 50
    try:
        params = instance_params(c, k, t, rank_oracle=rank_oracle and short,
                                 exact_distance=exact_distance and short,
                                 distance_budget=2000)
    except ValueError:
        assert not c.lo <= k <= c.hi
        return
    assert params.c == len(t.t_ss) == c.predicted_tss(k)


@st.composite
def _spec(draw):
    q = draw(st.sampled_from(PRIME_POWERS))
    r = draw(st.sampled_from([d for d in range(1, q + 2) if (q + 1) % d == 0]))
    n = draw(st.integers(min_value=1, max_value=60).filter(lambda n: math.gcd(n, q) == 1))
    return make_spec(q, r, n)


PICKS = st.lists(st.integers(min_value=0, max_value=59), max_size=12)


@given(spec=_spec(), picks=PICKS, raw_picks=PICKS)
# C(51) = {27, 51} and C(1) = {1, 25}: the run at indices 25, 0 wraps
@example(spec=make_spec(5, 2, 26), picks=[25, 0], raw_picks=[])
# r = q + 1, the Q2P1_CONSTA shape: its sweep start + r*k, k = 0..9
@example(spec=make_spec(7, 8, 50), picks=list(range(3, 13)), raw_picks=[])
# class 15 again: its coset {11, 15} is already in T
@example(spec=make_spec(5, 2, 26), picks=[7, 6, 7], raw_picks=[])
# every class of Omega, so no class starts a run
@example(spec=make_spec(3, 4, 10), picks=list(range(10)), raw_picks=[])
def test_folding_the_step_equals_the_from_scratch_build(spec, picks, raw_picks):
    omega = omega_set(spec)
    seq = [omega[i % spec.n] for i in picks]
    t = DefiningSet.from_elements(spec, ())
    for s in seq:
        grown = t.with_coset(s)
        if t.elements.issuperset(coset(spec, s)):
            assert grown is t
        t = grown
    assert _fields(t) == _fields(DefiningSet.from_leaders(spec, seq))
    if t.elements == frozenset(omega):
        assert t.run_starts == 0

    # a start that is not a union of whole cosets
    raw = {omega[i % spec.n] for i in raw_picks}
    t = DefiningSet.from_elements(spec, raw, check_closure=False)
    for s in seq:
        t = t.with_coset(s)
        raw.update(coset(spec, s))
    assert _fields(t) == _fields(DefiningSet.from_elements(spec, raw, check_closure=False))


@given(spec=_spec(), picks=PICKS)
@example(spec=make_spec(3, 1, 1), picks=[0])  # rn = 1: Omega = {0}
@example(spec=make_spec(5, 2, 1), picks=[0])  # n = 1, r = 2: Omega = {1}
@example(spec=make_spec(5, 2, 13), picks=[0, 3])  # C(1) | C(7) = {1, 25} | {7, 19}: three runs
def test_bch_delta_equals_the_longest_window_along_a_sweep(spec, picks):
    omega = omega_set(spec)
    t = DefiningSet.from_elements(spec, ())
    for s in [omega[i % spec.n] for i in picks]:
        assert bch_delta(t) == oracles.longest_consecutive_window(spec, t.elements) + 1
        t = t.with_coset(s)
    assert bch_delta(t) == oracles.longest_consecutive_window(spec, t.elements) + 1
    for c in all_cosets(spec):
        t = t.with_coset(c[0])
    assert t.elements == frozenset(omega) and t.run_starts == 0
    assert bch_delta(t) == spec.n + 1
