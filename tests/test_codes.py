import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from eaqmds import codes, fields
from eaqmds.codes import (CoefficientDescentError, DistanceBudgetExceeded,
                          InconsistentRootSystemError, bch_delta, build_code, build_tower,
                          classical_mds_verdict, exact_distance_small)
from eaqmds.cosets import DefiningSet, all_cosets, coset, make_spec, omega_set
from eaqmds.families import (FamilyId, applicable_combos, construction, family_spec,
                             odd_prime_powers)
from eaqmds.fields import Matrix, make_field

import oracles


def _code(q, r, n, leaders=None, elements=None):
    spec = make_spec(q, r, n)
    if leaders is not None:
        t = DefiningSet.from_leaders(spec, leaders)
    else:
        t = DefiningSet.from_elements(spec, elements)
    return build_code(spec, t)


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_omega_and_eta_orders():
    for args in [(5, 2, 26), (5, 3, 8), (13, 2, 17), (7, 8, 50), (9, 2, 82)]:
        spec = make_spec(*args)
        tower = build_tower(spec)
        # omega = gamma^e for the canonical primitive gamma of F_{q^(2m)}
        e = (spec.q ** (2 * spec.m) - 1) // spec.rn
        assert tower.omega == tower.top.pow(tower.top.primitive_code(), e)
        assert tower.top.element_order(tower.omega) == spec.rn
        assert tower.q2.element_order(tower.eta) == spec.r
        assert tower.embed.descend(tower.top.pow(tower.omega, spec.n)) == tower.eta


# every i of the first spec, and i = 0, n - 1 and 30 drawn ones of the second
@pytest.mark.parametrize("args,drawn", [((5, 2, 26), None), ((13, 2, 170), 30)])
def test_tower_powers_are_the_roots_of_omega_in_index_order(args, drawn):
    spec = make_spec(*args)
    tower = build_tower(spec)
    assert len(tower.powers) == spec.n
    indices = range(spec.n)
    if drawn is not None:
        indices = [0, spec.n - 1] + random.Random(5).sample(range(1, spec.n - 1), drawn)
    for i in indices:
        assert tower.powers[i] == tower.top.pow(tower.omega, 1 + spec.r * i)


@pytest.mark.parametrize("fake_order,message", [
    (lambda spec: 0, "omega does not have order rn=52"),
    # right for omega, so the eta check is the one that fails
    (lambda spec: spec.rn, "eta = omega^n does not have order r=2"),
], ids=["omega", "eta"])
def test_tower_order_checks_raise(monkeypatch, fake_order, message):
    # explicit raises, not asserts, so that python -O keeps both checks
    spec = make_spec(5, 2, 26)
    monkeypatch.setattr(fields.Field, "element_order", lambda self, a: fake_order(spec))
    with pytest.raises(InconsistentRootSystemError) as err:
        build_tower.__wrapped__(spec)  # past the cache, which holds the good tower
    assert str(err.value) == message


def test_towers_request_no_prime_field(monkeypatch):
    # every tower of `verify --q-max 9`, built past the lru_caches
    requests = []

    def spy(p, degree=1):
        requests.append((p, degree))
        return make_field(p, degree)

    monkeypatch.setattr(fields, "make_field", spy)
    monkeypatch.setattr(codes, "make_field", spy)
    monkeypatch.setattr(codes, "extend", fields.extend.__wrapped__)
    specs = {family_spec(*combo) for combo in applicable_combos(odd_prime_powers(9))}
    specs.add(make_spec(5, 2, 26))  # the descent canary
    for spec in specs:
        build_tower.__wrapped__(spec)
    assert len(specs) > 1 and requests
    assert [pd for pd in requests if pd[1] == 1] == []


def test_tower_top_field_degree():
    spec = make_spec(5, 2, 26)
    assert spec.m == 2
    assert build_tower(spec).top.order == 5**4
    spec_h = make_spec(5, 3, 8)
    assert spec_h.m == 1
    assert build_tower(spec_h).top is build_tower(spec_h).q2


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def test_h3_code_8_5():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    assert (code.n, code.dim) == (8, 5)
    assert code.gen_poly.degree == 3
    assert code.gen_poly.coeffs[-1] == 1
    # independent long-division oracle: gen_poly | x^8 - eta
    tower = build_tower(code.spec)
    f = code.gen_poly.field
    dividend = [f.neg(tower.eta)] + [0] * 7 + [1]
    assert oracles.long_division_remainder(f, dividend, list(code.gen_poly.coeffs)) == []


def test_negacyclic_code_26_19():
    code = _code(5, 2, 26, leaders=[13, 15, 17, 19])
    assert (code.n, code.dim) == (26, 19)
    assert code.bch_delta == 8
    assert oracles.generator_matrix(code).rows == 19 and code.check_matrix.rows == 7


def test_full_defining_set_gives_zero_code():
    spec = make_spec(5, 3, 8)
    t = DefiningSet.from_elements(spec, omega_set(spec))
    code = build_code(spec, t)
    assert code.dim == 0
    tower = build_tower(spec)
    f = code.gen_poly.field
    assert list(code.gen_poly.coeffs) == [f.neg(tower.eta)] + [0] * 7 + [1]


def test_gen_poly_divides_for_every_small_code():
    for args, leaders in [((5, 2, 26), [13, 15, 17, 19]), ((13, 2, 17), [17, 19]),
                          ((7, 8, 50), [25, 33]), ((9, 2, 82), [41, 43])]:
        code = _code(*args, leaders=leaders)
        tower = build_tower(code.spec)
        f = code.gen_poly.field
        dividend = [f.neg(tower.eta)] + [0] * (code.n - 1) + [1]
        assert oracles.long_division_remainder(f, dividend, list(code.gen_poly.coeffs)) == []


def test_single_coset_products_descend():
    # the minimal polynomial of omega^s over F_{q^2} has coefficients there,
    # for every coset of every exercised spec
    for args in [(5, 2, 26), (5, 3, 8), (13, 2, 17), (7, 8, 50)]:
        spec = make_spec(*args)
        for c in all_cosets(spec):
            code = build_code(spec, DefiningSet.from_leaders(spec, [c[0]]))
            assert code.gen_poly.degree == len(c)


def test_matrices_orthogonal_and_full_rank():
    code = _code(5, 2, 26, leaders=[13, 15, 17, 19])
    g, h = oracles.generator_matrix(code), code.check_matrix
    assert oracles.times_transpose_is_zero(g.field, g.entries, h.entries)
    assert g.rank() == code.dim
    assert h.rank() == code.n - code.dim


def test_corrupted_defining_set_fails_descent():
    spec = make_spec(5, 2, 26)
    broken = DefiningSet.from_elements(spec, [13, 15], check_closure=False)
    with pytest.raises(CoefficientDescentError):
        build_code(spec, broken)


def _descent_message(q, elements):
    return (f"generator coefficients left F_{q}^2; defining set {sorted(elements)} "
            f"is not closed under multiplication by q^2")


@pytest.mark.parametrize("elements", [[13, 15], [11, 13], [9, 11, 13, 15, 17, 19]])
def test_split_coset_fails_descent_with_the_closure_message(elements):
    # q=5, n=26 cosets: {13}, {11, 15}, {9, 17}, {7, 19}; each set splits one,
    # last, first, or last after three whole ones
    spec = make_spec(5, 2, 26)
    broken = DefiningSet.from_elements(spec, elements, check_closure=False)
    with pytest.raises(CoefficientDescentError) as exc:
        build_code(spec, broken)
    assert str(exc.value) == _descent_message(5, elements)


@pytest.mark.parametrize("family,q,h,m", [
    (FamilyId.Q2P1_NEGA, 5, None, 2),     # negacyclic
    (FamilyId.Q2P1_CONSTA, 7, None, 2),   # r = q + 1
    (FamilyId.TENTH_3, 13, None, 2),
    (FamilyId.QM1_H, 11, 3, 1),
])
def test_family_generator_polynomials_equal_product_of_linear_factors(family, q, h, m):
    c = construction(family, q, h)
    assert c.spec.m == m
    for k in c.indices():
        t = c.defining_set(k)
        code = build_code(c.spec, t)
        expected = oracles.constacyclic_generator_product(build_tower(c.spec), t.elements)
        assert list(code.gen_poly.coeffs) == expected, c.label(k)


@pytest.mark.parametrize("q,r,n", [(5, 2, 12), (5, 6, 4)])  # m = 1: negacyclic, r = q + 1
def test_generator_polynomial_equals_product_of_linear_factors_m1(q, r, n):
    spec = make_spec(q, r, n)
    assert spec.m == 1
    cosets = all_cosets(spec)
    for size in (1, len(cosets) // 2, len(cosets) - 1):
        t = DefiningSet.from_leaders(spec, [c[0] for c in cosets[:size]])
        code = build_code(spec, t)
        expected = oracles.constacyclic_generator_product(build_tower(spec), t.elements)
        assert list(code.gen_poly.coeffs) == expected


# (q, r, n) with their tower degree m: two m = 1, and m = 2 and m = 4 towers
# F_{q^2m} above the 1024 lookup-table cap (2401, 28561 and 6561)
ROOT_SPECS = [(5, 3, 8), (37, 2, 12), (7, 2, 10), (13, 2, 17), (3, 2, 41)]


@given(spec_args=st.sampled_from(ROOT_SPECS), data=st.data())
def test_stepped_roots_give_the_generator_of_one_power_per_root(spec_args, data):
    """build_code reads its roots from a table stepped by omega^r and its
    factors from the coset cache; for any union of cosets g must be the
    product whose every root omega^j comes from its own top.pow."""
    spec = make_spec(*spec_args)
    leaders = [c[0] for c in all_cosets(spec)]
    pick = data.draw(st.lists(st.sampled_from(leaders), min_size=1,
                              max_size=len(leaders) - 1, unique=True))
    t = DefiningSet.from_leaders(spec, pick)
    assert list(build_code(spec, t).gen_poly.coeffs) == oracles.generator_poly(spec, t)


@pytest.mark.parametrize("family,q", [
    (FamilyId.Q2P1_NEGA, 9),   # q = 3^2, top field F_{3^8}
    (FamilyId.TENTH_7, 17),    # top field F_{17^4}, above the table cap
])
def test_sweep_generators_with_the_coset_cache_cold_and_warm(family, q):
    c = construction(family, q)
    codes.minimal_polynomial.cache_clear()
    for _ in range(2):  # cold, then every coset from the cache
        for k, t in c.defining_sets(c.indices()):
            assert list(build_code(c.spec, t).gen_poly.coeffs) \
                == oracles.generator_poly(c.spec, t), c.label(k)


@pytest.mark.parametrize("family,q,h", [(FamilyId.Q2P1_CONSTA, 7, None),
                                        (FamilyId.TENTH_3, 13, None),
                                        (FamilyId.QM1_H, 11, 3)])
def test_a_sweep_builds_each_coset_once(family, q, h):
    c = construction(family, q, h)
    codes.minimal_polynomial.cache_clear()
    for _, t in c.defining_sets(c.indices()):
        build_code(c.spec, t)
    t_hi = c.defining_set(c.hi)
    cosets_of_t_hi = {coset(c.spec, s)[0] for s in t_hi.elements}
    assert codes.minimal_polynomial.cache_info().misses == len(cosets_of_t_hi)


def test_a_split_coset_fails_descent_on_every_build():
    # {13} is a whole coset and {11, 15} is split; the failure is not cached,
    # so each build descends the split factor again
    spec = make_spec(5, 2, 26)
    broken = DefiningSet.from_elements(spec, [13, 15], check_closure=False)
    codes.minimal_polynomial.cache_clear()
    for misses in (2, 3):
        with pytest.raises(CoefficientDescentError) as exc:
            build_code(spec, broken)
        assert str(exc.value) == _descent_message(5, [13, 15])
        assert codes.minimal_polynomial.cache_info().misses == misses
    closed = DefiningSet.from_leaders(spec, [11, 13])
    assert list(build_code(spec, closed).gen_poly.coeffs) == oracles.generator_poly(spec, closed)


def test_the_coset_cache_keeps_specs_apart():
    # (13,) is a whole coset of both specs, over the same F_25 but with omega
    # of order 52 (top field F_{5^4}) and of order 24 (top field F_25)
    factors = []
    for spec in (make_spec(5, 2, 26), make_spec(5, 3, 8)):
        factor = codes.minimal_polynomial(spec, (13,))
        assert factor.field is build_tower(spec).q2
        assert list(factor.coeffs) == oracles.generator_poly(
            spec, DefiningSet.from_elements(spec, [13]))
        factors.append(factor)
    assert factors[0] != factors[1]


def test_minimal_polynomial_runs_no_row_kernel_on_the_top_field(monkeypatch):
    # a kernel would tabulate a top field such as F_{5^4}, which is under
    # the cap but that nothing else tabulates
    spec = make_spec(5, 2, 26)
    top = build_tower(spec).top
    fields_seen = []
    for name in ("scale", "sub_scaled", "dot", "_ensure_tables"):
        kernel = getattr(fields.Field, name)
        monkeypatch.setattr(fields.Field, name, lambda self, *args, kernel=kernel:
                            fields_seen.append(self) or kernel(self, *args))
    codes.minimal_polynomial.cache_clear()
    codes.minimal_polynomial(spec, (1, 25))
    assert top not in fields_seen


def test_empty_defining_set_rejected():
    spec = make_spec(5, 2, 26)
    with pytest.raises(ValueError):
        build_code(spec, DefiningSet.from_leaders(spec, []))


def test_defining_set_of_another_spec_rejected():
    # the code's bch_delta and ebit counts would read the set's n = 26
    spec, other = make_spec(5, 3, 8), make_spec(5, 2, 26)
    message = f"defining set belongs to {other!r}, not {spec!r}"
    for leaders in ([7], []):  # checked before the empty set is
        with pytest.raises(ValueError) as err:
            build_code(spec, DefiningSet.from_leaders(other, leaders))
        assert str(err.value) == message


def test_defining_set_outside_omega_rejected():
    # a record built past from_elements' Omega check: 2 is even, and Omega
    # of (5, 2, 26) holds the odd classes
    spec = make_spec(5, 2, 26)
    t = DefiningSet(spec, frozenset({1, 2}), frozenset(), 2)
    with pytest.raises(ValueError) as err:
        build_code(spec, t)
    assert str(err.value) == "defining set leaves Omega"


# ---------------------------------------------------------------------------
# parity-check matrix
# ---------------------------------------------------------------------------

def _oracle_null_space(code):
    """Null-space basis of the banded generator matrix through schoolbook
    Gauss-Jordan: 1 at each free column, minus the reduced entries at the
    pivot columns."""
    g = oracles.generator_matrix(code)
    f, n = g.field, code.n
    red, pivots = oracles.gauss_jordan_rref(f, g.entries)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(tuple(v))
    return tuple(basis)


def _assert_check_matrix_is_the_null_space(code, gauss_jordan=True):
    """g h = x^n - eta by the schoolbook product, and H = [-U^T | I] with
    every reduced generator row [e_i | u_i] read back from H a multiple of
    g.  These rows span the code and H is orthogonal to them, so H is the
    one null-space basis that is the identity on the last n - k columns;
    with gauss_jordan, H also equals the oracle's basis."""
    h, k = code.check_matrix, code.dim
    f, t = h.field, code.n - k
    eta = build_tower(code.spec).eta
    assert oracles.poly_product(f, code.gen_poly.coeffs, code.check_poly.coeffs) == (
        [f.neg(eta)] + [0] * (code.n - 1) + [1])
    assert [row[k:] for row in h.entries] == [
        tuple(int(i == j) for j in range(t)) for i in range(t)]
    g = list(code.gen_poly.coeffs)
    for i in range(k):
        row = [0] * i + [1] + [0] * (k - 1 - i) + [f.neg(r[i]) for r in h.entries]
        assert oracles.long_division_remainder(f, row, g) == [], i
    if gauss_jordan:
        assert h.entries == _oracle_null_space(code)


@pytest.mark.parametrize("combo", applicable_combos(odd_prime_powers(13)),
                         ids=lambda combo: f"{combo[0].name}-q{combo[1]}-h{combo[2]}")
def test_check_matrix_is_the_banded_generator_null_space(combo):
    """Every family instance with q <= 13.  Gauss-Jordan costs O(k^2 n)
    schoolbook steps, so it runs where k <= 80, on 61 of the 97 instances;
    the other 36 would take about 25 times as long as those 61."""
    c = construction(*combo)
    for k in c.indices():
        code = build_code(c.spec, c.defining_set(k))
        _assert_check_matrix_is_the_null_space(code, gauss_jordan=code.dim <= 80)


# a negacyclic spec, a constacyclic one with r = 4, and F_{37^2} above the
# 1024 lookup-table cap; each has a one-class coset, so |T| = 1 and k = 1
NULL_SPACE_SPECS = [(5, 2, 26), (7, 4, 10), (37, 2, 12)]


@given(spec_args=st.sampled_from(NULL_SPACE_SPECS), data=st.data())
def test_check_matrix_of_random_defining_sets_is_the_null_space(spec_args, data):
    spec = make_spec(*spec_args)
    leaders = [c[0] for c in all_cosets(spec)]
    pick = data.draw(st.lists(st.sampled_from(leaders), min_size=1, unique=True))
    _assert_check_matrix_is_the_null_space(
        build_code(spec, DefiningSet.from_leaders(spec, pick)))


@pytest.mark.parametrize("spec_args", NULL_SPACE_SPECS)
def test_check_matrix_of_one_class_or_one_free_column(spec_args):
    spec = make_spec(*spec_args)
    leaders = [c[0] for c in all_cosets(spec)]
    single = next(c[0] for c in all_cosets(spec) if len(c) == 1)
    rest = [s for s in leaders if s != single]
    for pick, dim in [([single], spec.n - 1), (rest, 1)]:
        code = build_code(spec, DefiningSet.from_leaders(spec, pick))
        assert code.dim == dim
        _assert_check_matrix_is_the_null_space(code)


def test_build_code_sub_scaled_calls(monkeypatch):
    """One sub_scaled call per step of the x^-1 mod g recurrence that
    consumes a nonzero constant, which is one per nonzero coefficient of h:
    the same steps give the reduced generator rows and h.  The division of
    x^n - eta by g that this replaces took 20 and 80 calls on top of 19 and
    79 for the rows (39 and 159 in all), and eliminating the banded
    generator matrix took 125 and 311.  g's product, which runs on
    sub_scaled too, is taken by the schoolbook oracle, so that only the
    recurrence is counted."""
    monkeypatch.setattr(fields.Poly, "__mul__", lambda a, b: fields.Poly(
        a.field, oracles.poly_product(a.field, a.coeffs, b.coeffs)))
    for args, leaders, calls_expected in [((5, 2, 26), [13, 15, 17, 19], 20),
                                          ((9, 2, 82), [41, 43], 80)]:
        spec = make_spec(*args)
        t = DefiningSet.from_leaders(spec, leaders)
        field = build_tower(spec).q2
        calls = []
        sub_scaled = field.sub_scaled

        def counting_sub_scaled(xs, g, ys, sub_scaled=sub_scaled):
            calls.append(g)
            return sub_scaled(xs, g, ys)

        with monkeypatch.context() as patch:
            patch.setattr(field, "sub_scaled", counting_sub_scaled)
            code = build_code(spec, t)
        assert len(calls) == calls_expected
        assert len(calls) == sum(map(bool, code.check_poly.coeffs))


def test_build_code_rejects_a_generator_that_does_not_divide(monkeypatch):
    """A tower whose eta is another element of order r: every root of g
    satisfies x^n = eta for the true eta, so g shares no root with x^n - eta'
    and cannot divide it."""
    spec = make_spec(5, 3, 8)  # r = 3: eta and eta^2 have order r
    tower = build_tower(spec)
    q2 = tower.q2
    other = next(a for a in range(2, q2.order)
                 if a != tower.eta and q2.element_order(a) == spec.r)
    monkeypatch.setattr(codes, "build_tower",
                        lambda s: dataclasses.replace(build_tower(s), eta=other))
    with pytest.raises(InconsistentRootSystemError) as err:
        build_code(spec, DefiningSet.from_elements(spec, [1, 4, 7]))
    assert str(err.value) == "generator polynomial does not divide x^n - eta"


# ---------------------------------------------------------------------------
# BCH bound
# ---------------------------------------------------------------------------

def test_bch_delta_consecutive_run():
    spec = make_spec(5, 2, 26)
    t = DefiningSet.from_leaders(spec, [13, 15, 17, 19])
    assert sorted(t.elements) == [7, 9, 11, 13, 15, 17, 19]
    assert bch_delta(t) == 8


def test_bch_delta_step_r_run():
    spec = make_spec(5, 3, 8)
    assert bch_delta(DefiningSet.from_elements(spec, [1, 4, 7])) == 4


def test_bch_delta_single_class():
    spec = make_spec(5, 2, 26)
    assert bch_delta(DefiningSet.from_leaders(spec, [13])) == 2


def test_bch_delta_non_consecutive():
    spec = make_spec(5, 3, 8)
    t = DefiningSet.from_elements(spec, [1, 7, 10])
    # indices {0, 2, 3}: best run is {7, 10}
    assert bch_delta(t) == 3


def test_bch_delta_wraparound():
    spec = make_spec(7, 8, 50)
    # s = 25 at index 3; nine steps either side wraps through index 0
    leaders = [25 + 8 * i for i in range(10)]
    t = DefiningSet.from_leaders(spec, leaders)
    assert len(t.elements) == 19
    assert bch_delta(t) == 20


def test_bch_delta_matches_window_oracle():
    rng = random.Random(31)
    for args in [(5, 2, 26), (5, 3, 8), (13, 2, 17), (9, 5, 16)]:
        spec = make_spec(*args)
        leaders = [c[0] for c in all_cosets(spec)]
        for _ in range(25):
            pick = rng.sample(leaders, rng.randrange(1, len(leaders) + 1))
            t = DefiningSet.from_leaders(spec, pick)
            assert bch_delta(t) == oracles.longest_consecutive_window(spec, t.elements) + 1


# ---------------------------------------------------------------------------
# exact distance
# ---------------------------------------------------------------------------

def test_exact_distance_mds_8_5():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    assert exact_distance_small(code) == 4
    # cross-check with the exhaustive minor-expansion oracle
    h = code.check_matrix
    assert oracles.dependent_subset_min_size(h.field, [list(r) for r in h.entries], 4) == 4


def test_exact_distance_respects_cap():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    assert exact_distance_small(code, cap=3) is None
    assert exact_distance_small(code, cap=4) == 4


def test_exact_distance_full_support_dim_one():
    spec = make_spec(5, 3, 8)
    t = DefiningSet.from_elements(spec, [1, 4, 7, 10, 13, 16, 19])
    code = build_code(spec, t)
    assert code.dim == 1
    assert exact_distance_small(code) == 8


def test_exact_distance_at_least_bch():
    rng = random.Random(8)
    spec = make_spec(5, 3, 8)
    leaders = omega_set(spec)
    for _ in range(15):
        pick = rng.sample(leaders, rng.randrange(1, 7))
        code = build_code(spec, DefiningSet.from_elements(spec, pick))
        d = exact_distance_small(code)
        assert d >= code.bch_delta


def test_exact_distance_rooted_search_fits_small_budget(monkeypatch):
    # the exact number of subsets the rooted search evaluates: a budget of
    # `visits` settles the search and one less does not; taking every
    # column as the first one takes 92 evaluations on the [8, 5] code.  The
    # [8, 4] code closes a dependent set at a zero column mid-level, after
    # which the rest of that level is pruned.  `eliminations` counts the
    # sub_scaled calls of one search, each the reduction of one row of a
    # child level against the pivot row: a node whose children could only
    # tie `best` builds no reduced level for them, nor does a node whose
    # children could only close a subset on their own first level (their
    # visits come from the repeated column classes), nor one at depth
    # rows(H) - 1, whose children would hold no row.  The cyclic [8, 4]
    # code has H = [I | I]: on a level settled by lookup, column 4 has
    # reduced to zero before the multiple of column 2 at column 6, and it
    # closes the child of column 2 there
    code_8_5 = _code(5, 3, 8, elements=[1, 4, 7])
    code_8_4 = _code(5, 3, 8, elements=[7, 16, 19, 22])
    code_26 = _code(5, 2, 26, leaders=[13, 15, 17, 19])
    code_repeat = _code(5, 1, 8, leaders=[0, 2, 4, 6])
    field = code_8_5.check_matrix.field
    assert all(c.check_matrix.field is field for c in (code_8_4, code_26, code_repeat))
    calls = []
    sub_scaled = field.sub_scaled

    def counting_sub_scaled(xs, g, ys):
        calls.append(g)
        return sub_scaled(xs, g, ys)

    monkeypatch.setattr(field, "sub_scaled", counting_sub_scaled)
    for code, cap, visits, eliminations, expected in [
            (code_8_5, None, 29, 3, 4), (code_8_5, 3, 29, 2, None),
            (code_8_4, None, 35, 4, 4),
            (code_26, 4, 2626, 101, None), (code_26, None, 245506, 19482, 8),
            (code_repeat, 4, 10, 0, 2)]:
        calls.clear()
        assert exact_distance_small(code, cap=cap, budget=visits) == expected
        assert len(calls) == eliminations
        with pytest.raises(DistanceBudgetExceeded):
            exact_distance_small(code, cap=cap, budget=visits - 1)


def test_exact_distance_rejects_bad_cap_and_budget():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap"):
            exact_distance_small(code, cap=cap)
    with pytest.raises(ValueError, match="budget"):
        exact_distance_small(code, budget=-1)
    assert exact_distance_small(code, cap=1) is None


def test_exact_distance_budget_error():
    code = _code(5, 2, 26, leaders=[13, 15, 17, 19])
    with pytest.raises(DistanceBudgetExceeded):
        exact_distance_small(code, budget=500)


def test_exact_distance_rejects_degenerate():
    spec = make_spec(5, 3, 8)
    code = build_code(spec, DefiningSet.from_elements(spec, omega_set(spec)))
    with pytest.raises(ValueError):
        exact_distance_small(code)


def _row_transformed(code, rng):
    """The code with check matrix A*H for a random invertible A."""
    h = code.check_matrix
    while True:
        a = Matrix(h.field, [[rng.randrange(h.field.order) for _ in range(h.rows)]
                             for _ in range(h.rows)])
        if a.rank() == h.rows:
            return dataclasses.replace(code, check_matrix=a @ h)


def test_distance_invariant_under_check_row_transforms():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    rng = random.Random(42)
    baseline = exact_distance_small(code)
    for _ in range(4):
        assert exact_distance_small(_row_transformed(code, rng)) == baseline


# q in {3, 4, 5, 7, 9} with every r | q+1, so eta != 1 is covered; n <= 10
# keeps the exhaustive oracle inside the default deadline, and the tower
# bound keeps each F_{q^2m} to milliseconds
DISTANCE_SPECS = [(q, r, n) for q in (3, 4, 5, 7, 9) for r in range(1, q + 2)
                  if (q + 1) % r == 0 for n in range(2, 11)
                  if math.gcd(n, q) == 1 and q ** (2 * make_spec(q, r, n).m) <= 10**6
                  and len(all_cosets(make_spec(q, r, n))) > 1]


@given(spec_args=st.sampled_from(DISTANCE_SPECS), data=st.data())
def test_exact_distance_matches_exhaustive_subset_oracle(spec_args, data):
    """The search rooted at column 0 finds the smallest dependent column set
    that ranking every subset finds, on MDS and non-MDS codes, under any
    cap, and on a check matrix A*H with random invertible A."""
    spec = make_spec(*spec_args)
    leaders = [c[0] for c in all_cosets(spec)]
    pick = data.draw(st.lists(st.sampled_from(leaders), min_size=1,
                              max_size=len(leaders) - 1, unique=True))
    cap = data.draw(st.none() | st.integers(min_value=1, max_value=spec.n))
    transform = data.draw(st.none() | st.randoms(use_true_random=False))
    code = build_code(spec, DefiningSet.from_leaders(spec, pick))
    h = code.check_matrix
    limit = h.rows + 1 if cap is None else min(cap, h.rows + 1)
    expected = oracles.dependent_subset_min_size(h.field, [list(r) for r in h.entries],
                                                 limit, rank=oracles.rref_rank)
    if transform is not None:
        code = _row_transformed(code, transform)
    assert exact_distance_small(code, cap=cap) == expected
    # the same subsets as the per-column search: its visit count is the
    # exact budget that settles the search
    h = code.check_matrix
    distance, visits = oracles.rooted_dependent_search(h.field, [list(r) for r in h.entries], cap)
    assert distance == expected
    assert exact_distance_small(code, cap=cap, budget=visits) == expected
    with pytest.raises(DistanceBudgetExceeded):
        exact_distance_small(code, cap=cap, budget=visits - 1)


# ---------------------------------------------------------------------------
# MDS verdicts
# ---------------------------------------------------------------------------

def test_mds_certified_by_bch_alone():
    code = _code(5, 3, 8, elements=[1, 4, 7])
    assert code.bch_delta == code.n - code.dim + 1
    assert classical_mds_verdict(code) == "mds-bch"
    assert classical_mds_verdict(code).startswith("mds")


def test_mds_26_19_via_bch():
    code = _code(5, 2, 26, leaders=[13, 15, 17, 19])
    assert classical_mds_verdict(code) == "mds-bch"


def test_mds_degenerate_verdict():
    spec = make_spec(5, 3, 8)
    code = build_code(spec, DefiningSet.from_elements(spec, omega_set(spec)))
    assert classical_mds_verdict(code) == "degenerate"
    assert not classical_mds_verdict(code).startswith("mds")


def test_non_mds_detected_by_exact_oracle():
    code = _code(5, 3, 8, elements=[1, 7, 10])
    # bch 3 < n-k+1 = 4, exact distance settles it
    verdict = classical_mds_verdict(code)
    d = exact_distance_small(code)
    assert verdict == ("mds-exact" if d == 4 else "not-mds")
