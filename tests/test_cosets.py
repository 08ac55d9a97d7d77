import random

import pytest
from hypothesis import given, strategies as st

from eaqmds import cosets
from eaqmds.cosets import (DefiningSet, all_cosets, coset, cosets_meeting, is_skew_symmetric,
                           make_spec, minus_q, omega_set, skew_partner, t_minus_q)
from oracles import orbits_by_iteration

# Specs with rn <= 1000 used by the exhaustive property suites: the small
# family settings plus assorted extra (q, r, n) combinations.
SMALL_SPECS = [
    (5, 2, 26), (9, 2, 82), (13, 2, 170),     # length q^2+1, r = 2
    (7, 8, 50),                               # length q^2+1, r = q+1
    (13, 2, 17),                              # length (q^2+1)/10
    (5, 3, 8), (9, 5, 16), (11, 3, 40), (13, 7, 24),  # length (q^2-1)/h
    (5, 6, 4), (5, 2, 13), (7, 4, 25), (7, 2, 25), (9, 10, 8), (13, 14, 12),
    (3, 4, 10), (25, 2, 12),
]


def specs():
    return [make_spec(q, r, n) for q, r, n in SMALL_SPECS]


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(5, 4, 26)   # 4 does not divide q+1 = 6
    with pytest.raises(ValueError):
        make_spec(5, 2, 15)   # gcd(15, 5) != 1
    with pytest.raises(ValueError):
        make_spec(12, 2, 5)   # q not a prime power


def test_spec_m_is_minimal():
    for spec in specs():
        qq = spec.q**2
        assert pow(qq, spec.m, spec.rn) == 1
        assert all(pow(qq, j, spec.rn) != 1 for j in range(1, spec.m))
        assert (spec.q ** (2 * spec.m) - 1) % spec.rn == 0


# ---------------------------------------------------------------------------
# the class set Omega
# ---------------------------------------------------------------------------

def test_omega_set_negacyclic_odd_residues():
    om = omega_set(make_spec(5, 2, 26))
    assert om == list(range(1, 52, 2))
    assert len(om) == 26


def test_omega_set_constacyclic_step():
    om = omega_set(make_spec(7, 8, 50))
    assert om[0] == 1 and om[-1] == 393 and len(om) == 50
    assert all(x % 8 == 1 for x in om)


def test_omega_set_h3():
    assert omega_set(make_spec(5, 3, 8)) == [1, 4, 7, 10, 13, 16, 19, 22]


def test_omega_distinct():
    for spec in specs():
        om = omega_set(spec)
        assert len(set(om)) == spec.n


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

def test_coset_singleton_at_half_length():
    assert coset(make_spec(5, 2, 26), 13) == (13,)


def test_coset_pair_structure():
    c = coset(make_spec(5, 2, 26), 15)
    assert c == (11, 15) and c[0] == 11


def test_coset_all_singletons_when_q2_is_one():
    spec = make_spec(5, 3, 8)
    assert spec.q**2 % spec.rn == 1
    assert all(len(coset(spec, s)) == 1 for s in omega_set(spec))


def test_coset_rejects_outside_omega():
    with pytest.raises(ValueError):
        coset(make_spec(5, 2, 26), 12)


def test_coset_reduces_its_argument_mod_rn():
    spec = make_spec(5, 2, 26)
    for s in (15, 15 + spec.rn, 15 - spec.rn, 15 + 3 * spec.rn):
        assert coset(spec, s) == coset(spec, 15)
    # the message names the argument as given, not its residue
    with pytest.raises(ValueError, match=r"^-40 is not in Omega"):
        coset(spec, 12 - spec.rn)


def test_coset_is_the_orbit_by_repeated_multiplication():
    for spec in specs():
        for s in omega_set(spec):
            (orbit,) = orbits_by_iteration(spec, [s])
            assert coset(spec, s) == orbit


def test_with_coset_rejects_outside_omega_as_coset_does():
    spec = make_spec(5, 2, 26)
    t = DefiningSet.from_leaders(spec, [13])
    for s in (12, 12 - spec.rn):
        with pytest.raises(ValueError) as from_coset:
            coset(spec, s)
        with pytest.raises(ValueError) as from_step:
            t.with_coset(s)
        assert str(from_step.value) == str(from_coset.value) == f"{s} is not in Omega for {spec!r}"


def test_cosets_partition_omega():
    for spec in specs():
        cosets = all_cosets(spec)
        union: list[int] = []
        for c in cosets:
            assert c[0] == min(c)
            assert spec.m % len(c) == 0
            qq = spec.q**2 % spec.rn
            assert {e * qq % spec.rn for e in c} == set(c)
            union.extend(c)
        assert sorted(union) == sorted(omega_set(spec))


# ---------------------------------------------------------------------------
# skew classification
# ---------------------------------------------------------------------------

def test_skew_symmetric_examples():
    for spec, s, expected in ((make_spec(13, 2, 17), 17, True),
                              (make_spec(5, 2, 26), 13, False), (make_spec(5, 3, 8), 4, True)):
        assert is_skew_symmetric(spec, coset(spec, s)) is expected


def test_skew_pair_examples():
    s5 = make_spec(5, 2, 26)
    assert skew_partner(s5, coset(s5, 19)) == coset(s5, 9)
    s7 = make_spec(7, 8, 50)
    assert coset(s7, 49) == (1, 49)
    assert skew_partner(s7, coset(s7, 57)) == coset(s7, 49)
    assert skew_partner(s5, coset(s5, 13)) != coset(s5, 15)


def test_skew_trichotomy_partner_is_involution():
    # every coset is skew-symmetric or belongs to exactly one pair, and the
    # partner map is an involution on the partition
    for spec in specs():
        for c in all_cosets(spec):
            partner = skew_partner(spec, c)
            assert skew_partner(spec, partner) == c
            if is_skew_symmetric(spec, c):
                assert partner == c
            else:
                # two distinct cosets, each holding the other's -q image
                assert partner != c
                assert minus_q(spec, c[0]) in partner
                assert minus_q(spec, partner[0]) in c


def test_skew_pair_condition_is_membership_for_any_element():
    # the -q image of any element of c1 lands in c2 iff the leaders' does
    for spec in specs():
        cosets = all_cosets(spec)
        for c in cosets[:6]:
            for other in cosets[:6]:
                if other == c:
                    continue
                expected = any(minus_q(spec, s) in other for s in c)
                assert (minus_q(spec, c[0]) in other) == expected


# ---------------------------------------------------------------------------
# defining sets and decomposition
# ---------------------------------------------------------------------------

def test_t_minus_q_elementwise():
    spec = make_spec(5, 2, 26)
    t = DefiningSet.from_leaders(spec, [13, 15, 17, 19])
    assert sorted(t.elements) == [7, 9, 11, 13, 15, 17, 19]
    assert t_minus_q(t) == frozenset({39, 29, 49, 19, 7, 9, 17})
    assert len(t_minus_q(t)) == len(t.elements)


def test_t_minus_q_empty_and_double_application():
    spec = make_spec(5, 2, 26)
    t = DefiningSet.from_leaders(spec, [])
    assert t_minus_q(t) == frozenset()
    full = DefiningSet.from_leaders(spec, [13, 15, 17, 19])
    twice = {minus_q(spec, minus_q(spec, s)) for s in full.elements}
    # applying s -> -qs twice is s -> s q^2, which permutes each coset
    assert twice == set(full.elements)


def test_decompose_examples():
    spec = make_spec(5, 2, 26)
    t4 = DefiningSet.from_leaders(spec, [13, 15, 17, 19])
    assert t4.t_ss == frozenset({7, 9, 17, 19})
    t3 = DefiningSet.from_leaders(spec, [13, 15, 17])
    assert t3.t_ss == frozenset()
    spec13 = make_spec(13, 2, 17)
    t1 = DefiningSet.from_leaders(spec13, [17])
    assert t1.t_ss == frozenset({17})
    assert (t4.t_ss, t4.t_sas) == (frozenset({7, 9, 17, 19}), frozenset({11, 13, 15}))


def test_dual_containing_examples():
    # the code contains its Hermitian dual iff T_ss is empty
    spec = make_spec(5, 2, 26)
    assert not DefiningSet.from_leaders(spec, [13, 15, 17]).t_ss
    assert DefiningSet.from_leaders(spec, [13, 15, 17, 19]).t_ss
    assert not DefiningSet.from_leaders(spec, []).t_ss


def _sampled_defining_sets(spec, rng):
    cosets = all_cosets(spec)
    leaders = [c[0] for c in cosets]
    sets = [DefiningSet.from_leaders(spec, [l]) for l in leaders]
    if len(leaders) >= 2:
        for _ in range(min(30, len(leaders) * 2)):
            size = rng.randrange(2, min(len(leaders), 8) + 1)
            sets.append(DefiningSet.from_leaders(spec, rng.sample(leaders, size)))
    return sets


def test_decompose_matches_cosetwise_characterization():
    # T_ss is exactly the union of cosets in T that are skew-symmetric or
    # whose skew partner is also inside T
    rng = random.Random(2026)
    for spec in specs():
        for t in _sampled_defining_sets(spec, rng):
            expected: set[int] = set()
            for leader in t.leaders:
                c = coset(spec, leader)
                if is_skew_symmetric(spec, c) or set(skew_partner(spec, c)) <= t.elements:
                    expected.update(c)
            assert t.t_ss == frozenset(expected)
            assert t.t_sas == t.elements - t.t_ss


def test_decomposition_parts_are_unions_of_cosets():
    rng = random.Random(77)
    for spec in specs():
        for t in _sampled_defining_sets(spec, rng):
            for part in (t.t_ss, t.t_sas):
                covered: set[int] = set()
                for s in part:
                    covered.update(coset(spec, s))
                assert covered == set(part)


def test_sas_part_defines_dual_containing_set():
    # with T_R := T_sas as its own defining set, T_R & T_R^{-q} is empty,
    # and both parts sit inside T
    rng = random.Random(404)
    for spec in specs():
        for t in _sampled_defining_sets(spec, rng):
            t_r = DefiningSet.from_elements(spec, t.t_sas)
            assert not t_r.t_ss
            assert t_r.elements <= t.elements
            t_e = DefiningSet.from_elements(spec, t.t_ss)
            assert t_e.elements <= t.elements


@st.composite
def spec_and_leaders(draw):
    spec = make_spec(*draw(st.sampled_from(SMALL_SPECS)))
    leaders = [c[0] for c in all_cosets(spec)]
    picked = draw(st.sets(st.sampled_from(leaders), max_size=8))
    return spec, sorted(picked)


@given(spec_and_leaders())
def test_decomposition_invariants_hold_for_arbitrary_unions(data):
    spec, leaders = data
    t = DefiningSet.from_leaders(spec, leaders)
    image = t_minus_q(t)
    assert len(image) == len(t.elements)
    assert t.t_ss == t.elements & image
    assert t.t_ss | t.t_sas == t.elements and not (t.t_ss & t.t_sas)
    # T_ss is stable under s -> -qs; applying the map twice permutes T
    assert {minus_q(spec, s) for s in t.t_ss} == set(t.t_ss)
    assert {minus_q(spec, minus_q(spec, s)) for s in t.elements} == set(t.elements)


@given(spec_and_leaders())
def test_dual_containment_matches_empty_intersection(data):
    spec, leaders = data
    t = DefiningSet.from_leaders(spec, leaders)
    assert (not t.t_ss) == (not (t.elements & t_minus_q(t)))


def test_from_leaders_walks_each_coset_once(monkeypatch):
    spec = make_spec(5, 2, 26)
    calls = []

    def counted(spec, s):
        calls.append(s)
        return coset(spec, s)

    monkeypatch.setattr(cosets, "coset", counted)
    t = DefiningSet.from_leaders(spec, [7, 9, 11, 13])
    assert calls == [7, 9, 11, 13]
    with pytest.raises(ValueError, match=r"^12 is not in Omega"):
        DefiningSet.from_leaders(spec, [7, 12])
    monkeypatch.undo()
    union = [e for s in (7, 9, 11, 13) for e in coset(spec, s)]
    assert t == DefiningSet.from_elements(spec, union)


def test_from_elements_checks_closure_and_membership():
    spec = make_spec(5, 2, 26)
    with pytest.raises(ValueError):
        DefiningSet.from_elements(spec, [15])        # misses 11 from its coset
    with pytest.raises(ValueError):
        DefiningSet.from_elements(spec, [12])        # even: not in Omega
    t = DefiningSet.from_elements(spec, [15], check_closure=False)
    assert t.elements == frozenset({15})


def test_unclosed_canary_set_derives_leaders_and_t_sas():
    # {13, 15} splits C_11 = {11, 15}; the verify canary and the code CLI's
    # "not closed" error both start from this set
    spec = make_spec(5, 2, 26)
    t = DefiningSet.from_elements(spec, [13, 15], check_closure=False)
    assert t.leaders == (11, 13)
    assert t.t_ss == frozenset()
    assert t.t_sas == frozenset({13, 15})
    with pytest.raises(ValueError, match=r"^element set is not a union of whole cosets$"):
        DefiningSet.from_elements(spec, [13, 15])


# the closed sets are unions of whole cosets; the others add or drop classes,
# so that one orbit of (3, 4, 2003), 1,001 classes long, is often split
@st.composite
def spec_and_classes(draw):
    spec = make_spec(*draw(st.sampled_from(SMALL_SPECS + [(3, 4, 2003)])))
    leaders = draw(st.sets(st.sampled_from([c[0] for c in all_cosets(spec)]), max_size=6))
    toggled = draw(st.sets(st.sampled_from(omega_set(spec)), max_size=4))
    closed = {e for s in leaders for e in coset(spec, s)}
    return spec, closed ^ toggled


@given(spec_and_classes())
def test_the_orbit_walk_matches_repeated_multiplication(data):
    spec, classes = data
    orbits = orbits_by_iteration(spec, classes)
    assert cosets_meeting(spec, classes) == orbits
    if {e for orbit in orbits for e in orbit} == classes:
        t = DefiningSet.from_elements(spec, classes)
    else:
        with pytest.raises(ValueError, match=r"^element set is not a union of whole cosets$"):
            DefiningSet.from_elements(spec, classes)
        t = DefiningSet.from_elements(spec, classes, check_closure=False)
    assert t.leaders == tuple(sorted(orbit[0] for orbit in orbits))
