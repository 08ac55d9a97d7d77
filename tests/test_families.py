import dataclasses

import pytest

from eaqmds import families
from eaqmds.codes import bch_delta
from eaqmds.cosets import DefiningSet, coset, is_skew_symmetric, skew_partner
from eaqmds.families import (FamilyError, FamilyId, VerificationError, construction,
                             family_defining_set, family_instances, family_spec,
                             instance_params)
from eaqmds.verify import _beyond_range_notes

NEGA = FamilyId.Q2P1_NEGA
CONSTA = FamilyId.Q2P1_CONSTA
T3 = FamilyId.TENTH_3
T7 = FamilyId.TENTH_7
QM1 = FamilyId.QM1_H

SMALL_COMBOS = [(NEGA, 5, None), (NEGA, 9, None), (CONSTA, 7, None),
                (T3, 13, None), (QM1, 5, 3), (QM1, 9, 5), (QM1, 11, 3),
                (QM1, 13, 7)]


# ---------------------------------------------------------------------------
# applicability and ranges
# ---------------------------------------------------------------------------

def test_applicability_errors():
    with pytest.raises(FamilyError):
        family_defining_set(NEGA, 7, k=0)           # 7 = 3 mod 4
    with pytest.raises(FamilyError):
        family_defining_set(CONSTA, 13, k=0)        # 13 = 1 mod 4
    with pytest.raises(FamilyError):
        family_defining_set(T3, 3, k=0)             # m = 0 excluded
    with pytest.raises(FamilyError):
        family_defining_set(T7, 7, k=0)             # m = 0 excluded
    with pytest.raises(FamilyError):
        family_defining_set(T3, 17, k=0)            # 17 = 10m+7, wrong branch
    with pytest.raises(FamilyError):
        family_defining_set(QM1, 13, h=3, k=0)      # 3 does not divide 14
    with pytest.raises(FamilyError):
        family_defining_set(QM1, 13, h=4, k=5)      # h outside {3,5,7}
    with pytest.raises(FamilyError):
        family_defining_set(NEGA, 15, k=0)          # 15 not a prime power
    with pytest.raises(FamilyError):
        family_defining_set(NEGA, 5, h=3, k=0)      # h forbidden here


def test_k_out_of_range_rejected():
    c = construction(NEGA, 5)
    assert (c.lo, c.hi) == (0, 6)
    with pytest.raises(FamilyError):
        family_defining_set(NEGA, 5, k=c.hi + 1)
    c = construction(QM1, 13, 7)
    assert (c.lo, c.hi) == (4, 11)
    with pytest.raises(FamilyError):
        family_defining_set(QM1, 13, h=7, k=3)


def test_construction_records_match_the_stated_ranges():
    # every record against the per-family statements: T at k is the cosets
    # of start + r*i for lo <= i <= k, and |T_ss| jumps at the threshold
    for family, q, h in families.applicable_combos(families.odd_prime_powers(60)):
        c = construction(family, q, h)
        n, r = c.spec.n, c.spec.r
        if family in (NEGA, CONSTA):
            stated = (n // 2, 0, (3 * q - 3) // 2, (q + 1) // 2, 4)
            assert (n, r) == (q * q + 1, 2 if family is NEGA else q + 1)
        elif family is T3:
            stated = (n, 0, 3 * ((q - 3) // 10), 0, 1)
            assert (n, r) == ((q * q + 1) // 10, 2)
        elif family is T7:
            stated = (n, 0, 3 * ((q - 7) // 10) + 1, 0, 1)
            assert (n, r) == ((q * q + 1) // 10, 2)
        else:
            stated = (1, (h - 3) * (q + 1) // (2 * h), q - 2,
                      (h - 1) * (q + 1) // (2 * h) - 1, 1)
            assert (n, r) == ((q * q - 1) // h, h)
        assert (c.start, c.lo, c.hi, c.threshold, c.ebits) == stated, (family, q, h)


def test_family_specs():
    assert family_spec(NEGA, 5).n == 26 and family_spec(NEGA, 5).r == 2
    assert family_spec(CONSTA, 7).n == 50 and family_spec(CONSTA, 7).r == 8
    assert family_spec(T3, 13).n == 17
    assert family_spec(T7, 17).n == 29
    assert family_spec(QM1, 11, 3).n == 40 and family_spec(QM1, 11, 3).r == 3


# ---------------------------------------------------------------------------
# defining sets and predictions
# ---------------------------------------------------------------------------

def test_nega_defining_set_q5_k3():
    inst = family_defining_set(NEGA, 5, k=3)
    assert sorted(inst.t.elements) == [7, 9, 11, 13, 15, 17, 19]
    assert inst.predicted_tss == 4 == construction(NEGA, 5).ebits


def test_tenth3_defining_set_q13_k3():
    inst = family_defining_set(T3, 13, k=3)
    assert sorted(inst.t.elements) == [11, 13, 15, 17, 19, 21, 23]
    assert len(inst.t.elements) == 7
    assert inst.predicted_tss == 1


def test_qm1_defining_set_q5_h3_k2():
    inst = family_defining_set(QM1, 5, h=3, k=2)
    assert sorted(inst.t.elements) == [1, 4, 7]
    assert inst.predicted_tss == 1


def test_predicted_zero_below_threshold():
    assert family_defining_set(NEGA, 5, k=2).predicted_tss == 0
    assert construction(NEGA, 5).threshold == 3
    assert family_defining_set(QM1, 13, h=7, k=4).predicted_tss == 0
    assert construction(QM1, 13, 7).threshold == 5


def test_predictions_match_computed_decomposition_everywhere():
    for family, q, h in SMALL_COMBOS:
        for inst in family_instances(family, q, h):
            assert len(inst.t.t_ss) == inst.predicted_tss, inst.label()


# ---------------------------------------------------------------------------
# the specific skew structure each family predicts
# ---------------------------------------------------------------------------

def test_nega_skew_pair_location():
    for q in (5, 9, 13):
        spec = family_spec(NEGA, q)
        s = spec.n // 2
        c_hi = coset(spec, s + q + 1)
        c_lo = coset(spec, s - q + 1)
        assert skew_partner(c_hi).elements == c_lo.elements != c_hi.elements


def test_consta_skew_pair_location():
    for q in (7, 11):
        spec = family_spec(CONSTA, q)
        s = spec.n // 2
        c_hi = coset(spec, s + (q + 1) // 2 * (q + 1))
        c_lo = coset(spec, s + (q - 1) // 2 * (q + 1))
        assert skew_partner(c_hi).elements == c_lo.elements != c_hi.elements
        assert 1 in c_lo.elements  # the partner coset is the one containing 1


def test_tenth_skew_symmetric_coset_is_half_length():
    for family, q in [(T3, 13), (T3, 23), (T7, 17)]:
        spec = family_spec(family, q)
        assert is_skew_symmetric(coset(spec, spec.n))


def test_qm1_skew_symmetric_coset_location():
    for q, h in [(5, 3), (9, 5), (11, 3), (13, 7)]:
        spec = family_spec(QM1, q, h)
        special = 1 + ((h - 1) * (q + 1) // (2 * h) - 1) * h
        assert special == (h - 1) * (q - 1) // 2
        assert is_skew_symmetric(coset(spec, special))


def test_no_other_skew_structure_inside_full_range_set():
    # apart from the predicted pair / skew-symmetric coset, nothing in the
    # largest defining set is skew-symmetric or matched inside T
    for family, q, h in SMALL_COMBOS:
        inst = family_defining_set(family, q, h, construction(family, q, h).hi)
        expected_ss = inst.t.t_ss
        for leader in inst.t.leaders:
            c = coset(inst.spec, leader)
            inside = set(c.elements) <= expected_ss
            if is_skew_symmetric(c):
                assert inside, inst.label()
            elif set(skew_partner(c).elements) <= inst.t.elements:
                assert inside, inst.label()
            else:
                assert not inside, inst.label()


# ---------------------------------------------------------------------------
# single-run structure forces Singleton equality
# ---------------------------------------------------------------------------

def test_family_sets_are_single_runs():
    for family, q, h in SMALL_COMBOS:
        for inst in family_instances(family, q, h):
            assert bch_delta(inst.t) == len(inst.t.elements) + 1, inst.label()


def test_instance_params_singleton_equality():
    for family, q, h in SMALL_COMBOS:
        for inst in family_instances(family, q, h):
            p = instance_params(inst)
            assert p.n + p.c - p.k == 2 * (p.d - 1) and p.mds


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _family_params(family, q, h=None, include_qmds_datapoints=False, **checks):
    return [instance_params(inst, **checks)
            for inst in family_instances(family, q, h, include_qmds_datapoints)]


def test_enumerate_nega_q5():
    rows = _family_params(NEGA, 5)
    assert [(r.n, r.k, r.d, r.c) for r in rows] == \
        [(26, 32 - 2 * d, d, 4) for d in (8, 10, 12, 14)]


def test_enumerate_tenth3_q13():
    rows = _family_params(T3, 13)
    assert [(r.n, r.k, r.d, r.c) for r in rows] == \
        [(17, 20 - 2 * d, d, 1) for d in (2, 4, 6, 8)]


def test_enumerate_qm1_q11_h3():
    rows = _family_params(QM1, 11, 3)
    assert [(r.n, r.k, r.d, r.c) for r in rows] == \
        [(40, 43 - 2 * d, d, 1) for d in range(5, 12)]


def test_enumerate_with_qmds_datapoints():
    rows = _family_params(NEGA, 5, include_qmds_datapoints=True)
    assert [(r.d, r.c) for r in rows] == \
        [(2, 0), (4, 0), (6, 0), (8, 4), (10, 4), (12, 4), (14, 4)]
    for r in rows:
        assert r.n + r.c - r.k == 2 * (r.d - 1)


def test_enumerate_with_rank_oracle_sets_agreement():
    rows = _family_params(T3, 13, rank_oracle=True)
    assert all(r.verified == "rank-oracle" for r in rows)
    rows = _family_params(T3, 13)
    assert all(r.verified == "bch-only" for r in rows)


def test_enumerate_consta_matches_published_shape():
    rows = _family_params(CONSTA, 7)
    assert [(r.d, r.k) for r in rows] == [(d, 56 - 2 * d) for d in range(10, 21, 2)]


def test_verification_error_names_instance():
    inst = family_defining_set(NEGA, 5, k=3)
    bad = dataclasses.replace(inst, predicted_tss=3)
    with pytest.raises(VerificationError) as err:
        instance_params(bad)
    assert "Q2P1_NEGA q=5" in str(err.value)
    assert inst.predicted_tss == 4


# ---------------------------------------------------------------------------
# published-range discrepancies, settled by computation
# ---------------------------------------------------------------------------

def test_tss_is_eight_one_step_past_the_cap():
    # the |T_ss| = 4 window genuinely ends at k = (3q-3)/2: one step later a
    # second pair enters
    for family, q in [(NEGA, 5), (NEGA, 13), (CONSTA, 7)]:
        spec = family_spec(family, q)
        step = 2 if family is NEGA else q + 1
        k_beyond = (3 * q - 1) // 2
        leaders = [spec.n // 2 + step * i for i in range(k_beyond + 1)]
        t = DefiningSet.from_leaders(spec, leaders)
        assert len(t.t_ss) == 8
        assert construction(family, q).defining_set(k_beyond).elements == t.elements


def test_tenth_one_ebit_range_is_maximal():
    # q = 13: the one-ebit window covers k <= 3m (d <= 6m+2) and breaks at 3m+1
    spec = family_spec(T3, 13)
    hi = construction(T3, 13).hi
    assert hi == 3
    t_beyond = DefiningSet.from_leaders(spec, [spec.n + 2 * i for i in range(hi + 2)])
    assert len(t_beyond.t_ss) == 5
    spec7 = family_spec(T7, 17)
    hi7 = construction(T7, 17).hi
    assert hi7 == 4
    t7_beyond = DefiningSet.from_leaders(spec7, [spec7.n + 2 * i for i in range(hi7 + 2)])
    assert len(t7_beyond.t_ss) != 1
    assert construction(T3, 13).defining_set(hi + 1).elements == t_beyond.elements
    assert construction(T7, 17).defining_set(hi7 + 1).elements == t7_beyond.elements


def test_verify_beyond_range_notes_are_pinned():
    # the verify pins in test_cli stop at q = 7, below every TENTH and QM1_H
    # note; these lines were taken before the notes read the Construction record
    combos = [(NEGA, 13, None), (CONSTA, 11, None), (T3, 13, None), (T7, 17, None),
              (QM1, 19, 5)]
    assert _beyond_range_notes(combos) == [
        "Q2P1_NEGA q=13: |T_ss|=4 holds for (q+1)/2 <= k <= (3q-3)/2; "
        "at k=(3q-1)/2 the computed |T_ss| is 8",
        "Q2P1_CONSTA q=11: |T_ss|=4 holds for (q+1)/2 <= k <= (3q-3)/2; "
        "at k=(3q-1)/2 the computed |T_ss| is 8",
        "TENTH_3 q=13: one-ebit range ends at d=8 (k=3); at k=4 the computed |T_ss| is 5",
        "TENTH_7 q=17: one-ebit range ends at d=10 (k=4); at k=5 the computed |T_ss| is 5",
        "QM1_H q=19 h=5: first k with |T_ss|=1 is 7 (threshold 7), so the one-ebit "
        "range starts at d=(q+1)/h+1=5",
    ]


def test_qm1_one_ebit_onset_matches_lower_bound():
    # the first k with |T_ss| = 1 sits exactly at the threshold, making the
    # smallest one-ebit distance (q+1)/h + 1 rather than (q+1)(h-1)/(2h) + 1
    for q, h in [(11, 3), (9, 5), (13, 7), (19, 5)]:
        c = construction(QM1, q, h)
        lo, threshold = c.lo, c.threshold
        onset = next(k for k in range(lo, q - 1)
                     if len(family_defining_set(QM1, q, h, k).t.t_ss) == 1)
        assert onset == threshold
        assert onset - lo + 2 == (q + 1) // h + 1
        if h > 3:
            assert (q + 1) // h + 1 < (q + 1) * (h - 1) // (2 * h) + 1


# ---------------------------------------------------------------------------
# fan-out pool size
# ---------------------------------------------------------------------------

class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,tasks,cpus,started", [
    (500, 6, 8, [6]),    # never more processes than tasks
    (500, 6, 2, [2]),    # nor than CPUs
    (2, 6, 8, [2]),
    (4, 1, 8, []),       # one task runs in-process
    (4, 6, 1, []),       # so does one CPU
    (1, 6, 8, []),
    (3, 0, 8, []),
])
def test_fan_out_pool_size(monkeypatch, workers, tasks, cpus, started):
    monkeypatch.setattr(families, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    monkeypatch.setattr(families.os, "cpu_count", lambda: cpus)
    items = list(range(tasks))
    assert families.fan_out(abs, [-i for i in items], workers) == items
    assert _SerialPool.started == started
