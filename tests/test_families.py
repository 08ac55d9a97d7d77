import concurrent.futures
import dataclasses
import os
import subprocess
import sys

import pytest

from eaqmds import eaq, families
from eaqmds.cli import main
from eaqmds.codes import DEFAULT_DISTANCE_BUDGET
from eaqmds.cosets import DefiningSet, coset, is_skew_symmetric, skew_partner
from eaqmds.families import (FamilyError, FamilyId, VerificationError,
                             applicable_combos, construction, family_spec,
                             instance_params, odd_prime_powers)
from eaqmds.catalog import rows_for_combo
from eaqmds.verify import _combo_reports, run_verification

import oracles

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

# (family, q, h, message); the exact text pins the order of the checks too
APPLICABILITY_ERRORS = [
    (NEGA, 7, None, "q=7: negacyclic length q^2+1 needs q = 1 mod 4, q >= 5"),
    (CONSTA, 13, None, "q=13: constacyclic length q^2+1 needs q = 3 mod 4, q >= 7"),
    (T3, 3, None, "q=3: length (q^2+1)/10 needs q = 10m+3 with m >= 1"),    # m = 0
    (T7, 7, None, "q=7: length (q^2+1)/10 needs q = 10m+7 with m >= 1"),    # m = 0
    (T3, 17, None, "q=17: length (q^2+1)/10 needs q = 10m+3 with m >= 1"),  # 10m+7
    (QM1, 13, 3, "h=3 must divide q+1=14"),
    (QM1, 13, 4, "h=4 must be one of 3, 5, 7"),
    (NEGA, 15, None, "q=15 must be an odd prime power"),
    (NEGA, 5, 3, "Q2P1_NEGA takes no h parameter"),
]


def test_applicability_errors():
    for family, q, h, message in APPLICABILITY_ERRORS:
        with pytest.raises(FamilyError) as err:
            construction(family, q, h)
        assert str(err.value) == message


# a family given by name once fell through to the Q2P1 branch of
# construction, or was filtered out or failed later with an AttributeError
@pytest.mark.parametrize("call,name", [
    (lambda: construction("TENTH_3", 13), "TENTH_3"),
    (lambda: construction("Q2P1_NEGA", 5), "Q2P1_NEGA"),
    (lambda: construction("QM1_H", 11, 3), "QM1_H"),
    (lambda: applicable_combos([5, 7], ["QM1_H"]), "QM1_H"),
    (lambda: rows_for_combo("Q2P1_NEGA", 5, None), "Q2P1_NEGA"),
    (lambda: run_verification(q_max=5, families=["QM1_H"]), "QM1_H"),
], ids=["construction-tenth3", "construction-nega", "construction-qm1",
        "applicable_combos", "rows_for_combo", "run_verification"])
def test_a_family_given_by_name_is_rejected(call, name):
    with pytest.raises(FamilyError) as err:
        call()
    assert str(err.value) == f"family must be a FamilyId, got {name!r}"


def test_k_out_of_range_rejected():
    c = construction(NEGA, 5)
    assert (c.lo, c.hi) == (0, 6)
    with pytest.raises(FamilyError) as err:
        instance_params(c, c.hi + 1, c.defining_set(c.hi + 1))
    assert str(err.value) == "k=7 outside the proved range [0, 6] for Q2P1_NEGA q=5"
    c = construction(QM1, 13, 7)
    assert (c.lo, c.hi) == (4, 11)
    with pytest.raises(FamilyError) as err:
        instance_params(c, 3, c.defining_set(3))
    assert str(err.value) == "k=3 outside the proved range [4, 11] for QM1_H q=13"


def test_indices_and_labels():
    c = construction(NEGA, 5)
    assert c.indices() == range(0, 7)
    assert c.indices(include_qmds_datapoints=False) == range(3, 7)
    assert c.label(3) == "Q2P1_NEGA q=5 k=3"
    c = construction(QM1, 13, 7)
    assert c.indices(include_qmds_datapoints=False) == range(5, 12)
    assert c.label(4) == "QM1_H q=13 h=7 k=4"
    # a zero threshold leaves the range as it is
    assert construction(T3, 13).indices(include_qmds_datapoints=False) == range(0, 4)


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
    c = construction(NEGA, 5)
    assert sorted(c.defining_set(3).elements) == [7, 9, 11, 13, 15, 17, 19]
    assert c.predicted_tss(3) == 4 == c.ebits


def test_tenth3_defining_set_q13_k3():
    c = construction(T3, 13)
    assert sorted(c.defining_set(3).elements) == [11, 13, 15, 17, 19, 21, 23]
    assert c.predicted_tss(3) == 1


def test_qm1_defining_set_q5_h3_k2():
    c = construction(QM1, 5, 3)
    assert sorted(c.defining_set(2).elements) == [1, 4, 7]
    assert c.predicted_tss(2) == 1


def test_predicted_zero_below_threshold():
    assert construction(NEGA, 5).predicted_tss(2) == 0
    assert construction(NEGA, 5).threshold == 3
    assert construction(QM1, 13, 7).predicted_tss(4) == 0
    assert construction(QM1, 13, 7).threshold == 5


def test_sweep_equals_from_leaders_up_to_q60():
    # the sweep grows T_ss one coset at a time; from_leaders recomputes it
    # from scratch.  Every combo with q <= 60, one step past the range too.
    instances = 0
    for family, q, h in applicable_combos(odd_prime_powers(60)):
        c = construction(family, q, h)
        for k, t in c.defining_sets(range(c.lo, c.hi + 2)):
            oracle = DefiningSet.from_leaders(
                c.spec, [c.start + c.spec.r * i for i in range(c.lo, k + 1)])
            assert (t.elements, t.t_ss, t.t_sas, t.leaders) == \
                (oracle.elements, oracle.t_ss, oracle.t_sas, oracle.leaders), c.label(k)
            instances += 1
    assert instances == 1386


def test_sweep_yields_requested_indices_and_rejects_descending_ones():
    c = construction(QM1, 13, 7)
    assert [k for k, _ in c.defining_sets([c.lo - 2, 5, 5, 9])] == [c.lo - 2, 5, 5, 9]
    assert c.defining_set(c.lo - 1).elements == frozenset()
    with pytest.raises(ValueError) as err:
        list(c.defining_sets([9, 8]))
    assert str(err.value) == "indices must ascend: k=8 after k=9"


def test_predictions_match_computed_decomposition_everywhere():
    for family, q, h in SMALL_COMBOS:
        c = construction(family, q, h)
        for k in c.indices():
            assert len(c.defining_set(k).t_ss) == c.predicted_tss(k), c.label(k)


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
        record = construction(family, q, h)
        t = record.defining_set(record.hi)
        for leader in t.leaders:
            c = coset(record.spec, leader)
            inside = set(c.elements) <= t.t_ss
            if is_skew_symmetric(c):
                assert inside, record.label(record.hi)
            elif set(skew_partner(c).elements) <= t.elements:
                assert inside, record.label(record.hi)
            else:
                assert not inside, record.label(record.hi)


# ---------------------------------------------------------------------------
# single-run structure forces Singleton equality
# ---------------------------------------------------------------------------

def test_family_sets_are_single_runs():
    for family, q, h in SMALL_COMBOS:
        c = construction(family, q, h)
        for k in c.indices():
            t = c.defining_set(k)
            # the window oracle, not bch_delta, which reads t.run_starts
            assert oracles.longest_consecutive_window(c.spec, t.elements) == len(t.elements), \
                c.label(k)


def test_instance_params_singleton_equality():
    for family, q, h in SMALL_COMBOS:
        c = construction(family, q, h)
        for k, t in c.defining_sets(c.indices()):
            p = instance_params(c, k, t)
            assert p.n + p.c - p.k == 2 * (p.d - 1) and p.mds


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _family_params(family, q, h=None, include_qmds_datapoints=False, **checks):
    c = construction(family, q, h)
    return [instance_params(c, k, t, **checks)
            for k, t in c.defining_sets(c.indices(include_qmds_datapoints))]


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
    c = construction(NEGA, 5)
    bad = dataclasses.replace(c, ebits=3)
    with pytest.raises(VerificationError) as err:
        instance_params(bad, 3, c.defining_set(3))
    assert str(err.value) == "Q2P1_NEGA q=5 k=3: |T_ss|=4 but the family predicts 3"
    assert c.predicted_tss(3) == 4


# each oracle of instance_params, made to disagree by one, fails with its own
# text; the ebit oracles run inside eaq.ebit_mismatches and d is read by
# EaqParams.from_defining_set, so those are patched in eaq
ORACLE_MISMATCHES = {
    "bch": (eaq, "bch_delta", lambda t: len(t.elements),
            "Q2P1_NEGA q=5 k=3: defining set is not a single run: bch=7, |T|=7"),
    "rank": (eaq, "ebits_rank_oracle", lambda code: len(code.defining_set.t_ss) + 1,
             "Q2P1_NEGA q=5 k=3: rank oracle 5 != |T_ss| 4"),
    "exact": (families, "exact_distance_small", lambda code, budget: code.n - code.dim,
              "Q2P1_NEGA q=5 k=3: exact distance 7 != n-k+1 = 8"),
}


@pytest.mark.parametrize("oracle", ORACLE_MISMATCHES)
def test_oracle_mismatch_error_texts(monkeypatch, oracle):
    module, name, fake, text = ORACLE_MISMATCHES[oracle]
    monkeypatch.setattr(module, name, fake)
    c = construction(NEGA, 5)
    with pytest.raises(VerificationError) as err:
        instance_params(c, 3, c.defining_set(3), rank_oracle=True, exact_distance=True)
    assert str(err.value) == text


@pytest.mark.parametrize("oracle", ORACLE_MISMATCHES)
def test_verify_prints_oracle_mismatch_as_fail_line_and_exits_1(monkeypatch, capsys, oracle):
    module, name, fake, text = ORACLE_MISMATCHES[oracle]
    monkeypatch.setattr(module, name, fake)
    assert main(["verify", "--q-max", "5", "--families", "Q2P1_NEGA"]) == 1
    out = capsys.readouterr().out.splitlines()
    # the label is the strongest level that ran: at k=3 the exact sweep runs
    # after the rank oracle, whichever of the two fails
    assert f"[FAIL] Q2P1_NEGA q=5 k=3 -> - (exact-distance) :: {text}" in out


def test_verify_fail_line_without_exact_sweep_is_labelled_rank_oracle(monkeypatch, capsys):
    module, name, fake, text = ORACLE_MISMATCHES["rank"]
    monkeypatch.setattr(module, name, fake)
    assert main(["verify", "--q-max", "5", "--families", "Q2P1_NEGA",
                 "--no-exact-distance"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"[FAIL] Q2P1_NEGA q=5 k=3 -> - (rank-oracle) :: {text}" in out
    # `code --rank-oracle` on the same T_3 fails with the same mismatch text
    t3 = ",".join(map(str, sorted(construction(NEGA, 5).defining_set(3).elements)))
    assert main(["code", "5", "2", "26", "--elements", t3, "--rank-oracle"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: ConstacyclicCode([26, 19, >=8] over GF(5^2)): "
                   + text.removeprefix("Q2P1_NEGA q=5 k=3: ")]


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
    notes = [_combo_reports(*combo, False, DEFAULT_DISTANCE_BUDGET)[1] for combo in combos]
    assert notes == [
        "Q2P1_NEGA q=13: |T_ss|=4 holds for (q+1)/2 <= k <= (3q-3)/2; "
        "at k=(3q-1)/2 the computed |T_ss| is 8",
        "Q2P1_CONSTA q=11: |T_ss|=4 holds for (q+1)/2 <= k <= (3q-3)/2; "
        "at k=(3q-1)/2 the computed |T_ss| is 8",
        "TENTH_3 q=13: one-ebit range ends at d=8 (k=3); at k=4 the computed |T_ss| is 5",
        "TENTH_7 q=17: one-ebit range ends at d=10 (k=4); at k=5 the computed |T_ss| is 5",
        "QM1_H q=19 h=5: first k with |T_ss|=1 is 7 (threshold 7), so the one-ebit "
        "range starts at d=(q+1)/h+1=5",
    ]


def test_verify_reports_every_instance_when_no_k_reaches_one_ebit(monkeypatch, capsys):
    # a |T_ss| fold that always comes out empty: the QM1_H chain never reaches
    # |T_ss| = 1, which the note states in place of an onset
    with_coset = DefiningSet.with_coset
    monkeypatch.setattr(DefiningSet, "with_coset", lambda t, s: dataclasses.replace(
        with_coset(t, s), t_ss=frozenset()))
    assert main(["verify", "--q-max", "5", "--families", "QM1_H",
                 "--no-exact-distance"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert [line.split(" -> ")[0] for line in out[:5]] == [
        "[ok] QM1_H q=5 h=3 k=0", "[FAIL] QM1_H q=5 h=3 k=1", "[FAIL] QM1_H q=5 h=3 k=2",
        "[FAIL] QM1_H q=5 h=3 k=3", "[ok] descent-canary q=5 (drop one coset element)"]
    assert out[5:] == ["note: QM1_H q=5 h=3: no k in [0, 3] has |T_ss|=1 (threshold 1)",
                       "summary: 5 instances, 2 ok, 3 failed"]


def test_qm1_one_ebit_onset_matches_lower_bound():
    # the first k with |T_ss| = 1 sits exactly at the threshold, making the
    # smallest one-ebit distance (q+1)/h + 1 rather than (q+1)(h-1)/(2h) + 1
    for q, h in [(11, 3), (9, 5), (13, 7), (19, 5)]:
        c = construction(QM1, q, h)
        lo, threshold = c.lo, c.threshold
        onset = next(k for k in range(lo, q - 1)
                     if len(c.defining_set(k).t_ss) == 1)
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

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    monkeypatch.setattr(families.os, "cpu_count", lambda: cpus)
    items = list(range(tasks))
    assert families.fan_out(abs, [(-i,) for i in items], workers) == items
    assert _SerialPool.started == started


def test_import_leaves_multiprocessing_unloaded():
    # fan_out imports its process pool only when it starts one, so a serial
    # run never pays for multiprocessing, subprocess and socket
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(families.__file__)))
    probe = "import sys, eaqmds.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n"
