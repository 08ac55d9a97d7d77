"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints an `ACCEPTANCE criterion N: PASS` line (run pytest with -s
to see them live).  Expected table rows are frozen literals; everything
else is checked against independently computed values.
"""

import random
from contextlib import contextmanager

from eaqmds.catalog import RunConfig, generate_catalog, serialize_csv
from eaqmds.codes import bch_delta, build_code, build_tower, exact_distance_small
from eaqmds.cosets import (DefiningSet, all_cosets, coset, is_skew_symmetric,
                           make_spec, minus_q, omega_set, skew_partner)
from eaqmds.families import FamilyId, applicable_combos, construction, odd_prime_powers
from eaqmds.verify import run_verification

import oracles


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {num} ({desc}): PASS")


# Frozen rows of the published tables: (q, [h,] n, k_base, d_lo, d_hi) with
# k = k_base - 2d; tables 1/2/4/5 step d by 2, table 6 by 1.
TABLE_1 = [(9, 82, 88, 12, 26), (13, 170, 176, 16, 38), (17, 290, 296, 20, 50),
           (19, 362, 368, 22, 56), (25, 626, 632, 28, 74), (29, 842, 848, 32, 86)]
TABLE_2 = [(7, 50, 56, 10, 20), (11, 122, 128, 14, 32), (19, 362, 368, 22, 56),
           (23, 530, 536, 26, 68), (31, 962, 968, 34, 92), (43, 1850, 1856, 46, 128)]
TABLE_4 = [(13, 17, 20, 2, 8), (23, 53, 56, 2, 14), (43, 185, 188, 2, 26),
           (53, 281, 284, 2, 32)]
TABLE_5 = [(17, 29, 32, 2, 10), (27, 73, 76, 2, 16), (37, 137, 140, 2, 22),
           (47, 221, 224, 2, 28)]
TABLE_6 = [(11, 3, 40, 43, 5, 11), (17, 3, 96, 99, 7, 17), (19, 5, 72, 75, 5, 15),
           (29, 5, 168, 171, 7, 23), (13, 7, 24, 27, 3, 9), (41, 7, 240, 243, 7, 29)]


def _expected_rows(table_id):
    expected = set()
    if table_id in (1, 2, 4, 5):
        c = 4 if table_id in (1, 2) else 1
        spec = TABLE_1 if table_id == 1 else TABLE_2 if table_id == 2 \
            else TABLE_4 if table_id == 4 else TABLE_5
        for q, n, k_base, d_lo, d_hi in spec:
            for d in range(d_lo, d_hi + 1, 2):
                expected.add((q, None, n, k_base - 2 * d, d, c))
    else:
        for q, h, n, k_base, d_lo, d_hi in TABLE_6:
            for d in range(d_lo, d_hi + 1):
                expected.add((q, h, n, k_base - 2 * d, d, 1))
    return expected


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction"):
        for table_id in (1, 2, 4, 5, 6):
            rows, _ = generate_catalog(RunConfig(tables=[table_id]))
            produced = {(r.q, r.h, r.n, r.k, r.d, r.c) for r in rows}
            assert produced == _expected_rows(table_id), f"table {table_id}"
            assert len(rows) == len(produced)
            # serialization is consistent and re-checks every row
            assert serialize_csv(rows).count("\n") == len(rows) + 1


def test_criterion_2_cross_oracle_ebit_equality():
    with criterion(2, "cross-oracle ebit equality, q <= 13"):
        report = run_verification(q_max=13, exact_distance=False)
        assert report.passed, [r.line() for r in report.instances if not r.ok]
        # the rank oracle ran on every family instance in scope
        combos = applicable_combos(odd_prime_powers(13))
        lengths = set()
        count = 0
        for family, q, h in combos:
            c = construction(family, q, h)
            lengths.add(c.spec.n)
            count += len(c.indices())
        assert count + 1 == len(report.instances)  # + the descent canary
        assert {8, 17, 24, 26, 40, 50, 170} <= lengths
        # threshold predictions: 0 below, 4/1 at and above the jump
        for family, q, h in combos:
            c = construction(family, q, h)
            nonzero = 4 if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA) else 1
            for k in c.indices():
                expected = nonzero if k >= c.threshold else 0
                assert len(c.defining_set(k).t_ss) == expected, c.label(k)


def test_criterion_3_exact_distance_mds_spot_checks():
    with criterion(3, "exact-distance MDS spot checks"):
        seen = set()
        for family, q, h in applicable_combos(odd_prime_powers(13)):
            c = construction(family, q, h)
            for k in c.indices():
                t = c.defining_set(k)
                n, redundancy = c.spec.n, len(t.elements)
                if n > 26 or redundancy > 7:
                    continue
                code = build_code(c.spec, t)
                assert exact_distance_small(code) == n - code.dim + 1, c.label(k)
                seen.add((n, code.dim, n - code.dim + 1))
        assert (8, 5, 4) in seen       # [8,5,4] over GF(25)
        assert (17, 16, 2) in seen     # [17,16,2] over GF(169)
        assert (17, 14, 4) in seen     # [17,14,4] over GF(169)
        assert (26, 19, 8) in seen


def test_criterion_4_singleton_equality_on_every_row():
    with criterion(4, "Singleton equality on every emitted row"):
        rows, _ = generate_catalog(RunConfig(tables=[1, 2, 4, 5, 6]))
        general, _ = generate_catalog(RunConfig(q_range=(3, 13)))
        for row in rows + general:
            assert row.mds
            assert row.n + row.c - row.k == 2 * (row.d - 1), row
        zero_ebit = [r for r in general if r.c == 0]
        assert zero_ebit, "the low-distance zero-ebit datapoints are emitted"
        for row in zero_ebit:
            assert row.n - row.k == 2 * (row.d - 1)
            assert row.d <= row.q + 2


def _property_specs():
    args = [(5, 2, 26), (9, 2, 82), (13, 2, 170), (7, 8, 50), (13, 2, 17),
            (5, 3, 8), (9, 5, 16), (11, 3, 40), (13, 7, 24), (5, 6, 4),
            (7, 4, 25), (9, 10, 8), (13, 14, 12), (3, 4, 10), (25, 2, 12)]
    specs = [make_spec(*a) for a in args]
    assert all(s.rn <= 1000 for s in specs)
    return specs


def test_criterion_5_property_suites():
    with criterion(5, "defining-set and code property suites"):
        rng = random.Random(1234)
        for spec in _property_specs():
            cosets = all_cosets(spec)
            # partition of Omega
            union = [e for c in cosets for e in c.elements]
            assert sorted(union) == sorted(omega_set(spec))
            # skew trichotomy through the partner involution
            for c in cosets:
                partner = skew_partner(c)
                if is_skew_symmetric(c):
                    assert partner.elements == c.elements
                else:
                    assert partner.elements != c.elements
                    assert minus_q(spec, c.leader) in partner.elements
            # decomposition matches the cosetwise characterization
            leaders = [c.leader for c in cosets]
            pools = [[l] for l in leaders]
            pools += [rng.sample(leaders, rng.randrange(2, min(len(leaders), 7) + 1))
                      for _ in range(20) if len(leaders) >= 2]
            for pick in pools:
                t = DefiningSet.from_leaders(spec, pick)
                expected = set()
                for leader in t.leaders:
                    c = coset(spec, leader)
                    if is_skew_symmetric(c) or set(skew_partner(c).elements) <= t.elements:
                        expected.update(c.elements)
                assert t.t_ss == frozenset(expected)

        # every constructed code: g | x^n - eta and G H^T = 0; exact >= bch
        rng = random.Random(99)
        for args in [(5, 2, 26), (5, 3, 8), (13, 2, 17), (9, 5, 16)]:
            spec = make_spec(*args)
            tower = build_tower(spec)
            leaders = [c.leader for c in all_cosets(spec)]
            for _ in range(6):
                pick = rng.sample(leaders, rng.randrange(1, min(len(leaders), 5) + 1))
                t = DefiningSet.from_leaders(spec, pick)
                code = build_code(spec, t)
                f = code.gen_poly.field
                dividend = [f.neg(tower.eta)] + [0] * (spec.n - 1) + [1]
                assert oracles.long_division_remainder(
                    f, dividend, list(code.gen_poly.coeffs)) == []
                g = oracles.generator_matrix(code)
                assert oracles.times_transpose_is_zero(f, g.entries, code.check_matrix.entries)
                if 0 < code.dim < spec.n and spec.n <= 17:
                    d = exact_distance_small(code)
                    assert d >= bch_delta(t)


def test_criterion_6_no_channel_simulation_claimed():
    with criterion(6, "physical error-correction performance excluded"):
        # acceptance rests on algebraic identities only; the package exposes
        # no channel or noise simulation surface
        import eaqmds
        assert not any("simul" in name.lower() or "channel" in name.lower()
                       or "noise" in name.lower() for name in eaqmds.__all__)
