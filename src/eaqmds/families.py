"""The four defining-set constructions and their parameter families.

A Construction record holds one family's construction at (q, h): the spec,
whose (r, n) the family fixes as a function of q, the defining set at range
index k as an interval of cosets, and the threshold on k from which |T_ss|
takes its nonzero value.  An instance is a record and an index k in its
proved range.  instance_params is the one place an instance is checked:
the catalog, the verification suite and the `family` command all call it,
at the verification level they need.  It compares no ebit oracle itself:
eaq.ebit_mismatches, which `eaqmds code --rank-oracle` calls too, is the one
place the exact oracles meet |T_ss|, and a further exact oracle is added
there only.  The catalog and the verification suite hand fan_out the same
(family, q, h) tasks, with a partial of one module-level sweep each.

The defining sets of one construction are nested, T_k = T_{k-1} | C(start
+ r*k), so they are built as one sweep: Construction.defining_sets adds one
coset per index, and DefiningSet.with_coset grows T_ss and the count of
run starts from that coset alone.  A combo of K instances costs K coset
computations, not O(K^2), and the single-run check (bch_delta) reads the
count instead of rescanning T_k; only a set of several runs, which no
family produces, is scanned.  The sweep holds only the current set, so
each T_k is checked and dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from .codes import (DEFAULT_DISTANCE_BUDGET, VERIFIED_BCH, VERIFIED_EXACT, VERIFIED_RANK,
                    VerificationError, build_code, distance_check_feasible,
                    exact_distance_small)
from .cosets import CodeSpec, DefiningSet, make_spec
from .eaq import EaqParams, ebit_mismatches
from .fields import factorize


class FamilyId(Enum):
    """The supported constructions.

    Q2P1_NEGA / Q2P1_CONSTA: length q^2 + 1 (negacyclic for q = 1 mod 4,
    constacyclic with r = q + 1 for q = 3 mod 4), four ebits.
    TENTH_3 / TENTH_7: negacyclic length (q^2 + 1)/10 for q = 10m + 3 or
    10m + 7, one ebit.
    QM1_H: constacyclic length (q^2 - 1)/h for h in {3, 5, 7} dividing q + 1,
    one ebit.
    """

    Q2P1_NEGA = "Q2P1_NEGA"
    Q2P1_CONSTA = "Q2P1_CONSTA"
    TENTH_3 = "TENTH_3"
    TENTH_7 = "TENTH_7"
    QM1_H = "QM1_H"


FAMILY_ORDER = list(FamilyId)


class FamilyError(ValueError):
    """The requested (family, q, h) combination is not applicable."""


@dataclass(frozen=True)
class Construction:
    """One family's construction at (q, h).

    The defining set at index k is the union of the cosets of start + r*i
    for lo <= i <= k, with r the spec's r; the proved range is lo <= k <= hi,
    and |T_ss| is predicted as ebits from k = threshold on and 0 below it.
    """

    family: FamilyId
    q: int
    h: int | None
    spec: CodeSpec
    start: int
    lo: int
    hi: int
    threshold: int
    ebits: int

    def defining_sets(self, ks: Iterable[int]) -> Iterator[tuple[int, DefiningSet]]:
        """(k, T_k) for each k of the ascending ks, grown one coset per index
        from lo; k need not lie in the proved range."""
        # t is T_{i-1}, the union of the cosets of start + r*j for lo <= j < i
        t, i = DefiningSet.from_elements(self.spec, ()), self.lo
        for k in ks:
            if max(k + 1, self.lo) < i:
                raise ValueError(f"indices must ascend: k={k} after k={i - 1}")
            while i <= k:
                t = t.with_coset(self.start + self.spec.r * i)
                i += 1
            yield k, t

    def defining_set(self, k: int) -> DefiningSet:
        """The defining set at index k, whether or not k lies in the proved range."""
        return next(self.defining_sets([k]))[1]

    def predicted_tss(self, k: int) -> int:
        return self.ebits if k >= self.threshold else 0

    def indices(self, include_qmds_datapoints: bool = True) -> range:
        """The proved k-range; without the QMDS datapoints (the zero-ebit
        rows) it starts at the threshold."""
        start = self.lo if include_qmds_datapoints else max(self.lo, self.threshold)
        return range(start, self.hi + 1)

    def label(self, k: int) -> str:
        h = f" h={self.h}" if self.h is not None else ""
        return f"{self.family.value} q={self.q}{h} k={k}"


def construction(family: FamilyId, q: int, h: int | None = None) -> Construction:
    """The construction of (family, q, h); FamilyError if it is not applicable.

    The first failing check names the error: family a FamilyId, then q an
    odd prime power, then the family's own condition on q (or h), then h
    given to a family without one.
    """
    if not isinstance(family, FamilyId):
        raise FamilyError(f"family must be a FamilyId, got {family!r}")
    if q % 2 == 0 or q < 3 or len(factorize(q)) != 1:
        raise FamilyError(f"q={q} must be an odd prime power")
    if family is FamilyId.QM1_H:
        if h not in (3, 5, 7):
            raise FamilyError(f"h={h} must be one of 3, 5, 7")
        if (q + 1) % h != 0:
            raise FamilyError(f"h={h} must divide q+1={q + 1}")
        return Construction(family, q, h, make_spec(q, h, (q * q - 1) // h), start=1,
                            lo=(h - 3) * (q + 1) // (2 * h), hi=q - 2,
                            threshold=(h - 1) * (q + 1) // (2 * h) - 1, ebits=1)
    if family is FamilyId.Q2P1_NEGA and (q % 4 != 1 or q < 5):
        raise FamilyError(f"q={q}: negacyclic length q^2+1 needs q = 1 mod 4, q >= 5")
    if family is FamilyId.Q2P1_CONSTA and (q % 4 != 3 or q < 7):
        raise FamilyError(f"q={q}: constacyclic length q^2+1 needs q = 3 mod 4, q >= 7")
    if family is FamilyId.TENTH_3 and (q % 10 != 3 or q < 13):
        raise FamilyError(f"q={q}: length (q^2+1)/10 needs q = 10m+3 with m >= 1")
    if family is FamilyId.TENTH_7 and (q % 10 != 7 or q < 17):
        raise FamilyError(f"q={q}: length (q^2+1)/10 needs q = 10m+7 with m >= 1")
    if h is not None:
        raise FamilyError(f"{family.value} takes no h parameter")
    if family in (FamilyId.TENTH_3, FamilyId.TENTH_7):
        # q = 10m + 3 gives hi = 3m, q = 10m + 7 gives hi = 3m + 1
        spec = make_spec(q, 2, (q * q + 1) // 10)
        return Construction(family, q, h, spec, start=spec.n, lo=0,
                            hi=3 * (q // 10) + (1 if family is FamilyId.TENTH_7 else 0),
                            threshold=0, ebits=1)
    spec = make_spec(q, 2 if family is FamilyId.Q2P1_NEGA else q + 1, q * q + 1)
    return Construction(family, q, h, spec, start=spec.n // 2, lo=0, hi=(3 * q - 3) // 2,
                        threshold=(q + 1) // 2, ebits=4)


def family_spec(family: FamilyId, q: int, h: int | None = None) -> CodeSpec:
    return construction(family, q, h).spec


def instance_params(c: Construction, k: int, t: DefiningSet, *,
                    rank_oracle: bool = False, exact_distance: bool = False,
                    distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> EaqParams:
    """Verified EA parameters for the instance of construction c at index k,
    whose defining set t is T_k as c.defining_sets yields it.

    Raises FamilyError when k lies outside the proved range.  Always checks
    that the computed |T_ss| matches the family prediction and that the
    params are EA-MDS, that is that the defining set is a single consecutive
    run, so that the BCH bound is |T| + 1.  rank_oracle adds the exact ebit
    oracles of eaq.ebit_mismatches; exact_distance adds the exhaustive distance
    sweep wherever distance_check_feasible allows it.  The code is built at
    most once, and only for those two checks.  Every failure is collected
    into one VerificationError that names the instance; the error and the
    returned params carry the strongest verification level that ran.
    """
    if not c.lo <= k <= c.hi:
        raise FamilyError(f"k={k} outside the proved range [{c.lo}, {c.hi}] "
                          f"for {c.family.value} q={c.q}")
    spec = c.spec
    size, tss = len(t.elements), len(t.t_ss)
    failures = []
    if tss != c.predicted_tss(k):
        failures.append(f"|T_ss|={tss} but the family predicts {c.predicted_tss(k)}")
    exact = exact_distance and distance_check_feasible(spec.n, size, distance_budget)
    verified = VERIFIED_BCH
    if rank_oracle or exact:
        code = build_code(spec, t)
        if rank_oracle:
            failures += ebit_mismatches(code)
            verified = VERIFIED_RANK
        if exact:
            d = exact_distance_small(code, budget=distance_budget)
            if d != code.n - code.dim + 1:
                failures.append(f"exact distance {d} != n-k+1 = {code.n - code.dim + 1}")
            verified = VERIFIED_EXACT
    params = EaqParams.from_defining_set(t, verified)
    if not params.mds:
        failures.append(f"defining set is not a single run: bch={params.d}, |T|={size}")
    if failures:
        raise VerificationError(f"{c.label(k)}: " + "; ".join(failures), verified)
    return params


def applicable_combos(q_values: list[int], families: Iterable[FamilyId] | None = None
                      ) -> list[tuple[FamilyId, int, int | None]]:
    """Every (family, q, h) combination applicable among the given q, of the
    given families (all when None), in family order; FamilyError if one of
    the families is not a FamilyId."""
    wanted = FAMILY_ORDER if families is None else list(families)
    for family in wanted:
        if not isinstance(family, FamilyId):
            raise FamilyError(f"family must be a FamilyId, got {family!r}")
    combos: list[tuple[FamilyId, int, int | None]] = []
    for family in (f for f in FAMILY_ORDER if f in wanted):
        for q in sorted(q_values):
            for h in (3, 5, 7) if family is FamilyId.QM1_H else (None,):
                try:
                    construction(family, q, h)
                except FamilyError:
                    continue
                combos.append((family, q, h))
    return combos


def odd_prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(3, limit + 1, 2):
        facts = factorize(q)
        if len(facts) == 1:
            out.append(q)
    return out


def fan_out(fn: Callable, tasks: list[tuple], workers: int) -> list:
    """[fn(*task) for task in tasks], over a process pool when workers > 1;
    either way the results keep the order of the tasks.

    The pool starts no more processes than there are tasks or CPUs, since
    a forked pool starts all of them at the first submit.  fn and the
    tasks are pickled for the workers, so fn must be a module-level
    function or a functools.partial of one.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]
