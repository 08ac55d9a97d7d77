"""The four defining-set constructions and their parameter families.

A Construction record holds one family's construction at (q, h): the spec,
whose (r, n) the family fixes as a function of q, the defining set at range
index k as an interval of cosets, and the threshold on k from which |T_ss|
takes its nonzero value.  instance_params is the one place an instance is
checked: the catalog, the verification suite and the `family` command all
call it, at the verification level they need.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .codes import (DEFAULT_DISTANCE_BUDGET, bch_delta, build_code,
                    distance_check_feasible, exact_distance_small)
from .cosets import CodeSpec, DefiningSet, make_spec
from .eaq import (VERIFIED_BCH, VERIFIED_EXACT, VERIFIED_RANK, EaqParams,
                  ebits_rank_oracle)
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


class VerificationError(RuntimeError):
    """A family instance failed one of its mandatory cross-checks."""


def check_applicable(family: FamilyId, q: int, h: int | None = None) -> None:
    if q % 2 == 0 or q < 3 or len(factorize(q)) != 1:
        raise FamilyError(f"q={q} must be an odd prime power")
    if family is FamilyId.Q2P1_NEGA:
        if q % 4 != 1 or q < 5:
            raise FamilyError(f"q={q}: negacyclic length q^2+1 needs q = 1 mod 4, q >= 5")
    elif family is FamilyId.Q2P1_CONSTA:
        if q % 4 != 3 or q < 7:
            raise FamilyError(f"q={q}: constacyclic length q^2+1 needs q = 3 mod 4, q >= 7")
    elif family is FamilyId.TENTH_3:
        if q % 10 != 3 or q < 13:
            raise FamilyError(f"q={q}: length (q^2+1)/10 needs q = 10m+3 with m >= 1")
    elif family is FamilyId.TENTH_7:
        if q % 10 != 7 or q < 17:
            raise FamilyError(f"q={q}: length (q^2+1)/10 needs q = 10m+7 with m >= 1")
    elif family is FamilyId.QM1_H:
        if h not in (3, 5, 7):
            raise FamilyError(f"h={h} must be one of 3, 5, 7")
        if (q + 1) % h != 0:
            raise FamilyError(f"h={h} must divide q+1={q + 1}")
    if family is not FamilyId.QM1_H and h is not None:
        raise FamilyError(f"{family.value} takes no h parameter")


@dataclass(frozen=True)
class FamilyInstance:
    family: FamilyId
    q: int
    h: int | None
    k: int
    spec: CodeSpec
    t: DefiningSet
    predicted_tss: int

    def label(self) -> str:
        h = f" h={self.h}" if self.h is not None else ""
        return f"{self.family.value} q={self.q}{h} k={self.k}"


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

    def defining_set(self, k: int) -> DefiningSet:
        """The defining set at index k, whether or not k lies in the proved range."""
        leaders = [self.start + self.spec.r * i for i in range(self.lo, k + 1)]
        return DefiningSet.from_leaders(self.spec, leaders)

    def instance(self, k: int) -> FamilyInstance:
        """The instance at range index k, with its predicted |T_ss|."""
        if not self.lo <= k <= self.hi:
            raise FamilyError(f"k={k} outside the proved range [{self.lo}, {self.hi}] "
                              f"for {self.family.value} q={self.q}")
        return FamilyInstance(family=self.family, q=self.q, h=self.h, k=k,
                              spec=self.spec, t=self.defining_set(k),
                              predicted_tss=self.ebits if k >= self.threshold else 0)


def construction(family: FamilyId, q: int, h: int | None = None) -> Construction:
    """The construction of (family, q, h); FamilyError if it is not applicable."""
    check_applicable(family, q, h)
    if family is FamilyId.QM1_H:
        return Construction(family, q, h, make_spec(q, h, (q * q - 1) // h), start=1,
                            lo=(h - 3) * (q + 1) // (2 * h), hi=q - 2,
                            threshold=(h - 1) * (q + 1) // (2 * h) - 1, ebits=1)
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


def family_defining_set(family: FamilyId, q: int, h: int | None = None,
                        k: int = 0) -> FamilyInstance:
    return construction(family, q, h).instance(k)


def instance_params(instance: FamilyInstance, *, rank_oracle: bool = False,
                    exact_distance: bool = False,
                    distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> EaqParams:
    """Verified EA parameters for one instance.

    Always checks that the computed |T_ss| matches the family prediction,
    that the defining set is a single consecutive run so the BCH bound is
    |T| + 1, and that the Singleton equality holds.  rank_oracle adds
    rank(H H^dagger) = |T_ss|; exact_distance adds the exhaustive distance
    sweep wherever distance_check_feasible allows it.  The code is built at
    most once, and only for those two checks.  Every failure is collected
    into one VerificationError that names the instance; the returned params
    carry the strongest verification level that ran.
    """
    spec, t = instance.spec, instance.t
    size, c = len(t.elements), len(t.t_ss)
    failures = []
    if c != instance.predicted_tss:
        failures.append(f"|T_ss|={c} but the family predicts {instance.predicted_tss}")
    exact = exact_distance and distance_check_feasible(spec.n, size, distance_budget)
    verified = VERIFIED_BCH
    if rank_oracle or exact:
        code = build_code(spec, t)
        bch = code.bch_delta
        if rank_oracle:
            c_rank = ebits_rank_oracle(code)
            if c_rank != c:
                failures.append(f"rank oracle {c_rank} != |T_ss| {c}")
            verified = VERIFIED_RANK
        if exact:
            d = exact_distance_small(code, budget=distance_budget)
            if d != code.n - code.dim + 1:
                failures.append(f"exact distance {d} != n-k+1 = {code.n - code.dim + 1}")
            verified = VERIFIED_EXACT
    else:
        bch = bch_delta(t)
    if bch != size + 1:
        failures.append(f"defining set is not a single run: bch={bch}, |T|={size}")
    params = EaqParams.from_defining_set(spec, t, bch, verified)
    if not params.mds:
        failures.append(f"Singleton equality fails for {params}")
    if failures:
        raise VerificationError(f"{instance.label()}: " + "; ".join(failures))
    return params


def family_instances(family: FamilyId, q: int, h: int | None = None,
                     include_qmds_datapoints: bool = True) -> list[FamilyInstance]:
    """The instances of the construction's k-range, in k order; without the
    QMDS datapoints the range starts at the |T_ss| threshold."""
    c = construction(family, q, h)
    start = c.lo if include_qmds_datapoints else max(c.lo, c.threshold)
    return [c.instance(k) for k in range(start, c.hi + 1)]


def applicable_combos(q_values: list[int]) -> list[tuple[FamilyId, int, int | None]]:
    """Every (family, q, h) combination applicable among the given q."""
    combos: list[tuple[FamilyId, int, int | None]] = []
    for family in FAMILY_ORDER:
        for q in sorted(q_values):
            for h in (3, 5, 7) if family is FamilyId.QM1_H else (None,):
                try:
                    check_applicable(family, q, h)
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


def fan_out(fn: Callable, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks], over a process pool when workers > 1.

    The pool starts no more processes than there are tasks or CPUs, since
    a forked pool starts all of them at the first submit.  fn and the
    tasks are pickled for the workers, so fn must be a module-level
    function.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
