"""The four defining-set constructions and their parameter families.

Each family fixes (r, n) as a function of q, assembles the defining set as
an interval of cosets, and predicts |T_ss| from its threshold on the range
index k.  instance_params is the one place an instance is checked: the
catalog, the verification suite and the `family` command all call it, at
the verification level they need.
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
                  ebits_rank_oracle, singleton_equality)
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


def _require_odd_prime_power(q: int) -> None:
    if q % 2 == 0 or q < 3 or len(factorize(q)) != 1:
        raise FamilyError(f"q={q} must be an odd prime power")


def check_applicable(family: FamilyId, q: int, h: int | None = None) -> None:
    _require_odd_prime_power(q)
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


def family_spec(family: FamilyId, q: int, h: int | None = None) -> CodeSpec:
    check_applicable(family, q, h)
    if family is FamilyId.Q2P1_NEGA:
        return make_spec(q, 2, q * q + 1)
    if family is FamilyId.Q2P1_CONSTA:
        return make_spec(q, q + 1, q * q + 1)
    if family in (FamilyId.TENTH_3, FamilyId.TENTH_7):
        return make_spec(q, 2, (q * q + 1) // 10)
    return make_spec(q, h, (q * q - 1) // h)


def k_range(family: FamilyId, q: int, h: int | None = None) -> tuple[int, int]:
    """Inclusive range of the coset index k covered by the construction."""
    check_applicable(family, q, h)
    if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA):
        return 0, (3 * q - 3) // 2
    if family is FamilyId.TENTH_3:
        return 0, 3 * ((q - 3) // 10)
    if family is FamilyId.TENTH_7:
        return 0, 3 * ((q - 7) // 10) + 1
    return (h - 3) * (q + 1) // (2 * h), q - 2


def tss_threshold(family: FamilyId, q: int, h: int | None = None) -> int:
    """Smallest k at which the predicted |T_ss| jumps to its nonzero value."""
    if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA):
        return (q + 1) // 2
    if family in (FamilyId.TENTH_3, FamilyId.TENTH_7):
        return 0
    return (h - 1) * (q + 1) // (2 * h) - 1


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


def defining_set_at(family: FamilyId, q: int, h: int | None, k: int) -> DefiningSet:
    """The construction's defining set at index k, whether or not k lies in
    the proved range."""
    spec = family_spec(family, q, h)
    n = spec.n
    if family is FamilyId.Q2P1_NEGA:
        leaders = [n // 2 + 2 * i for i in range(k + 1)]
    elif family is FamilyId.Q2P1_CONSTA:
        leaders = [n // 2 + (q + 1) * i for i in range(k + 1)]
    elif family in (FamilyId.TENTH_3, FamilyId.TENTH_7):
        leaders = [n + 2 * i for i in range(k + 1)]
    else:
        leaders = [1 + h * i for i in range((h - 3) * (q + 1) // (2 * h), k + 1)]
    return DefiningSet.from_leaders(spec, leaders)


def family_defining_set(family: FamilyId, q: int, h: int | None = None,
                        k: int = 0) -> FamilyInstance:
    """The instance at range index k, with its predicted |T_ss|."""
    lo, hi = k_range(family, q, h)
    if not lo <= k <= hi:
        raise FamilyError(f"k={k} outside the proved range [{lo}, {hi}] "
                          f"for {family.value} q={q}")
    t = defining_set_at(family, q, h, k)
    return FamilyInstance(family=family, q=q, h=h, k=k, spec=t.spec, t=t,
                          predicted_tss=predicted_tss_at(family, q, h, k))


def predicted_tss_at(family: FamilyId, q: int, h: int | None, k: int) -> int:
    threshold = tss_threshold(family, q, h)
    if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA):
        return 4 if k >= threshold else 0
    return 1 if k >= threshold else 0


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
    if not singleton_equality(params):
        failures.append(f"Singleton equality fails for {params}")
    if failures:
        raise VerificationError(f"{instance.label()}: " + "; ".join(failures))
    return params


def family_instances(family: FamilyId, q: int, h: int | None = None,
                     include_qmds_datapoints: bool = True) -> list[FamilyInstance]:
    """The instances of the construction's k-range, in k order; without the
    QMDS datapoints the range starts at the |T_ss| threshold."""
    lo, hi = k_range(family, q, h)
    start = lo if include_qmds_datapoints else max(lo, tss_threshold(family, q, h))
    return [family_defining_set(family, q, h, k) for k in range(start, hi + 1)]


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
