"""Cross-oracle verification suite.

For every family instance in scope this runs families.instance_params with
the rank oracle on, which checks the predicted |T_ss| against the computed
decomposition and against rank(H H^dagger), the BCH bound against the
defining-set run length, the Singleton equality, and (where the enumeration
budget allows) the exact minimum distance.  A failed instance becomes a
FAIL line instead of stopping the run.  The suite also re-derives the
ranges the published statements disagree on and reports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import ConfigError
from .codes import DEFAULT_DISTANCE_BUDGET, CoefficientDescentError, build_code
from .cosets import DefiningSet, make_spec
from .eaq import VERIFIED_RANK
from .families import (FamilyId, FamilyInstance, VerificationError,
                       applicable_combos, construction, family_instances, fan_out,
                       instance_params, odd_prime_powers)


@dataclass
class InstanceReport:
    label: str
    params: str
    verified: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = "" if self.ok else " :: " + "; ".join(self.failures)
        return f"[{status}] {self.label} -> {self.params} ({self.verified}){extra}"


@dataclass
class VerifyReport:
    instances: list[InstanceReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.instances if not r.ok)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        return (f"summary: {len(self.instances)} instances, "
                f"{len(self.instances) - self.failures} ok, {self.failures} failed")


def _check_instance(instance: FamilyInstance, exact_distance: bool,
                    budget: int) -> InstanceReport:
    try:
        params = instance_params(instance, rank_oracle=True,
                                 exact_distance=exact_distance, distance_budget=budget)
    except VerificationError as exc:  # surfaced as a FAIL line, not a crash
        return InstanceReport(instance.label(), "-", VERIFIED_RANK, [str(exc)])
    return InstanceReport(instance.label(), str(params), params.verified)


def _combo_reports(args: tuple) -> list[InstanceReport]:
    family, q, h, exact_distance, budget = args
    return [_check_instance(instance, exact_distance, budget)
            for instance in family_instances(family, q, h)]


def _descent_canary() -> InstanceReport:
    """Negative control: a deliberately non-closed defining set must be
    rejected by coefficient descent."""
    spec = make_spec(5, 2, 26)
    broken = DefiningSet.from_elements(spec, [13, 15], check_closure=False)
    try:
        build_code(spec, broken)
    except CoefficientDescentError:
        return InstanceReport("descent-canary q=5 (drop one coset element)",
                              "rejected as expected", "negative-control")
    return InstanceReport("descent-canary q=5 (drop one coset element)",
                          "-", "negative-control",
                          ["corrupted defining set was not rejected"])


def _beyond_range_notes(combos: list[tuple[FamilyId, int, int | None]]) -> list[str]:
    """Recompute the ranges where the published statements disagree."""
    notes = []
    for family, q, h in combos:
        c = construction(family, q, h)
        if family is FamilyId.QM1_H:
            onset = next(k for k in range(c.lo, c.hi + 1)
                         if len(c.defining_set(k).t_ss) == 1)
            notes.append(
                f"{family.value} q={q} h={h}: first k with |T_ss|=1 is {onset} "
                f"(threshold {c.threshold}), so the one-ebit range starts at "
                f"d=(q+1)/h+1={onset - c.lo + 2}")
            continue
        # one step past the stated cap
        beyond = len(c.defining_set(c.hi + 1).t_ss)
        if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA):
            notes.append(
                f"{family.value} q={q}: |T_ss|=4 holds for (q+1)/2 <= k <= (3q-3)/2; "
                f"at k=(3q-1)/2 the computed |T_ss| is {beyond}")
        else:
            notes.append(
                f"{family.value} q={q}: one-ebit range ends at d={2 * c.hi + 2} "
                f"(k={c.hi}); at k={c.hi + 1} the computed |T_ss| is {beyond}")
    return notes


def run_verification(q_max: int = 13, families: list[FamilyId] | None = None,
                     exact_distance: bool = True,
                     distance_budget: int = DEFAULT_DISTANCE_BUDGET,
                     workers: int = 1) -> VerifyReport:
    """Exercise every applicable family instance with q <= q_max.

    Raises ConfigError when no instance is in scope, since the descent
    canary alone verifies no family.
    """
    if families is not None and not families:
        raise ConfigError(f"no family instance in scope for q <= {q_max}: "
                          "the family selection is empty")
    combos = applicable_combos(odd_prime_powers(q_max))
    if families is not None:
        combos = [c for c in combos if c[0] in families]
    if not combos:
        names = "any family" if families is None else ", ".join(f.value for f in families)
        raise ConfigError(f"no family instance in scope for q <= {q_max} and {names}")
    tasks = [(family, q, h, exact_distance, distance_budget) for family, q, h in combos]

    report = VerifyReport()
    for chunk in fan_out(_combo_reports, tasks, workers):
        report.instances.extend(chunk)
    report.instances.append(_descent_canary())
    report.notes = _beyond_range_notes(combos)
    return report
