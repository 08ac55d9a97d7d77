"""Cross-oracle verification suite.

For every family instance in scope this runs families.instance_params with
the rank oracle on, which checks the predicted |T_ss| against the computed
decomposition and against rank(H H^dagger), the EA-Singleton equality,
which holds exactly when the defining set is a single run, and (where the
enumeration budget allows) the exact minimum distance.  A failed instance
becomes a FAIL line instead of stopping the run.  run_verification checks
its level, budget and worker count by making a RunConfig of them, as the
CLI's settings are checked.  Each construction (family, q, h) is one
fan_out task, whose T_k chain _combo_reports sweeps once, one index
past its proved range; the same sweep's |T_ss| counts give the note on
where the published range statement and the computed |T_ss| disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .catalog import ConfigError, RunConfig, check_q_limit
from .codes import DEFAULT_DISTANCE_BUDGET, CoefficientDescentError, build_code
from .cosets import DefiningSet, make_spec
from .families import (FamilyId, VerificationError, applicable_combos, construction,
                       fan_out, instance_params, odd_prime_powers)


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


def _combo_reports(family: FamilyId, q: int, h: int | None, exact_distance: bool,
                   budget: int) -> tuple[list[InstanceReport], str]:
    """The instance reports and the range note of one construction."""
    c = construction(family, q, h)
    reports, tss = [], []  # tss[i] is |T_ss| of T_{lo+i}, for lo <= k <= hi + 1
    for k, t in c.defining_sets(range(c.lo, c.hi + 2)):
        tss.append(len(t.t_ss))
        if k <= c.hi:
            try:
                params = instance_params(c, k, t, rank_oracle=True,
                                         exact_distance=exact_distance, distance_budget=budget)
                reports.append(InstanceReport(c.label(k), str(params), params.verified))
            except VerificationError as exc:  # surfaced as a FAIL line, not a crash
                reports.append(InstanceReport(c.label(k), "-", exc.verified, [str(exc)]))
    if family is FamilyId.QM1_H:
        head = f"{family.value} q={q} h={h}"
        if 1 not in tss[:-1]:
            return reports, (f"{head}: no k in [{c.lo}, {c.hi}] has |T_ss|=1 "
                             f"(threshold {c.threshold})")
        onset = c.lo + tss.index(1)
        return reports, (f"{head}: first k with |T_ss|=1 is {onset} "
                         f"(threshold {c.threshold}), so the one-ebit range starts at "
                         f"d=(q+1)/h+1={onset - c.lo + 2}")
    if family in (FamilyId.Q2P1_NEGA, FamilyId.Q2P1_CONSTA):
        return reports, (f"{family.value} q={q}: |T_ss|=4 holds for (q+1)/2 <= k <= "
                         f"(3q-3)/2; at k=(3q-1)/2 the computed |T_ss| is {tss[-1]}")
    return reports, (f"{family.value} q={q}: one-ebit range ends at d={2 * c.hi + 2} "
                     f"(k={c.hi}); at k={c.hi + 1} the computed |T_ss| is {tss[-1]}")


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


def run_verification(q_max: int = 13, families: list[FamilyId] | None = None,
                     exact_distance: bool = True,
                     distance_budget: int = DEFAULT_DISTANCE_BUDGET,
                     workers: int = 1) -> VerifyReport:
    """Exercise every applicable family instance with q <= q_max.

    Raises ConfigError for a keyword a RunConfig rejects, when no instance
    is in scope, since the descent canary alone verifies no family, and
    when q_max is 2^32 or more.
    """
    RunConfig(exact_distance=exact_distance, distance_budget=distance_budget, workers=workers)
    check_q_limit(q_max)
    if families is not None and not families:
        raise ConfigError(f"no family instance in scope for q <= {q_max}: "
                          "the family selection is empty")
    combos = applicable_combos(odd_prime_powers(q_max), families)
    if not combos:
        names = "any family" if families is None else ", ".join(f.value for f in families)
        raise ConfigError(f"no family instance in scope for q <= {q_max} and {names}")

    report = VerifyReport()
    check = partial(_combo_reports, exact_distance=exact_distance, budget=distance_budget)
    for reports, note in fan_out(check, combos, workers):
        report.instances.extend(reports)
        report.notes.append(note)
    report.instances.append(_descent_canary())
    return report
