"""q^2-cyclotomic cosets modulo rn and defining-set decompositions.

Everything here is integer set arithmetic on the class set
Omega = {1 + ri mod rn : 0 <= i < n}; no field elements are built.  A
defining set T splits as T = T_ss | T_sas with T_ss = T & T^{-q}, and
|T_ss| is the ebit count consumed downstream.  A coset is the sorted
tuple of its classes, so its leader, the least class, is at index 0, and
every caller already holds the spec it belongs to.  coset() is the one
orbit walk; cosets_meeting splits a set of classes into its q^2-orbits,
each walked once: all_cosets, DefiningSet's closure check and leaders,
and codes.build_code run on it.

DefiningSet.from_leaders passes the union of its cosets, which is closed,
to from_elements without its closure walk; from_elements is the one place
that computes T_ss from scratch.
DefiningSet.with_coset grows a set by one coset C: with T' = T | C,

    T' & -qT' = T_ss | (T' & -qC) | (C & -qT'),

and C & -qT' = -q(T' & -qC) because -q maps -qC onto q^2 C = C.  A step
therefore costs O(|C|) set lookups besides copying T, so a sweep over
nested sets T_lo <= T_lo+1 <= ... (families.Construction.defining_sets)
never recomputes the -q image of a whole set.  The step reads C from
coset() and keeps T_ss itself when T' & -qC is empty.

The run structure is folded the same way.  run_starts counts the classes
s of T whose predecessor s - r (mod rn) is not in T, so T is one run of
consecutive classes 1 + ri exactly when run_starts <= 1 (0 for T empty or
T = Omega).  Adding C changes the count only at the new classes N = C \\ T
and their successors N + r:

    run_starts(T') = run_starts(T)
                     + sum over s in N | (N + r) of [s in T', s - r not in T']
                     - sum over s in N | (N + r) of [s in T,  s - r not in T].

For s in N the second bracket is 0.  For s = x + r with x in N and s not
in N, x is in T' and not in T, so only -[s in T] is left.  with_coset
therefore makes one pass over N, adding [x - r not in T'] - [x + r in T]
for each new class x.

A Hypothesis test (tests/test_library_fuzz.py) checks both folds against
from_elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .fields import prime_power_split


@dataclass(frozen=True)
class CodeSpec:
    """Ambient parameters fixing one constacyclic setting over F_{q^2}.

    q = p^ell; r divides q+1 and is the order of eta; n is the code length
    with gcd(n, q) = 1; m is the multiplicative order of q^2 modulo rn, so
    the rn-th roots of unity live in F_{q^(2m)}.  Build one with make_spec.
    """

    q: int
    p: int
    ell: int
    r: int
    n: int
    rn: int
    m: int

    def __repr__(self) -> str:
        return f"CodeSpec(q={self.q}, r={self.r}, n={self.n})"


@lru_cache(maxsize=None)
def make_spec(q: int, r: int, n: int) -> CodeSpec:
    """The spec of (q, r, n), checked and with m computed; ValueError when q is
    not a prime power, r does not divide q+1 or n is not coprime to q."""
    p, ell = prime_power_split(q)
    if r < 1 or (q + 1) % r != 0:
        raise ValueError(f"r={r} must divide q+1={q + 1}")
    if n < 1 or math.gcd(n, q) != 1:
        raise ValueError(f"length n={n} must be coprime to q={q}")
    rn = r * n
    qq = q * q % rn
    # the order of q^2 modulo rn; modulo rn = 1 every residue is 1 % rn = 0
    m, acc = 1, qq
    while acc != 1 % rn:
        acc = acc * qq % rn
        m += 1
    return CodeSpec(q=q, p=p, ell=ell, r=r, n=n, rn=rn, m=m)


def omega_set(spec: CodeSpec) -> list[int]:
    """The class set {1 + ri mod rn : 0 <= i < n}, in index order."""
    return [(1 + spec.r * i) % spec.rn for i in range(spec.n)]


def in_omega(spec: CodeSpec, s: int) -> bool:
    return 0 <= s < spec.rn and s % spec.r == 1 % spec.r


def coset(spec: CodeSpec, s: int) -> tuple[int, ...]:
    """The coset of s as a sorted tuple, its least class first: s reduced mod
    rn, checked to lie in Omega (ValueError naming s), and multiplied by q^2
    until the orbit closes; the module's one orbit walk."""
    rn = spec.rn
    start = s % rn
    if not in_omega(spec, start):
        raise ValueError(f"{s} is not in Omega for {spec!r}")
    qq = spec.q * spec.q % rn
    orbit = [start]
    x = start * qq % rn
    while x != start:
        orbit.append(x)
        x = x * qq % rn
    orbit.sort()
    return tuple(orbit)


def cosets_meeting(spec: CodeSpec, classes: Iterable[int]) -> list[tuple[int, ...]]:
    """The cosets that meet classes (reduced, in Omega), one walk per orbit,
    ordered by the least class each holds: by leader when classes are closed."""
    seen: set[int] = set()
    out = []
    for s in sorted(classes):
        if s not in seen:
            c = coset(spec, s)
            seen.update(c)
            out.append(c)
    return out


def all_cosets(spec: CodeSpec) -> list[tuple[int, ...]]:
    """The coset partition of Omega, ordered by leader."""
    return cosets_meeting(spec, omega_set(spec))


def minus_q(spec: CodeSpec, s: int) -> int:
    return (spec.rn - spec.q * s) % spec.rn


def is_skew_symmetric(spec: CodeSpec, c: tuple[int, ...]) -> bool:
    """True when the coset c contains its own image under s -> -qs."""
    return minus_q(spec, c[0]) in c


def skew_partner(spec: CodeSpec, c: tuple[int, ...]) -> tuple[int, ...]:
    """The coset containing -q*c[0]; equals c exactly when skew-symmetric."""
    return coset(spec, minus_q(spec, c[0]))


@dataclass(frozen=True)
class DefiningSet:
    """A union of cyclotomic cosets with its skew decomposition.

    Stored are T (elements), t_ss = T & T^{-q} and run_starts, the number
    of classes of T whose predecessor s - r (mod rn) is not in T; t_sas =
    T \\ t_ss is derived on access, and leaders and from_elements' closure
    check run on one cosets_meeting walk.  Both parts are unions of whole
    cosets whenever T is.  Build one with from_leaders or from_elements,
    and grow it with with_coset.
    """

    spec: CodeSpec
    elements: frozenset[int]
    t_ss: frozenset[int]
    run_starts: int

    @property
    def leaders(self) -> tuple[int, ...]:
        """The sorted leaders of the cosets that T meets."""
        return tuple(sorted(c[0] for c in cosets_meeting(self.spec, self.elements)))

    @property
    def t_sas(self) -> frozenset[int]:
        return self.elements - self.t_ss

    @classmethod
    def from_leaders(cls, spec: CodeSpec, leaders: Iterable[int]) -> DefiningSet:
        """The union of the cosets of the leaders: whole cosets, so no closure walk."""
        return cls.from_elements(spec, [e for s in leaders for e in coset(spec, s)],
                                 check_closure=False)

    @classmethod
    def from_elements(cls, spec: CodeSpec, elements: Iterable[int],
                      check_closure: bool = True) -> DefiningSet:
        """Build from raw classes.  check_closure=False skips the walk that checks
        closure under q^2: from_leaders passes whole cosets, and the `code`
        command, verify's canary and tests pass sets that codes.build_code's
        descent must reject."""
        elems = frozenset(e % spec.rn for e in elements)
        for e in elems:
            if not in_omega(spec, e):
                raise ValueError(f"{e} is not in Omega for {spec!r}")
        if check_closure and not all(elems.issuperset(c) for c in cosets_meeting(spec, elems)):
            raise ValueError("element set is not a union of whole cosets")
        return cls(spec=spec, elements=elems,
                   t_ss=elems & frozenset(minus_q(spec, s) for s in elems),
                   run_starts=sum(1 for s in elems if (s - spec.r) % spec.rn not in elems))

    def with_coset(self, s: int) -> DefiningSet:
        """T | C(s), with t_ss and run_starts folded from C(s) alone in one
        pass (module docstring); T itself when C(s) <= T, and coset()'s
        ValueError when s is outside Omega."""
        spec, elements = self.spec, self.elements
        c = coset(spec, s)
        new = [x for x in c if x not in elements]
        if not new:
            return self
        grown = elements.union(new)
        q, r, rn = spec.q, spec.r, spec.rn
        # T' & -qC, and its -q image C & -qT'
        meet = [z for z in [(rn - q * x) % rn for x in c] if z in grown]
        t_ss = self.t_ss.union(meet, [(rn - q * z) % rn for z in meet]) if meet else self.t_ss
        # a new class x starts a run unless x - r is in T'; its successor
        # x + r, when already in T, stops starting one
        run_starts = self.run_starts
        for x in new:
            run_starts += ((x - r) % rn not in grown) - ((x + r) % rn in elements)
        return DefiningSet(spec, grown, t_ss, run_starts)


def t_minus_q(t: DefiningSet) -> frozenset[int]:
    """Elementwise image {-qz mod rn : z in T}; always the same size as T."""
    return frozenset(minus_q(t.spec, s) for s in t.elements)
