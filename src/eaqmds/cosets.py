"""q^2-cyclotomic cosets modulo rn and defining-set decompositions.

Everything here is integer set arithmetic on the class set
Omega = {1 + ri mod rn : 0 <= i < n}; no field elements are built.  A
defining set T splits as T = T_ss | T_sas with T_ss = T & T^{-q}, and
|T_ss| is the ebit count consumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .fields import prime_power_split


@dataclass(frozen=True)
class CodeSpec:
    """Ambient parameters fixing one constacyclic setting over F_{q^2}.

    q = p^ell; r divides q+1 and is the order of eta; n is the code length
    with gcd(n, q) = 1; m is the multiplicative order of q^2 modulo rn, so
    the rn-th roots of unity live in F_{q^(2m)}; omega_exponent_base is the
    exponent e with omega = gamma^e for the canonical primitive gamma of
    F_{q^(2m)}.
    """

    q: int
    p: int
    ell: int
    r: int
    n: int
    rn: int
    m: int
    omega_exponent_base: int

    @classmethod
    def create(cls, q: int, r: int, n: int) -> CodeSpec:
        p, ell = prime_power_split(q)
        if r < 1 or (q + 1) % r != 0:
            raise ValueError(f"r={r} must divide q+1={q + 1}")
        if n < 1 or math.gcd(n, q) != 1:
            raise ValueError(f"length n={n} must be coprime to q={q}")
        rn = r * n
        qq = q * q % rn
        m, acc = 1, qq
        while acc != 1:
            acc = acc * qq % rn
            m += 1
        return cls(q=q, p=p, ell=ell, r=r, n=n, rn=rn, m=m,
                   omega_exponent_base=(q ** (2 * m) - 1) // rn)

    def __repr__(self) -> str:
        return f"CodeSpec(q={self.q}, r={self.r}, n={self.n})"


@lru_cache(maxsize=None)
def make_spec(q: int, r: int, n: int) -> CodeSpec:
    return CodeSpec.create(q, r, n)


def omega_set(spec: CodeSpec) -> list[int]:
    """The class set {1 + ri mod rn : 0 <= i < n}, in index order."""
    return [(1 + spec.r * i) % spec.rn for i in range(spec.n)]


def in_omega(spec: CodeSpec, s: int) -> bool:
    return 0 <= s < spec.rn and s % spec.r == 1 % spec.r


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of a class under multiplication by q^2 modulo rn."""

    spec: CodeSpec
    leader: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def coset(spec: CodeSpec, s: int) -> CyclotomicCoset:
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
    return CyclotomicCoset(spec=spec, leader=orbit[0], elements=tuple(orbit))


def all_cosets(spec: CodeSpec) -> list[CyclotomicCoset]:
    """The coset partition of Omega, ordered by leader."""
    seen: set[int] = set()
    out = []
    for s in omega_set(spec):
        if s not in seen:
            c = coset(spec, s)
            seen.update(c.elements)
            out.append(c)
    out.sort(key=lambda c: c.leader)
    return out


def minus_q(spec: CodeSpec, s: int) -> int:
    return (spec.rn - spec.q * s) % spec.rn


def is_skew_symmetric(c: CyclotomicCoset) -> bool:
    """True when the coset contains its own image under s -> -qs."""
    return minus_q(c.spec, c.leader) in c.elements


def skew_partner(c: CyclotomicCoset) -> CyclotomicCoset:
    """The coset containing -q*leader; equals c exactly when skew-symmetric."""
    return coset(c.spec, minus_q(c.spec, c.leader))


@dataclass(frozen=True)
class DefiningSet:
    """A union of cyclotomic cosets with its skew decomposition.

    t_ss = T & T^{-q} and t_sas = T \\ t_ss are computed eagerly; both are
    unions of whole cosets whenever T is.
    """

    spec: CodeSpec
    leaders: tuple[int, ...]
    elements: frozenset[int]
    t_ss: frozenset[int] = field(init=False)
    t_sas: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        image = frozenset(minus_q(self.spec, s) for s in self.elements)
        object.__setattr__(self, "t_ss", self.elements & image)
        object.__setattr__(self, "t_sas", self.elements - self.t_ss)

    @classmethod
    def from_leaders(cls, spec: CodeSpec, leaders: Iterable[int]) -> DefiningSet:
        elems: set[int] = set()
        leads: set[int] = set()
        for s in leaders:
            c = coset(spec, s)
            leads.add(c.leader)
            elems.update(c.elements)
        return cls(spec=spec, leaders=tuple(sorted(leads)), elements=frozenset(elems))

    @classmethod
    def from_elements(cls, spec: CodeSpec, elements: Iterable[int],
                      check_closure: bool = True) -> DefiningSet:
        """Build from raw classes; closure under q^2 can be deliberately skipped
        to exercise downstream consistency errors."""
        elems = frozenset(e % spec.rn for e in elements)
        for e in elems:
            if not in_omega(spec, e):
                raise ValueError(f"{e} is not in Omega for {spec!r}")
        leads = {min(coset(spec, e).elements) for e in elems}
        if check_closure:
            closed: set[int] = set()
            for e in elems:
                closed.update(coset(spec, e).elements)
            if closed != set(elems):
                raise ValueError("element set is not a union of whole cosets")
        return cls(spec=spec, leaders=tuple(sorted(leads)), elements=elems)


def t_minus_q(t: DefiningSet) -> frozenset[int]:
    """Elementwise image {-qz mod rn : z in T}; always the same size as T."""
    return frozenset(minus_q(t.spec, s) for s in t.elements)
