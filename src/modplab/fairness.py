"""Fairness of a pair (group, compact subgroup) at desk scale: witness
search for the strict-shrinking condition over conjugates, the central
refinement that produces a smaller subgroup when a nontrivial central
element is available, and the congruence-depth calculus for SL2 with an
exhaustive modular-arithmetic oracle.

Depths are exponents: a triple (upper, torus, lower) encodes the group of
matrices whose upper entry, diagonal-minus-one, and lower entry vanish to
at least those orders.  Conjugating a depth-n congruence subgroup by
diag(p^a, p^-a) shifts the upper depth by +2a and the lower by -2a, and
intersecting with a depth-m subgroup takes componentwise maxima.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import is_prime, p_part
from .groups import FinGroup, Subgroup, all_subgroups, conjugate_intersect

__all__ = [
    "BRUTE_FORCE_CAP",
    "PrecisionError",
    "DepthTriple",
    "CertComponent",
    "FairnessCertificate",
    "WitnessReport",
    "witness_search",
    "central_refinement",
    "overlap_depths",
    "oracle_exponents",
    "overlap_depths_bruteforce",
    "fairness_refinement",
    "verify_certificate",
]

BRUTE_FORCE_CAP = 200_000
# fairness_refinement accepts primes p < 2**64, where is_prime is exact
P_LIMIT = 2**64
# verify_certificate checks every exponent a up to the depths, so
# fairness_refinement accepts depths m, n < DEPTH_LIMIT only
DEPTH_LIMIT = 2**16


class PrecisionError(ValueError):
    """Working precision too small to determine the requested quantity."""


class DepthTriple(NamedTuple):
    upper: int
    torus: int
    lower: int

    def dominates(self, other: "DepthTriple") -> bool:
        """Componentwise at-least, i.e. the encoded subgroup is contained
        in the other's."""
        return (
            self.upper >= other.upper
            and self.torus >= other.torus
            and self.lower >= other.lower
        )

    def to_json(self) -> dict:
        return self._asdict()


class CertComponent(NamedTuple):
    name: str
    lhs_expr: str  # depth expression at the refined level
    rhs_expr: str  # depth expression at the original level
    strict_for_all_a: bool


class FairnessCertificate(NamedTuple):
    m: int
    n: int
    n_prime: int
    components: tuple[CertComponent, ...]
    reduction_note: str
    p: int | None = None

    def to_json(self) -> dict:
        out = self._asdict()
        out["components"] = [c._asdict() for c in self.components]
        if self.p is None:
            del out["p"]
        return out


class WitnessReport(NamedTuple):
    outcome: str  # "witness-found" or "exhausted"
    g: int | None
    group: FinGroup
    K: Subgroup
    H: Subgroup
    Hprime: Subgroup

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "witness": self.g,
            "witness_label": None if self.g is None else self.group.label(self.g),
            "K": self.K.to_json(),
            "H": self.H.to_json(),
            "Hprime": self.Hprime.to_json(),
        }


def witness_search(
    G: FinGroup, K: Subgroup, H: Subgroup, Hprime: Subgroup
) -> WitnessReport:
    """First g, in index order, where shrinking H to H' does not shrink
    the conjugate overlap with K; exhausted means the overlap shrinks
    strictly at every g."""
    for S, name in ((K, "K"), (H, "H"), (Hprime, "Hprime")):
        if S.parent != G:
            raise ValueError(f"{name} belongs to a different group")
    if not all(H.contains(x) for x in Hprime.members):
        raise ValueError("Hprime must be contained in H")
    if not all(K.contains(x) for x in H.members):
        raise ValueError("H must be contained in K")
    for g in range(G.order):
        big = conjugate_intersect(K, H, g)
        small = conjugate_intersect(K, Hprime, g)
        if big.members == small.members:
            return WitnessReport("witness-found", g, G, K, H, Hprime)
    return WitnessReport("exhausted", None, G, K, H, Hprime)


def central_refinement(H: Subgroup) -> Subgroup:
    """Largest enumerated subgroup of H avoiding the first nontrivial
    element of H central in H's parent; conjugate overlaps with any K
    containing H then always retain that central element while the
    refinement never does."""
    G = H.parent
    z = None
    central = set(G.center_members())
    for x in H.members:
        if x != G.identity and x in central:
            z = x
            break
    if z is None:
        raise ValueError("H meets the center trivially; refinement unavailable")
    hset = set(H.members)
    best: Subgroup | None = None
    for S in all_subgroups(G):
        if z in S.members or not set(S.members) <= hset:
            continue
        if best is None or S.order > best.order:
            best = S
    assert best is not None  # the trivial subgroup always qualifies
    return best


# ---------------------------------------------------------------------------
# congruence-depth calculus


def _check_depth_args(m: int, n: int, a: int):
    if m < 1 or n < 1:
        raise ValueError("depths m and n must be at least 1")
    if a < 0:
        raise ValueError("the contraction exponent a must be non-negative")


def overlap_depths(m: int, n: int, a: int) -> DepthTriple:
    """Depth triple of the overlap of a depth-m subgroup with the
    diag(p^a, p^-a)-conjugate of a depth-n subgroup."""
    _check_depth_args(m, n, a)
    return DepthTriple(
        upper=max(m, n + 2 * a),
        torus=max(m, n),
        lower=max(m, n - 2 * a, 1),
    )


def _min_valuation(values: np.ndarray, p: int, cap: int) -> int:
    best = cap
    # a set, not np.unique: the first np.unique of a process imports numpy.ma
    for x in set(values.tolist()):
        x = x % p**cap
        v = p_part(x, p)[0] if x else cap
        if v < best:
            best = v
            if best == 0:
                break
    return best


def oracle_exponents(m: int, n: int, N: int) -> range:
    """The precision window: the exponents a >= 0 at which the brute force
    at precision p^N is determined, those with n + 2a < N, m < N and
    m + 2a <= N.  A range, so a huge N costs nothing until it is walked."""
    if m >= N:
        return range(0)
    return range(min((N - n + 1) // 2, (N - m) // 2 + 1))


def overlap_depths_bruteforce(p: int, N: int, m: int, n: int, a: int) -> DepthTriple:
    """Exhaustive oracle for overlap_depths at working precision p^N.

    Enumerates the depth-n congruence subgroup of SL2 over Z/p^N directly
    from its entry parametrization, conjugates entrywise (the lower entry
    by divisibility filtering, not p-adic division), intersects with the
    depth-m subgroup, and reads minimal valuations off the surviving set.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if N < 1:
        raise ValueError("N must be at least 1")
    _check_depth_args(m, n, a)
    if a not in oracle_exponents(m, n, N):
        raise PrecisionError(
            "the exponent a is outside the precision window: conjugated "
            "entries need n + 2a < N and m < N, and the depth-m test on the "
            f"divided lower entry needs m + 2a <= N (got m={m}, n={n}, a={a}, N={N})"
        )
    # p >= 2, so an exponent past the cap's bit length exceeds it without
    # forming the power (a huge N would make that power slow)
    exponent = 3 * (N - n)
    if exponent >= BRUTE_FORCE_CAP.bit_length() or p**exponent > BRUTE_FORCE_CAP:
        raise ValueError(f"enumeration of {p}^{exponent} elements exceeds the cap {BRUTE_FORCE_CAP}")
    q = p**N
    step = p**n
    w = p ** (N - n)
    beta, gamma, delta = (
        x.ravel() for x in np.indices((w, w, w), dtype=np.int64)
    )
    b = step * beta % q
    c = step * gamma % q
    d = (1 + step * delta) % q
    dinv_by_delta = np.array(
        [pow(int(1 + step * t), -1, q) for t in range(w)], dtype=np.int64
    )
    aa = (1 + b * c) % q * dinv_by_delta[delta] % q
    pa2 = p ** (2 * a)
    keep = c % pa2 == 0
    b2 = b[keep] * pa2 % q
    c2 = c[keep] // pa2  # determined only modulo p^(N - 2a)
    a2 = aa[keep]
    d2 = d[keep]
    pm = p**m
    qlow = p ** (N - 2 * a)
    mask = (
        (b2 % pm == 0)
        & (c2 % pm == 0)
        & ((a2 - 1) % pm == 0)
        & ((d2 - 1) % pm == 0)
    )
    if not mask.any():
        raise AssertionError("overlap is empty, but it contains the identity")
    upper = _min_valuation(b2[mask], p, N)
    torus = min(
        _min_valuation((a2[mask] - 1) % q, p, N),
        _min_valuation((d2[mask] - 1) % q, p, N),
    )
    lower = _min_valuation(c2[mask] % qlow, p, N - 2 * a)
    return DepthTriple(upper=upper, torus=torus, lower=lower)


def fairness_refinement(m: int, n: int, p: int | None = None) -> FairnessCertificate:
    """Minimal refined depth n' whose overlap triple strictly dominates the
    original for every contraction exponent; the torus component is the
    designated a-independent strict one.  The certificate is returned
    unchecked: verify_certificate is its one check."""
    if p is not None and p >= P_LIMIT:
        raise ValueError(f"p must be below 2**64 (got {p})")
    if p is not None and not is_prime(p):
        raise ValueError("p must be prime")
    _check_depth_args(m, n, 0)
    if max(m, n) >= DEPTH_LIMIT:
        raise ValueError(f"depths m and n must be below 2**16 (got m={m}, n={n})")
    n_prime = max(m, n) + 1
    upper_strict = n_prime > max(m, n)  # then n'+2a beats both m and n+2a
    torus_strict = max(m, n_prime) > max(m, n)
    components = (
        CertComponent(
            "upper",
            f"max({m}, {n_prime} + 2a)",
            f"max({m}, {n} + 2a)",
            upper_strict,
        ),
        CertComponent("torus", f"max({m}, {n_prime})", f"max({m}, {n})", torus_strict),
        CertComponent(
            "lower",
            f"max({m}, {n_prime} - 2a, 1)",
            f"max({m}, {n} - 2a, 1)",
            False,  # both sides stabilize at m once 2a clears the depths
        ),
    )
    return FairnessCertificate(
        m=m,
        n=n,
        n_prime=n_prime,
        components=components,
        reduction_note=(
            "overlaps are compared against diagonal contractions "
            "diag(p^a, p^-a), a >= 0, which represent all double cosets of "
            "the maximal compact subgroup since the congruence subgroups "
            "are normal in it"
        ),
        p=p,
    )


def verify_certificate(cert: FairnessCertificate) -> bool:
    """Recheck a certificate numerically on sampled exponents and on the
    linear tail; the samples always include every breakpoint of the
    piecewise-linear depth expressions, so they cover all a >= 0."""
    m, n, n2 = cert.m, cert.n, cert.n_prime
    if n2 <= n:
        return False
    strict_seen = {name: True for name in ("upper", "torus", "lower")}
    for a in range(0, max(m, n, n2, 10) + 2):
        lhs = overlap_depths(m, n2, a)
        rhs = overlap_depths(m, n, a)
        if not lhs.dominates(rhs):
            return False
        # an early exit only: at equal triples every component is marked
        # non-strict below, so a later return refuses the certificate too
        if lhs == rhs:
            return False
        for name in strict_seen:
            if getattr(lhs, name) == getattr(rhs, name):
                strict_seen[name] = False
    for comp in cert.components:
        if comp.strict_for_all_a and not strict_seen[comp.name]:
            return False
    if not any(c.strict_for_all_a for c in cert.components):
        return False
    return True
