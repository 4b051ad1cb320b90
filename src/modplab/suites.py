"""Named verification suites over the built-in catalog.

Each suite returns a list of report cases; run_suite wraps them in a
deterministic report.  A suite is a sequence of named checks: module-level
functions that take their inputs explicitly and return a case's details
or a count.  Suites use a seeded generator only for choosing sample
vectors and map coefficients; every iteration order is fixed.

suites:
  frobenius        adjunction dimension counts and lift/drop round trips
  phi-machinery    fixed points of induced trivials, qualifying subgroups,
                   kernel/anchor behavior of cover maps, assembled covers
  higman           projectivity of modules induced from order-prime-to-p
                   subgroups, and failure of the trivial module when p
                   divides the group order
  exact-axioms     splitting-class closure axioms, index-prime-to-p
                   equivalence of splitting classes, unit/counit witnesses
  stable-frobenius relative projective = relative injective, loop and
                   suspension against the Jordan oracle, stable hom dims
  chi-functor      eigenspace projectors, surjectivity on eigenspaces,
                   central-character extension, qualifying sets with center
"""

from __future__ import annotations

import itertools
import random
from functools import partial

import numpy as np

from .catalog import catalog_fields, catalog_groups, catalog_reps, load_catalog, subgroup_id
from .covers import (
    CoverageError,
    assemble_cover,
    character_eigenspace,
    cover_map,
    extend_by_central_character,
    fixed_cover_subspace,
    induced_trivial,
    nonzero_vectors,
    qualifying_subgroups,
)
from .exact import (
    adjunction_counit,
    adjunction_unit,
    averaging_section,
    counit_section,
    loop_rep,
    quotient_rep,
    relative_projectivity_test,
    stable_hom,
    subrep_on_kernel,
    subrep_on_subspace,
    suspension,
    suspension_section,
    u_split_search,
    unit_retraction,
)
from .fields import FiniteField, p_part
from .groups import FinGroup, Subgroup, all_subgroups
from .jordan import jordan_block_rep, jordan_type, stable_jordan_type
from .linalg import Matrix, Subspace, column_space, hstack
from .reps import (
    Rep,
    RepMap,
    ShortExactSeq,
    characters_of,
    cyclic_span,
    cyclic_span_dim,
    direct_sum,
    fixed_points,
    hom_space,
    induce,
    intertwines,
    lower_drop,
    lower_lift,
    regular_rep,
    restrict,
    trivial_rep,
    upper_drop,
    upper_lift,
)
from .reports import Case, make_report

__all__ = ["SUITES", "run_suite"]

FROBENIUS_GROUPS = ("C2", "C3", "C4", "V4", "C9", "S3", "D4", "Q8", "A4")
STANDARD_FIELDS = ("F2", "F3", "F4", "F9")
P_GROUP_PAIRS = (
    ("C2", "F2"),
    ("C2", "F4"),
    ("C3", "F3"),
    ("C3", "F9"),
    ("C4", "F2"),
    ("C4", "F4"),
    ("V4", "F2"),
    ("V4", "F4"),
    ("C9", "F3"),
    ("C9", "F9"),
    ("D4", "F2"),
    ("D4", "F4"),
    ("Q8", "F2"),
    ("Q8", "F4"),
)


class _CheckFail(AssertionError):
    pass


def _ensure(cond: bool, msg: str):
    if not cond:
        raise _CheckFail(msg)


def _error_case(cid: str, inputs: dict, exc: Exception) -> Case:
    return Case(cid, inputs, "error", {"exception": f"{type(exc).__name__}: {exc}"})


def _run_case(cases: list[Case], cid: str, inputs: dict, fn, *args):
    try:
        details = fn(*args) or {}
        cases.append(Case(cid, inputs, "pass", details))
    except _CheckFail as exc:
        cases.append(Case(cid, inputs, "fail", {"reason": str(exc)}))
    except Exception as exc:  # pragma: no cover - defensive
        cases.append(_error_case(cid, inputs, exc))


def _resolve_catalog(catalog):
    if catalog is None:
        return dict(catalog_groups()), dict(catalog_fields())
    if isinstance(catalog, str):
        catalog = load_catalog(catalog)
    return dict(catalog["groups"]), dict(catalog["fields"])


def _grid(catalog, default_groups=FROBENIUS_GROUPS):
    """Group/field name lists a suite iterates over: the defaults for the
    built-in catalog, everything (sorted) for a user-supplied one."""
    groups, fields = _resolve_catalog(catalog)
    if catalog is None:
        return groups, fields, list(default_groups), list(STANDARD_FIELDS)
    return groups, fields, sorted(groups), sorted(fields)


# ---------------------------------------------------------------------------
# suite 1: frobenius reciprocity


def _frobenius_case(G: FinGroup, F: FiniteField, U: Subgroup) -> dict:
    """Both adjunctions between induction from U and restriction, by hom
    dimensions and by moving each hom basis across and back."""
    Vreps, Wreps = catalog_reps(G, F, 4), catalog_reps(U.as_group(), F, 4)
    pairs = 0
    trips = 0
    for W in Wreps.values():
        ind = induce(U, W)
        for V in Vreps.values():
            down = restrict(V, U)
            lower_g = hom_space(ind, V)
            lower_u = hom_space(W, down)
            _ensure(
                lower_g.dim == lower_u.dim,
                f"lower adjunction dims {lower_g.dim} != {lower_u.dim}",
            )
            upper_g = hom_space(V, ind)
            upper_u = hom_space(down, W)
            _ensure(
                upper_g.dim == upper_u.dim,
                f"upper adjunction dims {upper_g.dim} != {upper_u.dim}",
            )
            # each basis is lifted as one stack and dropped back
            for flavor, space, src, dst, lift, drop, big in (
                ("lower", lower_u, W, down, lower_lift, lower_drop, (ind, V)),
                ("upper", upper_u, down, W, upper_lift, upper_drop, (V, ind)),
            ):
                k = space.dim
                if not k:
                    continue
                X = space.basis.a.reshape(k, dst.dim, src.dim)
                _ensure(intertwines(src, dst, X), f"{flavor} hom basis is not equivariant")
                moved = lift(U, V, X)
                _ensure(intertwines(*big, moved), f"{flavor} lifted maps are not equivariant")
                _ensure(np.array_equal(drop(U, W, moved), X), f"{flavor} round trip broke")
                trips += k
            pairs += 1
    return {"pairs": pairs, "round_trips": trips}


def suite_frobenius(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        for fname in fnames:
            for U in all_subgroups(G):
                cid = f"frobenius/{gname}/{fname}/{subgroup_id(G, U)}"
                inputs = {"group": gname, "field": fname, "subgroup": list(U.members)}
                _run_case(cases, cid, inputs, _frobenius_case, G, fields[fname], U)
    return cases


# ---------------------------------------------------------------------------
# suite 2: phi machinery on p-groups


def _expect_uncoverable(K: FinGroup, field: FiniteField, V: Rep) -> bool:
    # a cover exists unless V has a free direct summand, which at these
    # dimensions can only happen for a cyclic group no bigger than dim V
    if K.order > V.dim:
        return False
    try:
        return K.order in jordan_type(V)
    except ValueError:
        return False


def _phi_constants(K: FinGroup, F: FiniteField) -> dict:
    """The fixed points of each induced trivial module are the constants."""
    count = 0
    for U in all_subgroups(K):
        S = induced_trivial(U, F)
        fp = fixed_points(S)
        ones = Subspace.from_rows(F, S.dim, [[1] * S.dim])
        _ensure(fp.dim == 1, f"fixed dim {fp.dim} != 1 at {U!r}")
        _ensure(fp == ones, "fixed points are not the constants")
        count += 1
    return {"subgroups": count}


def _phi_rep(K: FinGroup, F: FiniteField, V: Rep) -> dict:
    """Cover maps of V are anchored at their vector and not injective, and
    the assembled cover succeeds exactly when V has no free summand."""
    _ensure(fixed_points(V).dim >= 1, "nonzero rep with zero fixed space")
    anchored = 0
    for v in nonzero_vectors(F, V.dim):
        for U in qualifying_subgroups(V, v):
            phi = cover_map(U, V, v)
            _ensure(not phi.is_injective(), "qualifying subgroup produced an injective cover map")
            anchor = lower_drop(U, trivial_rep(U.as_group(), F), phi.matrix.a[None])
            _ensure(
                np.array_equal(anchor[0, :, 0], v),
                "indicator of the trivial coset missed its vector",
            )
            anchored += 1
    expect_fail = _expect_uncoverable(K, F, V)
    try:
        asm = assemble_cover(V)
    except CoverageError:
        _ensure(expect_fail, "coverage failed although no free summand is present")
        return {"anchored": anchored, "cover": "uncoverable-as-classified"}
    _ensure(not expect_fail, "free summand present but coverage unexpectedly succeeded")
    _ensure(asm.onto.rank() == V.dim, "assembled map is not surjective")
    sk = fixed_cover_subspace(asm)
    _ensure(
        not (asm.onto.matrix @ sk.basis.transpose()).a.any(),
        "assembled map does not vanish on the fixed subspace",
    )
    if asm.source.dim <= 40:
        _ensure(fixed_points(asm.source) == sk, "blockwise fixed subspace mismatch")
    return {
        "anchored": anchored,
        "blocks": len(asm.blocks),
        "source_dim": asm.source.dim,
    }


def suite_phi_machinery(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    if catalog is None:
        pairs = list(P_GROUP_PAIRS)
    else:
        pairs = [
            (g, f)
            for g in gnames
            for f in fnames
            if groups[g].order > 1 and p_part(groups[g].order, fields[f].p)[1] == 1
        ]
    cases: list[Case] = []
    for gname, fname in pairs:
        K = groups[gname]
        F = fields[fname]
        inputs = {"group": gname, "field": fname}
        _run_case(cases, f"phi/{gname}/{fname}/constants", inputs, _phi_constants, K, F)
        try:
            pool = catalog_reps(K, F, 3)
        except Exception as exc:
            cases.append(_error_case(f"phi/{gname}/{fname}/reps", inputs, exc))
            continue
        for vname, V in pool.items():
            inputs = {"group": gname, "field": fname, "rep": vname}
            _run_case(cases, f"phi/{gname}/{fname}/{vname}", inputs, _phi_rep, K, F, V)
    return cases


# ---------------------------------------------------------------------------
# suite 3: projectivity of induced modules (and its failure)


def _higman_case(G: FinGroup, F: FiniteField) -> dict:
    """Modules induced from p'-subgroups are projective; the trivial module
    is exactly when p does not divide |G|."""
    triv_sub = Subgroup.trivial(G)
    tested = []
    for U in all_subgroups(G):
        if U.order % F.p == 0:
            continue
        P = induced_trivial(U, F)
        flag, witness = relative_projectivity_test(P, triv_sub)
        _ensure(
            flag and witness is not None,
            f"module induced from order-{U.order} subgroup not projective",
        )
        tested.append(U.order)
    triv_flag, _ = relative_projectivity_test(trivial_rep(G, F, 1), triv_sub)
    if G.order % F.p == 0:
        _ensure(not triv_flag, "trivial module projective despite p | |G|")
    else:
        _ensure(triv_flag, "trivial module not projective though p is invertible")
    return {"induced_from_orders": tested, "trivial_projective": triv_flag}


def suite_higman(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        for fname in fnames:
            inputs = {"group": gname, "field": fname}
            _run_case(cases, f"higman/{gname}/{fname}", inputs, _higman_case, G, fields[fname])
    return cases


# ---------------------------------------------------------------------------
# suite 4: splitting-class axioms


def _random_proper_subspaces(V: Rep, rng: random.Random, want: int) -> list[Subspace]:
    out = []
    seen = set()
    for _ in range(40):
        if len(out) >= want:
            break
        v = tuple(rng.randrange(V.field.order) for _ in range(V.dim))
        if all(x == 0 for x in v):
            continue
        S = cyclic_span(V, v)
        if 0 < S.dim < V.dim and S not in seen:
            seen.add(S)
            out.append(S)
    return out


def _add_span_seses(built: list, epics: list[RepMap], V: Rep, rng: random.Random, want: int):
    """Sequences sub -> V -> quotient over random cyclic subspaces; their
    epics feed the composition, pullback and prime-index checks."""
    for S in _random_proper_subspaces(V, rng, want):
        _, incl = subrep_on_subspace(V, S)
        _, proj = quotient_rep(V, S)
        built.append((ShortExactSeq(incl, proj), None))
        epics.append(proj)


def _add_adjoint_seses(built: list, X: Rep, U: Subgroup):
    """The loop and suspension sequences of X over U, each with its
    canonical split witness."""
    _, ses_l = loop_rep(X, U)
    _, ses_t = suspension(X, U)
    built.append((ses_l, partial(counit_section, U, X)))
    built.append((ses_t, partial(suspension_section, U, X, ses_t)))


def _build_sequences(
    G: FinGroup, F: FiniteField, pool: list[Rep], sample_subs: list[Subgroup], rng: random.Random
) -> tuple[list, list[RepMap]]:
    """At least 50 short exact sequences, each with a callable producing a
    split witness over its class (or None), and the epics of the span
    sequences among them."""
    built: list = []
    epics: list[RepMap] = []
    for X in pool:
        for U in sample_subs[:3]:
            _add_adjoint_seses(built, X, U)
    full = Subgroup.full(G)
    for V1, V2 in itertools.combinations(pool[:5], 2):
        both = direct_sum([V1, V2])
        E = np.eye(both.dim, dtype=np.int16)
        incl = RepMap(V1, both, Matrix._of(F, E[:, : V1.dim]))
        proj = RepMap(both, V2, Matrix._of(F, E[V1.dim :]))
        built.append((ShortExactSeq(incl, proj), partial(u_split_search, proj, full, "section")))
    for V1, V2 in itertools.combinations(pool[:4], 2):
        _add_span_seses(built, epics, direct_sum([V1, V2]), rng, 3)
    for V in pool[:4]:
        _add_span_seses(built, epics, direct_sum([V, V]), rng, 2)
        _add_span_seses(built, epics, V, rng, 3)
    # further candidates in a fixed order until 50 are built: span
    # sequences of a sum, or the adjoint sequences of the loop of X over U;
    # a small pool (the trivial group's, or {triv, triv2} of a cyclic group
    # of prime order) needs repeated summands
    steps = itertools.chain(
        (("sum", c) for c in itertools.combinations(pool, 3)),
        (("loop", (X, U)) for X in pool[:3] for U in sample_subs[:3]),
        (("sum", c) for c in itertools.combinations_with_replacement(pool, 3)),
        (("sum", c) for c in itertools.combinations_with_replacement(pool, 4)),
    )
    for kind, args in steps:
        if len(built) >= 50:
            break
        if kind == "sum":
            _add_span_seses(built, epics, direct_sum(list(args)), rng, 4)
            continue
        X, U = args
        Om, _ = loop_rep(X, U)
        if Om.dim:
            _add_adjoint_seses(built, Om, U)
    _ensure(len(built) >= 50, f"only constructed {len(built)} sequences")
    return built, epics


def _certify_splits(built: list) -> int:
    count = 0
    for _, certify in built:
        if certify is not None:
            _ensure(certify() is not None, "constructed sequence does not split over its class")
            count += 1
    return count


def _check_canonical_witnesses(F: FiniteField, pool: list[Rep], sample_subs: list[Subgroup]):
    """The generic search agrees with a canonical witness on a small
    instance, and the identity is always admissible."""
    _, small = loop_rep(pool[0], sample_subs[0])
    _ensure(
        u_split_search(small.right, sample_subs[0], "section") is not None,
        "generic search disagrees with the canonical witness",
    )
    X0 = pool[0]
    ident = RepMap(X0, X0, Matrix.identity(F, X0.dim))
    for U in sample_subs:
        w = u_split_search(ident, U, "section")
        _ensure(
            w == Matrix.identity(F, X0.dim),
            "identity map lost its canonical section",
        )


def _check_compositions(
    epics: list[RepMap], sample_subs: list[Subgroup], rng: random.Random
) -> int:
    """A composition of admissible epics is admissible."""
    count = 0
    for proj1 in epics[:4]:
        W = proj1.target
        for S2 in _random_proper_subspaces(W, rng, 1):
            _, proj2 = quotient_rep(W, S2)
            for U in sample_subs[:2]:
                if u_split_search(proj1, U, "section") is None:
                    continue
                if u_split_search(proj2, U, "section") is None:
                    continue
                comp = proj2 @ proj1
                _ensure(
                    u_split_search(comp, U, "section") is not None,
                    "composite of admissible epics is not admissible",
                )
                count += 1
    return count


def _check_pullbacks(
    F: FiniteField, pool: list[Rep], epics: list[RepMap], sample_subs: list[Subgroup]
) -> int:
    """A pullback of an admissible epic is an admissible epic."""
    count = 0
    for proj1 in epics[:3]:
        W = proj1.target
        for X in pool[:3]:
            hs = hom_space(X, W)
            if hs.dim == 0:
                continue
            h = RepMap(X, W, Matrix._of(F, hs.basis.a[0].reshape(W.dim, X.dim)))
            both = direct_sum([X, proj1.source])
            corner = RepMap(both, W, hstack([h.matrix, (-proj1.matrix)]))
            P, incl = subrep_on_kernel(corner)
            toX = RepMap(P, X, Matrix(F, incl.matrix.a[: X.dim, :]))
            for U in sample_subs[:2]:
                if u_split_search(proj1, U, "section") is None:
                    continue
                _ensure(toX.is_surjective(), "pullback projection is not surjective")
                _ensure(
                    u_split_search(toX, U, "section") is not None,
                    "pullback of an admissible epic lost admissibility",
                )
                count += 1
            break
    return count


def _check_prime_index(F: FiniteField, subs: list[Subgroup], epics: list[RepMap]) -> int:
    """Splitting classes over U' < U agree when the index is prime to p;
    stops after the subgroup U at which six comparisons have run."""
    count = 0
    for U in subs:
        for Up in subs:
            if Up.order >= U.order:
                continue
            if not all(U.contains(m) for m in Up.members):
                continue
            if (U.order // Up.order) % F.p == 0:
                continue
            for f in epics[:3]:
                lo = u_split_search(f, Up, "section")
                hi = u_split_search(f, U, "section")
                _ensure(
                    (lo is None) == (hi is None),
                    "splitting classes differ despite invertible index",
                )
                if lo is not None:
                    averaging_section(lo, f, Up, U)
                count += 1
            if count >= 6:
                break
        if count >= 6:
            break
    return count


def _check_unit_counit(pool: list[Rep], sample_subs: list[Subgroup]) -> int:
    """The unit is injective with a retraction, the counit surjective with
    a section; the witness builders raise when theirs fails."""
    count = 0
    for X in pool[:3]:
        for U in sample_subs[:2]:
            _ensure(adjunction_unit(U, X).is_injective(), "unit is not injective")
            unit_retraction(U, X)
            _ensure(adjunction_counit(U, X).is_surjective(), "counit is not surjective")
            counit_section(U, X)
            count += 1
    return count


def _exact_case(
    G: FinGroup,
    F: FiniteField,
    subs: list[Subgroup],
    sample_subs: list[Subgroup],
    rng: random.Random,
    prime_index_counts: list[int],
) -> dict:
    """One exact-axioms case; its prime-index count joins the suite total
    once that check has passed, even if a later check fails."""
    pool = list(catalog_reps(G, F, 4).values())
    built, epics = _build_sequences(G, F, pool, sample_subs, rng)
    split_certified = _certify_splits(built)
    _check_canonical_witnesses(F, pool, sample_subs)
    compositions = _check_compositions(epics, sample_subs, rng)
    pullbacks = _check_pullbacks(F, pool, epics, sample_subs)
    prime_index = _check_prime_index(F, subs, epics)
    prime_index_counts.append(prime_index)
    witness_pairs = _check_unit_counit(pool, sample_subs)
    return {
        "built": len(built),
        "split_certified": split_certified,
        "compositions": compositions,
        "pullbacks": pullbacks,
        "prime_index_checks": prime_index,
        "witness_pairs": witness_pairs,
    }


def _check_total(total: int, floor: int, key: str, shortfall: str) -> dict:
    """A suite-wide floor on a count summed over the suite's cases."""
    _ensure(total >= floor, f"only {total} {shortfall}")
    return {key: total}


def suite_exact_axioms(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    prime_index_counts: list[int] = []
    for gname in gnames:
        G = groups[gname]
        subs = all_subgroups(G)
        seen_subs = {}
        for S in list(subs[: min(3, len(subs))]) + [Subgroup.full(G)]:
            seen_subs.setdefault(S.members, S)
        sample_subs = list(seen_subs.values())
        for fname in fnames:
            rng = random.Random(f"{seed}:exact:{gname}:{fname}")
            args = (G, fields[fname], subs, sample_subs, rng, prime_index_counts)
            inputs = {"group": gname, "field": fname}
            _run_case(cases, f"exact/{gname}/{fname}", inputs, _exact_case, *args)
    if catalog is None:
        total = sum(prime_index_counts)
        key, shortfall = "prime_index_checks_total", "prime-index comparisons ran"
        _run_case(cases, "exact/zz-prime-index-total", {}, _check_total, total, 50, key, shortfall)
    return cases


# ---------------------------------------------------------------------------
# suite 5: stable structure


def _stable_case(G: FinGroup, F: FiniteField, U: Subgroup) -> dict:
    """The trace criterion for relative projectivity agrees with an
    independent split search on the unit (relative injectivity)."""
    pool = catalog_reps(G, F, 4)
    agree = 0
    full = Subgroup.full(G)
    for P in pool.values():
        fp, _ = relative_projectivity_test(P, U)
        fi = u_split_search(adjunction_unit(U, P), full, "retraction") is not None
        _ensure(fp == fi, f"projective flag {fp} but injective flag {fi}")
        agree += 1
    return {"objects": agree}


def _stable_jordan(G: FinGroup, F: FiniteField, p: int) -> dict:
    """Loop and suspension of Jordan blocks of C_p against their stable
    types, and stable homs of the trivial module."""
    E = Subgroup.trivial(G)
    table = {}
    for i in range(1, p):
        J = jordan_block_rep(G, F, i)
        Om, _ = loop_rep(J, E)
        T, _ = suspension(J, E)
        _ensure(stable_jordan_type(Om) == (p - i,), f"loop of block {i} has wrong stable type")
        _ensure(
            stable_jordan_type(T) == (p - i,),
            f"suspension of block {i} has wrong stable type",
        )
        OmT, _ = loop_rep(T, E)
        _ensure(
            stable_jordan_type(OmT) == (i,),
            f"loop of suspension of block {i} is not the block itself",
        )
        table[str(i)] = {
            "loop_dim": Om.dim,
            "susp_dim": T.dim,
            "stable": list(stable_jordan_type(Om)),
        }
    triv = trivial_rep(G, F, 1)
    res = stable_hom(triv, triv, E)
    _ensure(res.stable_dim == 1, f"stable hom of the trivial pair is {res.stable_dim}, not 1")
    full = stable_hom(triv, triv, Subgroup.full(G))
    _ensure(full.stable_dim == 0, "stable hom over the full group is nonzero")
    reg = regular_rep(G, F)
    res = stable_hom(triv, reg, E)
    _ensure(
        res.stable_dim == 0,
        "maps into a relatively injective object did not all factor",
    )
    return {"blocks": table}


def suite_stable_frobenius(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        for fname in fnames:
            for U in all_subgroups(G):
                cid = f"stable/{gname}/{fname}/{subgroup_id(G, U)}"
                inputs = {"group": gname, "field": fname, "subgroup": list(U.members)}
                _run_case(cases, cid, inputs, _stable_case, G, fields[fname], U)
    for p, fname in ((2, "F2"), (3, "F3"), (5, "F5")):
        gname = f"C{p}"
        if gname not in groups or fname not in fields:
            continue
        inputs = {"group": gname, "field": fname}
        args = (groups[gname], fields[fname], p)
        _run_case(cases, f"stable/jordan/{gname}/{fname}", inputs, _stable_jordan, *args)
    return cases


# ---------------------------------------------------------------------------
# suite 6: central characters


def _primary_parts(G: FinGroup, p: int) -> tuple[Subgroup, Subgroup]:
    """The p-elements K and the p'-elements C of an abelian group."""
    parts = [p_part(G.element_order(x), p) for x in G.elements()]
    K = Subgroup(G, [x for x, (_, m) in enumerate(parts) if m == 1])
    C = Subgroup(G, [x for x, (e, _) in enumerate(parts) if e == 0])
    return K, C


def _check_projectors(pool: dict[str, Rep], C: Subgroup, chars: list) -> int:
    """Each eigenspace has a projector onto it, and with a full dual the
    eigenspaces exhaust V."""
    count = 0
    for V in pool.values():
        dims = 0
        for chi in chars:
            space, P = character_eigenspace(V, C, chi)
            _ensure(P is not None, "projector unavailable for p'-order center")
            _ensure(column_space(P) == space, "projector image mismatch")
            B = space.basis
            _ensure(B @ P.transpose() == B, "projector not identity on eigenspace")
            dims += space.dim
            count += 1
        if len(chars) == C.order:
            _ensure(
                dims == V.dim,
                "eigenspaces do not exhaust the space despite a full dual",
            )
    return count


def _check_surjections(
    F: FiniteField, pool: dict[str, Rep], C: Subgroup, chars: list, rng: random.Random
) -> int:
    """Random equivariant surjections stay surjective on each eigenspace;
    stops after four."""
    count = 0
    reps = list(pool.values())
    for V1 in reps:
        for V2 in reps:
            if V2.dim > V1.dim or V2.dim == 0:
                continue
            hs = hom_space(V1, V2)
            gamma = None
            for _ in range(20):
                coeffs = [rng.randrange(F.order) for _ in range(hs.dim)]
                acc = F.ax_matmul(np.array([coeffs], dtype=np.int16), hs.basis.a)
                acc = Matrix._of(F, acc.reshape(V2.dim, V1.dim))
                if acc.rank() == V2.dim:
                    gamma = RepMap(V1, V2, acc)
                    break
            if gamma is None:
                continue
            for chi in chars:
                s1, _ = character_eigenspace(V1, C, chi)
                s2, _ = character_eigenspace(V2, C, chi)
                image = s1.basis @ gamma.matrix.transpose()
                _ensure(
                    Subspace.from_rows(F, V2.dim, image) == s2,
                    "surjection failed to stay surjective on an eigenspace",
                )
            count += 1
            if count >= 4:
                break
        if count >= 4:
            break
    return count


def _check_central_extensions(
    G: FinGroup, F: FiniteField, K: Subgroup, C: Subgroup, chars: list
) -> int:
    """Extending a rep of K by a central character, then restricting back,
    gives K's action and the character on C."""
    count = 0
    if C.order * K.order != G.order:
        return count
    KC = K.join(C)
    on_K = [KC.local(k) for k in K.members]
    on_C = [KC.local(c) for c in C.members]
    overlap = [K.local(z) for z in C.intersect(K).members]
    for V in list(catalog_reps(K.as_group(), F, 2).values())[:3]:
        I = np.eye(V.dim, dtype=np.int16)
        if not (V.T[overlap] == I).all():
            continue
        for chi in chars:
            W = extend_by_central_character(V, K, C, chi)
            _ensure(
                np.array_equal(W.T[on_K], V.T),
                "restriction back to K changed the action",
            )
            _ensure(
                np.array_equal(W.T[on_C], np.array(chi.values)[:, None, None] * I),
                "central part does not act by the character",
            )
            count += 1
    return count


def _check_qualifying_sets(G: FinGroup, F: FiniteField, C: Subgroup, pool: dict[str, Rep]) -> int:
    """Qualifying sets with a central subgroup are the plain ones that obey
    the index bound; counts the vectors checked."""
    count = 0
    for vname in ("triv", "triv2"):
        V = pool[vname]
        for v in nonzero_vectors(F, V.dim)[:8]:
            got = qualifying_subgroups(V, v, C)
            plain = qualifying_subgroups(V, v)
            _ensure(
                set(s.members for s in got) <= set(s.members for s in plain),
                "central qualifying set is not a subset of the plain one",
            )
            d = cyclic_span_dim(V, v)
            fixed_by = V.orbit(v) == np.array(v)
            for U in all_subgroups(G):
                expected = (
                    bool(fixed_by[list(U.generators())].all())
                    and G.order // U.join(C).order > d
                )
                _ensure(
                    (U in got) == expected,
                    "qualifying set disagrees with the index bound",
                )
            count += 1
    return count


def _chi_case(
    G: FinGroup,
    F: FiniteField,
    K: Subgroup,
    C: Subgroup,
    rng: random.Random,
    surjection_counts: list[int],
) -> dict:
    """One chi-functor case; its surjection count joins the suite total
    once that check has passed, even if a later check fails."""
    chars = characters_of(C, F)
    pool = catalog_reps(G, F, 3)
    projector_checks = _check_projectors(pool, C, chars)
    surjections = _check_surjections(F, pool, C, chars, rng)
    surjection_counts.append(surjections)
    extensions = _check_central_extensions(G, F, K, C, chars)
    omega_vectors = _check_qualifying_sets(G, F, C, pool)
    return {
        "characters": len(chars),
        "projector_checks": projector_checks,
        "surjections": surjections,
        "extensions": extensions,
        "omega_vectors": omega_vectors,
    }


def _check_regular_eigenspaces(G: FinGroup, F: FiniteField) -> dict:
    """The regular rep of C3 over F4 splits into three one-dimensional
    eigenspaces with idempotent projectors."""
    C = Subgroup.full(G)
    reg = regular_rep(G, F)
    chars = characters_of(C, F)
    _ensure(len(chars) == 3, "cube roots of unity missing over four elements")
    for chi in chars:
        space, P = character_eigenspace(reg, C, chi)
        _ensure(space.dim == 1, f"eigenspace dim {space.dim} != 1")
        _ensure(P is not None and P @ P == P, "projector defect")
    return {"eigenspaces": [1, 1, 1]}


def suite_chi_functor(seed: int, catalog) -> list[Case]:
    groups, fields, gnames, fnames = _grid(
        catalog, default_groups=("C2", "C3", "C4", "C5", "C6", "C9", "V4")
    )
    cases: list[Case] = []
    surjection_counts: list[int] = []
    for gname in gnames:
        G = groups[gname]
        if not G.is_abelian():
            continue
        for fname in fnames:
            F = fields[fname]
            K, C = _primary_parts(G, F.p)
            if C.order == 1:
                continue
            rng = random.Random(f"{seed}:chi:{gname}:{fname}")
            args = (G, F, K, C, rng, surjection_counts)
            inputs = {"group": gname, "field": fname, "center_part": list(C.members)}
            _run_case(cases, f"chi/{gname}/{fname}", inputs, _chi_case, *args)
    if "C3" in groups and "F4" in fields:
        args = (groups["C3"], fields["F4"])
        _run_case(cases, "chi/zz-regular-eigenspaces", {}, _check_regular_eigenspaces, *args)
    if catalog is None:
        total = sum(surjection_counts)
        key, shortfall = "surjections_total", "surjections sampled"
        _run_case(cases, "chi/zz-surjection-total", {}, _check_total, total, 20, key, shortfall)
    return cases


# ---------------------------------------------------------------------------

SUITES = {
    "frobenius": suite_frobenius,
    "phi-machinery": suite_phi_machinery,
    "higman": suite_higman,
    "exact-axioms": suite_exact_axioms,
    "stable-frobenius": suite_stable_frobenius,
    "chi-functor": suite_chi_functor,
}


def run_suite(name: str, seed: int = 0, catalog=None) -> dict:
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return make_report(name, seed, fn(seed, catalog))
