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
    cover_vectors,
    extend_by_central_character,
    fixed_cover_subspace,
    induced_trivial,
    module_covers,
    nonzero_vectors,
    qualifying_subgroups,
)
from .exact import (
    adjunction_counit,
    adjunction_unit,
    averaging_section,
    counit_section,
    loop_rep,
    projectivity_flags,
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
from .jordan import cyclic_generator, jordan_block_rep, jordan_type, stable_jordan_type
from .linalg import Matrix, Subspace, column_space, hstack
from .reps import (
    Rep,
    RepMap,
    ShortExactSeq,
    characters_of,
    cyclic_span,
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


class _CheckFail(AssertionError):
    pass


def _ensure(cond: bool, msg: str):
    if not cond:
        raise _CheckFail(msg)


def _where(exc: Exception) -> str:
    """module:function of the innermost modplab frame that exc passed
    through, _ensure aside; no line number, so reruns stay byte-identical."""
    where, tb = "", exc.__traceback__
    while tb is not None:
        module, code = tb.tb_frame.f_globals.get("__name__", ""), tb.tb_frame.f_code
        if module.startswith("modplab.") and code is not _ensure.__code__:
            where = f"{module.removeprefix('modplab.')}:{code.co_name}"
        tb = tb.tb_next
    return where


def _error_case(cid: str, inputs: dict, exc: Exception) -> Case:
    details = {"exception": f"{type(exc).__name__}: {exc}", "where": _where(exc)}
    return Case(cid, inputs, "error", details)


def _run_case(cases: list[Case], cid: str, inputs: dict, fn, *args):
    try:
        details = fn(*args) or {}
        cases.append(Case(cid, inputs, "pass", details))
    except _CheckFail as exc:
        cases.append(Case(cid, inputs, "fail", {"reason": str(exc), "where": _where(exc)}))
    except Exception as exc:  # pragma: no cover - defensive
        cases.append(_error_case(cid, inputs, exc))


def _value_or_error(cases: list[Case], cid: str, inputs: dict, fn, *args):
    """fn(*args), or None after adding an error case for what it raised:
    an input that several cases share fails once, as one case."""
    try:
        return fn(*args)
    except Exception as exc:
        cases.append(_error_case(cid, inputs, exc))
        return None


def _pairs(catalog, default_groups=FROBENIUS_GROUPS, default_fields=STANDARD_FIELDS):
    """(group name, group, field name, field) for each pair a suite runs
    on: the named defaults of the built-in catalog (None), or every pair of
    a loaded one, names sorted."""
    if catalog is None:
        groups, fields = catalog_groups(), catalog_fields()
        gnames, fnames = default_groups, default_fields
    else:
        groups, fields = catalog["groups"], catalog["fields"]
        gnames, fnames = sorted(groups), sorted(fields)
    return [(g, groups[g], f, fields[f]) for g in gnames for f in fnames]


def _subgroup_cases(cases: list[Case], prefix: str, catalog, fn):
    """One case fn(G, F, U) for each subgroup U of each pair's group; a
    group whose subgroups cannot be listed gives one error case instead."""
    for gname, G, fname, F in _pairs(catalog):
        inputs = {"group": gname, "field": fname}
        cid = f"{prefix}/{gname}/{fname}/subgroups"
        for U in _value_or_error(cases, cid, inputs, all_subgroups, G) or ():
            cid = f"{prefix}/{gname}/{fname}/{subgroup_id(U)}"
            inputs = {"group": gname, "field": fname, "subgroup": list(U.members)}
            _run_case(cases, cid, inputs, fn, G, F, U)


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
    cases: list[Case] = []
    _subgroup_cases(cases, "frobenius", catalog, _frobenius_case)
    return cases


# ---------------------------------------------------------------------------
# suite 2: phi machinery on p-groups


def _expect_uncoverable(K: FinGroup, field: FiniteField, V: Rep) -> bool:
    # a cover exists unless V has a free direct summand, which at these
    # dimensions can only happen for a cyclic group no bigger than dim V
    if K.order > V.dim or cyclic_generator(K, field.p) is None:
        return False
    return K.order in jordan_type(V)


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
    covers = module_covers(V, nonzero_vectors(F, V.dim))
    anchored = 0
    for U, vecs, stack in covers.stacks:
        for m in stack:
            _ensure(Matrix._of(F, m).rank() < U.index, "qualifying subgroup produced an injective cover map")
        anchor = lower_drop(U, trivial_rep(U.as_group(), F), stack)
        _ensure(np.array_equal(anchor[:, :, 0], vecs), "indicator of the trivial coset missed its vector")
        anchored += len(vecs)
    expect_fail = _expect_uncoverable(K, F, V)
    try:
        asm = assemble_cover(covers, cover_vectors(V))
    except CoverageError:
        _ensure(expect_fail, "coverage failed although no free summand is present")
        return {"anchored": anchored, "cover": "uncoverable-as-classified"}
    _ensure(not expect_fail, "free summand present but coverage unexpectedly succeeded")
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
    cases: list[Case] = []
    for gname, K, fname, F in _pairs(catalog):
        if K.order == 1 or p_part(K.order, F.p)[1] != 1:
            continue
        inputs = {"group": gname, "field": fname}
        _run_case(cases, f"phi/{gname}/{fname}/constants", inputs, _phi_constants, K, F)
        pool = _value_or_error(cases, f"phi/{gname}/{fname}/reps", inputs, catalog_reps, K, F, 3)
        for vname, V in (pool or {}).items():
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
    cases: list[Case] = []
    for gname, G, fname, F in _pairs(catalog):
        inputs = {"group": gname, "field": fname}
        _run_case(cases, f"higman/{gname}/{fname}", inputs, _higman_case, G, F)
    return cases


# ---------------------------------------------------------------------------
# suite 4: splitting-class axioms


def _random_proper_subspaces(V: Rep, rng: random.Random, want: int) -> list[Subspace]:
    out = []
    seen = set()
    drawn = set()
    for _ in range(40):
        if len(out) >= want:
            break
        v = tuple(rng.randrange(V.field.order) for _ in range(V.dim))
        # a vector drawn before spans a subspace already seen or not proper
        if v in drawn or all(x == 0 for x in v):
            continue
        drawn.add(v)
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
    G: FinGroup, F: FiniteField, rng: random.Random, prime_index_counts: list[int]
) -> dict:
    """One exact-axioms case; its prime-index count joins the suite total
    once that check has passed, even if a later check fails.  The samples
    are the first three subgroups and the whole group."""
    subs = all_subgroups(G)
    sample_subs = list({S.members: S for S in [*subs[:3], Subgroup.full(G)]}.values())
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
    cases: list[Case] = []
    prime_index_counts: list[int] = []
    for gname, G, fname, F in _pairs(catalog):
        rng = random.Random(f"{seed}:exact:{gname}:{fname}")
        inputs = {"group": gname, "field": fname}
        args = (G, F, rng, prime_index_counts)
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
    for P in pool.values():
        fp, fi = projectivity_flags(P, U)
        _ensure(fp == fi, f"projective flag {fp} but injective flag {fi}")
        agree += 1
    return {"objects": agree}


def _stable_jordan(G: FinGroup, F: FiniteField) -> dict:
    """Loop and suspension of Jordan blocks of C_p, p = F.p, against their
    stable types, and stable homs of the trivial module."""
    p = F.p
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
    cases: list[Case] = []
    _subgroup_cases(cases, "stable", catalog, _stable_case)
    jordan = {("C2", "F2"), ("C3", "F3"), ("C5", "F5")}
    for gname, G, fname, F in _pairs(catalog, ("C2", "C3", "C5"), ("F2", "F3", "F5")):
        if (gname, fname) in jordan:
            inputs = {"group": gname, "field": fname}
            _run_case(cases, f"stable/jordan/{gname}/{fname}", inputs, _stable_jordan, G, F)
    return cases


# ---------------------------------------------------------------------------
# suite 6: central characters


def _primary_parts(G: FinGroup, p: int) -> tuple[Subgroup, Subgroup]:
    """The p-elements K and the p'-elements C of an abelian group."""
    parts = [p_part(G.element_order(x), p) for x in G.elements()]
    K = Subgroup(G, [x for x, (_, m) in enumerate(parts) if m == 1])
    C = Subgroup(G, [x for x, (e, _) in enumerate(parts) if e == 0])
    return K, C


def _check_projectors(pool: dict[str, Rep], C: Subgroup, chars: list, images: dict) -> dict:
    """Each eigenspace has a projector onto it, and with a full dual the
    eigenspaces exhaust V.  Returns each eigenspace by (rep name,
    character index).  images maps a projector, by its field and codes, to
    its column space; the cases of one suite run share it, so each distinct
    projector is reduced once."""
    spaces = {}
    for name, V in pool.items():
        dims = 0
        for j, chi in enumerate(chars):
            space, P = character_eigenspace(V, C, chi)
            _ensure(P is not None, "projector unavailable for p'-order center")
            key = (P.field.key(), P.a.shape, P.a.tobytes())
            if key not in images:
                images[key] = column_space(P)
            _ensure(images[key] == space, "projector image mismatch")
            B = space.basis
            _ensure(B @ P.transpose() == B, "projector not identity on eigenspace")
            dims += space.dim
            spaces[name, j] = space
        if len(chars) == C.order:
            _ensure(
                dims == V.dim,
                "eigenspaces do not exhaust the space despite a full dual",
            )
    return spaces


def _check_surjections(
    F: FiniteField, pool: dict[str, Rep], spaces: dict, chars: list, rng: random.Random
) -> int:
    """Random equivariant surjections stay surjective on each eigenspace
    (spaces from _check_projectors); stops after four."""
    count = 0
    for n1, V1 in pool.items():
        for n2, V2 in pool.items():
            if V2.dim > V1.dim or V2.dim == 0:
                continue
            hs = hom_space(V1, V2)
            if not hs.dim:
                continue  # only the zero map, never surjective; no draw
            gamma = None
            failed = set()
            for _ in range(20):
                coeffs = [rng.randrange(F.order) for _ in range(hs.dim)]
                acc = F.ax_matmul(np.array([coeffs], dtype=np.int16), hs.basis.a)
                key = acc.tobytes()
                if key in failed:
                    continue
                acc = Matrix._of(F, acc.reshape(V2.dim, V1.dim))
                if acc.rank() == V2.dim:
                    gamma = RepMap(V1, V2, acc)
                    break
                failed.add(key)
            if gamma is None:
                continue
            for j in range(len(chars)):
                image = spaces[n1, j].basis @ gamma.matrix.transpose()
                _ensure(
                    Subspace.from_rows(F, V2.dim, image) == spaces[n2, j],
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
        if not (V.on(overlap) == I).all():
            continue
        for chi in chars:
            W = extend_by_central_character(V, K, C, chi)
            _ensure(
                np.array_equal(W.on(on_K), V.T),
                "restriction back to K changed the action",
            )
            _ensure(
                np.array_equal(W.on(on_C), np.array(chi.values)[:, None, None] * I),
                "central part does not act by the character",
            )
            count += 1
    return count


def _check_qualifying_sets(G: FinGroup, F: FiniteField, C: Subgroup, pool: dict[str, Rep]) -> int:
    """Every subgroup fixes a nonzero vector v of the trivial modules triv
    and triv2, and v spans a line, so U qualifies with the central C
    exactly when U joined with C is a proper subgroup; counts the vectors
    checked."""
    expected = [U.members for U in all_subgroups(G) if U.join(C).order < G.order]
    count = 0
    for vname in ("triv", "triv2"):
        V = pool[vname]
        for v in nonzero_vectors(F, V.dim)[:8]:
            got = [U.members for U in qualifying_subgroups(V, v, C)]
            _ensure(got == expected, "qualifying set disagrees with the index bound")
            count += 1
    return count


def _chi_case(
    G: FinGroup,
    F: FiniteField,
    K: Subgroup,
    C: Subgroup,
    rng: random.Random,
    surjection_counts: list[int],
    images: dict,
) -> dict:
    """One chi-functor case; its surjection count joins the suite total
    once that check has passed, even if a later check fails.  images is
    _check_projectors' map of projector column spaces."""
    chars = characters_of(C, F)
    pool = catalog_reps(G, F, 3)
    spaces = _check_projectors(pool, C, chars, images)
    surjections = _check_surjections(F, pool, spaces, chars, rng)
    surjection_counts.append(surjections)
    extensions = _check_central_extensions(G, F, K, C, chars)
    omega_vectors = _check_qualifying_sets(G, F, C, pool)
    return {
        "characters": len(chars),
        "projector_checks": len(spaces),
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
    cases: list[Case] = []
    surjection_counts: list[int] = []
    images: dict = {}
    for gname, G, fname, F in _pairs(catalog, ("C2", "C3", "C4", "C5", "C6", "C9", "V4")):
        if not G.is_abelian():
            continue
        K, C = _primary_parts(G, F.p)
        if C.order == 1:
            continue
        rng = random.Random(f"{seed}:chi:{gname}:{fname}")
        args = (G, F, K, C, rng, surjection_counts, images)
        inputs = {"group": gname, "field": fname, "center_part": list(C.members)}
        _run_case(cases, f"chi/{gname}/{fname}", inputs, _chi_case, *args)
    for gname, G, fname, F in _pairs(catalog, ("C3",), ("F4",)):
        if (gname, fname) == ("C3", "F4"):
            _run_case(cases, "chi/zz-regular-eigenspaces", {}, _check_regular_eigenspaces, G, F)
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
    if isinstance(catalog, str):
        catalog = load_catalog(catalog)
    return make_report(name, seed, fn(seed, catalog))
