"""Named verification suites over the built-in catalog.

Each suite returns a list of report cases; run_suite wraps them in a
deterministic report.  Suites use a seeded generator only for choosing
sample vectors and map coefficients; every iteration order is fixed.

suites:
  frobenius        adjunction dimension counts and round-trip transports
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
    qualifying_subgroups,
    transport_stack,
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
from .groups import FinGroup, Subgroup, all_subgroups, coset_lookup
from .jordan import jordan_block_rep, jordan_type, stable_jordan_type
from .linalg import Matrix, Subspace, hstack, row_reduce
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
    regular_rep,
    restrict,
    trivial_rep,
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


def _run_case(cases: list[Case], cid: str, inputs: dict, fn):
    try:
        details = fn() or {}
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


def _grid(catalog, default_groups=FROBENIUS_GROUPS, default_fields=STANDARD_FIELDS):
    """Group/field name lists a suite iterates over: the defaults for the
    built-in catalog, everything (sorted) for a user-supplied one."""
    groups, fields = _resolve_catalog(catalog)
    if catalog is None:
        return groups, fields, list(default_groups), list(default_fields)
    return groups, fields, sorted(groups), sorted(fields)


def _nonzero_vectors(field: FiniteField, dim: int) -> list[tuple]:
    return [
        v
        for v in itertools.product(range(field.order), repeat=dim)
        if any(x != 0 for x in v)
    ]


# ---------------------------------------------------------------------------
# suite 1: frobenius reciprocity


def suite_frobenius(seed: int, catalog=None) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        for fname in fnames:
            F = fields[fname]
            for U in all_subgroups(G):
                uid = subgroup_id(G, U)

                def check(U=U, G=G, F=F):
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
                            # each basis moves across as one stack and back
                            for flavor, space, src, dst in (
                                ("lower", lower_u, W, down),
                                ("upper", upper_u, down, W),
                            ):
                                k = space.dim
                                if not k:
                                    continue
                                X = space.basis.a.reshape(k, dst.dim, src.dim)
                                _ensure(
                                    intertwines(src, dst, X),
                                    f"{flavor} hom basis is not equivariant",
                                )
                                moved, s2, t2 = transport_stack(U, W, V, flavor, X, src, dst, ind)
                                back, _, _ = transport_stack(U, W, V, flavor, moved, s2, t2, ind)
                                _ensure(np.array_equal(back, X), f"{flavor} round trip broke")
                                trips += k
                            pairs += 1
                    return {"pairs": pairs, "round_trips": trips}

                _run_case(
                    cases,
                    f"frobenius/{gname}/{fname}/{uid}",
                    {"group": gname, "field": fname, "subgroup": list(U.members)},
                    check,
                )
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


def suite_phi_machinery(seed: int, catalog=None) -> list[Case]:
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

        def check_constants(K=K, F=F):
            count = 0
            for U in all_subgroups(K):
                S = induced_trivial(U, F)
                fp = fixed_points(S)
                ones = Subspace.from_rows(F, S.dim, [[1] * S.dim])
                _ensure(fp.dim == 1, f"fixed dim {fp.dim} != 1 at {U!r}")
                _ensure(fp == ones, "fixed points are not the constants")
                count += 1
            return {"subgroups": count}

        inputs = {"group": gname, "field": fname}
        _run_case(cases, f"phi/{gname}/{fname}/constants", inputs, check_constants)
        try:
            pool = catalog_reps(K, F, 3)
        except Exception as exc:
            cases.append(_error_case(f"phi/{gname}/{fname}/reps", inputs, exc))
            continue
        for vname, V in pool.items():

            def check_rep(K=K, F=F, V=V):
                _ensure(fixed_points(V).dim >= 1, "nonzero rep with zero fixed space")
                vectors = _nonzero_vectors(F, V.dim)
                anchored = 0
                for v in vectors:
                    for U in qualifying_subgroups(V, v):
                        ind = induced_trivial(U, F)
                        phi = cover_map(U, V, v, ind)
                        _ensure(
                            phi.kernel().dim > 0,
                            "qualifying subgroup produced an injective cover map",
                        )
                        _, pos = coset_lookup(K, U)
                        i0 = pos[K.identity]
                        _ensure(
                            phi.matrix.col(i0) == v,
                            "indicator of the trivial coset missed its vector",
                        )
                        anchored += 1
                expect_fail = _expect_uncoverable(K, F, V)
                try:
                    asm = assemble_cover(V)
                except CoverageError:
                    _ensure(
                        expect_fail,
                        "coverage failed although no free summand is present",
                    )
                    return {"anchored": anchored, "cover": "uncoverable-as-classified"}
                _ensure(
                    not expect_fail,
                    "free summand present but coverage unexpectedly succeeded",
                )
                _ensure(asm.onto.rank() == V.dim, "assembled map is not surjective")
                sk = fixed_cover_subspace(asm)
                for i in range(sk.dim):
                    image = asm.onto.matrix.apply(sk.basis.row(i))
                    _ensure(
                        all(x == 0 for x in image),
                        "assembled map does not vanish on the fixed subspace",
                    )
                if asm.source.dim <= 40:
                    _ensure(
                        fixed_points(asm.source) == sk,
                        "blockwise fixed subspace mismatch",
                    )
                return {
                    "anchored": anchored,
                    "blocks": len(asm.blocks),
                    "source_dim": asm.source.dim,
                }

            _run_case(
                cases,
                f"phi/{gname}/{fname}/{vname}",
                {"group": gname, "field": fname, "rep": vname},
                check_rep,
            )
    return cases


# ---------------------------------------------------------------------------
# suite 3: projectivity of induced modules (and its failure)


def suite_higman(seed: int, catalog=None) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        triv_sub = Subgroup.trivial(G)
        for fname in fnames:
            F = fields[fname]

            def check(G=G, F=F, triv_sub=triv_sub):
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

            _run_case(
                cases,
                f"higman/{gname}/{fname}",
                {"group": gname, "field": fname},
                check,
            )
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


def suite_exact_axioms(seed: int, catalog=None) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    rem61_total = 0
    for gname in gnames:
        G = groups[gname]
        subs = all_subgroups(G)
        for fname in fnames:
            F = fields[fname]
            rng = random.Random(f"{seed}:exact:{gname}:{fname}")
            seen_subs = {}
            for S in list(subs[: min(3, len(subs))]) + [Subgroup.full(G)]:
                seen_subs.setdefault(S.members, S)
            sample_subs = list(seen_subs.values())

            def check(G=G, F=F, rng=rng, sample_subs=sample_subs, subs=subs):
                nonlocal rem61_total
                pool = list(catalog_reps(G, F, 4).values())
                built = []  # (ses, callable producing a split witness, or None)
                quotient_epics = []

                def add_span_seses(V, want):
                    for S in _random_proper_subspaces(V, rng, want):
                        sub, incl = subrep_on_subspace(V, S)
                        quo, proj = quotient_rep(V, S)
                        built.append((ShortExactSeq(incl, proj), None))
                        quotient_epics.append(proj)

                def add_adjoint_seses(X, U):
                    _, ses_l = loop_rep(X, U)
                    _, ses_t = suspension(X, U)
                    built.append((ses_l, lambda U=U, X=X: counit_section(U, X)))
                    built.append(
                        (ses_t, lambda U=U, X=X, s=ses_t: suspension_section(U, X, s))
                    )

                for X in pool:
                    for U in sample_subs[:3]:
                        add_adjoint_seses(X, U)
                for V1, V2 in itertools.combinations(pool[:5], 2):
                    both = direct_sum([V1, V2])
                    E = np.eye(both.dim, dtype=np.int16)
                    incl = RepMap(V1, both, Matrix._of(F, E[:, : V1.dim]))
                    proj = RepMap(both, V2, Matrix._of(F, E[V1.dim :]))
                    full = Subgroup.full(G)
                    built.append(
                        (
                            ShortExactSeq(incl, proj),
                            lambda proj=proj, full=full: u_split_search(
                                proj, full, "section"
                            ),
                        )
                    )
                for V1, V2 in itertools.combinations(pool[:4], 2):
                    add_span_seses(direct_sum([V1, V2]), 3)
                for V in pool[:4]:
                    add_span_seses(direct_sum([V, V]), 2)
                    add_span_seses(V, 3)

                def add_sum_seses(combo):
                    add_span_seses(direct_sum(list(combo)), 4)

                def add_loop_seses(X, U):
                    Om, _ = loop_rep(X, U)
                    if Om.dim:
                        add_adjoint_seses(Om, U)

                # further candidates in a fixed order until 50 are built; a
                # small pool (the trivial group's, or {triv, triv2} of a
                # cyclic group of prime order) needs repeated summands
                steps = itertools.chain(
                    ((add_sum_seses, c) for c in itertools.combinations(pool, 3)),
                    ((add_loop_seses, X, U) for X in pool[:3] for U in sample_subs[:3]),
                    ((add_sum_seses, c) for c in itertools.combinations_with_replacement(pool, 3)),
                    ((add_sum_seses, c) for c in itertools.combinations_with_replacement(pool, 4)),
                )
                for step, *args in steps:
                    if len(built) >= 50:
                        break
                    step(*args)
                _ensure(len(built) >= 50, f"only constructed {len(built)} sequences")
                splits_checked = 0
                for ses, certify in built:
                    if certify is not None:
                        _ensure(
                            certify() is not None,
                            "constructed sequence does not split over its class",
                        )
                        splits_checked += 1
                # the generic search agrees with a canonical witness on a
                # small instance
                _, small = loop_rep(pool[0], sample_subs[0])
                _ensure(
                    u_split_search(small.right, sample_subs[0], "section") is not None,
                    "generic search disagrees with the canonical witness",
                )
                # identity is always admissible
                X0 = pool[0]
                ident = RepMap(X0, X0, Matrix.identity(F, X0.dim))
                for U in sample_subs:
                    w = u_split_search(ident, U, "section")
                    _ensure(
                        w is not None and w.map == Matrix.identity(F, X0.dim),
                        "identity map lost its canonical section",
                    )
                # composition of admissible epics is admissible
                compositions = 0
                for proj1 in quotient_epics[:4]:
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
                            compositions += 1
                # pullback of an admissible epic is an admissible epic
                pullbacks = 0
                for proj1 in quotient_epics[:3]:
                    W = proj1.target
                    for X in pool[:3]:
                        hs = hom_space(X, W)
                        if hs.dim == 0:
                            continue
                        h = RepMap(X, W, Matrix._of(F, hs.basis.a[0].reshape(W.dim, X.dim)))
                        both = direct_sum([X, proj1.source])
                        corner = RepMap(
                            both,
                            W,
                            hstack([h.matrix, (-proj1.matrix)]),
                            validate=True,
                        )
                        P, incl = subrep_on_kernel(corner)
                        toX = RepMap(P, X, Matrix(F, incl.matrix.a[: X.dim, :]))
                        for U in sample_subs[:2]:
                            if u_split_search(proj1, U, "section") is None:
                                continue
                            _ensure(
                                toX.is_surjective(),
                                "pullback projection is not surjective",
                            )
                            _ensure(
                                u_split_search(toX, U, "section") is not None,
                                "pullback of an admissible epic lost admissibility",
                            )
                            pullbacks += 1
                        break
                # equal splitting classes when the index is prime to p
                rem61 = 0
                for U in subs:
                    for Up in subs:
                        if Up.order >= U.order:
                            continue
                        if not all(U.contains(m) for m in Up.members):
                            continue
                        if (U.order // Up.order) % F.p == 0:
                            continue
                        for f in quotient_epics[:3]:
                            lo = u_split_search(f, Up, "section")
                            hi = u_split_search(f, U, "section")
                            _ensure(
                                (lo is None) == (hi is None),
                                "splitting classes differ despite invertible index",
                            )
                            if lo is not None:
                                averaging_section(lo.map, f, Up, U)
                            rem61 += 1
                        if rem61 >= 6:
                            break
                    if rem61 >= 6:
                        break
                rem61_total += rem61
                # explicit unit/counit witnesses
                ab = 0
                for X in pool[:3]:
                    for U in sample_subs[:2]:
                        A = adjunction_unit(U, X)
                        _ensure(A.is_injective(), "unit is not injective")
                        unit_retraction(U, X)  # raises if the retraction fails
                        B = adjunction_counit(U, X)
                        _ensure(B.is_surjective(), "counit is not surjective")
                        counit_section(U, X)
                        ab += 1
                return {
                    "built": len(built),
                    "split_certified": splits_checked,
                    "compositions": compositions,
                    "pullbacks": pullbacks,
                    "prime_index_checks": rem61,
                    "witness_pairs": ab,
                }

            _run_case(
                cases,
                f"exact/{gname}/{fname}",
                {"group": gname, "field": fname},
                check,
            )

    if catalog is None:

        def check_total():
            _ensure(rem61_total >= 50, f"only {rem61_total} prime-index comparisons ran")
            return {"prime_index_checks_total": rem61_total}

        _run_case(cases, "exact/zz-prime-index-total", {}, check_total)
    return cases


# ---------------------------------------------------------------------------
# suite 5: stable structure


def suite_stable_frobenius(seed: int, catalog=None) -> list[Case]:
    groups, fields, gnames, fnames = _grid(catalog)
    cases: list[Case] = []
    for gname in gnames:
        G = groups[gname]
        for fname in fnames:
            F = fields[fname]
            for U in all_subgroups(G):
                uid = subgroup_id(G, U)

                def check(G=G, F=F, U=U):
                    pool = catalog_reps(G, F, 4)
                    agree = 0
                    full = Subgroup.full(G)
                    for P in pool.values():
                        # the trace criterion against an independent split
                        # search on the unit
                        fp, _ = relative_projectivity_test(P, U)
                        fi = (
                            u_split_search(adjunction_unit(U, P), full, "retraction")
                            is not None
                        )
                        _ensure(
                            fp == fi,
                            f"projective flag {fp} but injective flag {fi}",
                        )
                        agree += 1
                    return {"objects": agree}

                _run_case(
                    cases,
                    f"stable/{gname}/{fname}/{uid}",
                    {"group": gname, "field": fname, "subgroup": list(U.members)},
                    check,
                )
    for p, fname in ((2, "F2"), (3, "F3"), (5, "F5")):
        gname = f"C{p}"
        if gname not in groups or fname not in fields:
            continue
        G = groups[gname]
        F = fields[fname]
        E = Subgroup.trivial(G)

        def check_jordan(G=G, F=F, E=E, p=p):
            table = {}
            for i in range(1, p):
                J = jordan_block_rep(G, F, i)
                Om, _ = loop_rep(J, E)
                T, _ = suspension(J, E)
                _ensure(
                    stable_jordan_type(Om) == (p - i,),
                    f"loop of block {i} has wrong stable type",
                )
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
            _ensure(
                res.stable_dim == 1,
                f"stable hom of the trivial pair is {res.stable_dim}, not 1",
            )
            full = stable_hom(triv, triv, Subgroup.full(G))
            _ensure(full.stable_dim == 0, "stable hom over the full group is nonzero")
            reg = regular_rep(G, F)
            res = stable_hom(triv, reg, E)
            _ensure(
                res.stable_dim == 0,
                "maps into a relatively injective object did not all factor",
            )
            return {"blocks": table}

        _run_case(
            cases,
            f"stable/jordan/{gname}/{fname}",
            {"group": gname, "field": fname},
            check_jordan,
        )
    return cases


# ---------------------------------------------------------------------------
# suite 6: central characters


def _primary_parts(G: FinGroup, p: int) -> tuple[Subgroup, Subgroup]:
    """The p-elements K and the p'-elements C of an abelian group."""
    parts = [p_part(G.element_order(x), p) for x in G.elements()]
    K = Subgroup(G, [x for x, (_, m) in enumerate(parts) if m == 1])
    C = Subgroup(G, [x for x, (e, _) in enumerate(parts) if e == 0])
    return K, C


def suite_chi_functor(seed: int, catalog=None) -> list[Case]:
    groups, fields, gnames, fnames = _grid(
        catalog, default_groups=("C2", "C3", "C4", "C5", "C6", "C9", "V4")
    )
    cases: list[Case] = []
    surjection_total = 0
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

            def check(G=G, F=F, K=K, C=C, rng=rng, gname=gname):
                nonlocal surjection_total
                chars = characters_of(C, F)
                pool = catalog_reps(G, F, 3)
                projector_checks = 0
                for V in pool.values():
                    dims = 0
                    for chi in chars:
                        space, P = character_eigenspace(V, C, chi)
                        _ensure(P is not None, "projector unavailable for p'-order center")
                        _ensure(row_reduce(P).image == space, "projector image mismatch")
                        for i in range(space.dim):
                            b = space.basis.row(i)
                            _ensure(P.apply(b) == b, "projector not identity on eigenspace")
                        dims += space.dim
                        projector_checks += 1
                    if len(chars) == C.order:
                        _ensure(
                            dims == V.dim,
                            "eigenspaces do not exhaust the space despite a full dual",
                        )
                # surjections descend to eigenspaces
                surj = 0
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
                            rows = [
                                gamma.matrix.apply(s1.basis.row(i))
                                for i in range(s1.dim)
                            ]
                            _ensure(
                                Subspace.from_rows(F, V2.dim, rows) == s2,
                                "surjection failed to stay surjective on an eigenspace",
                            )
                        surj += 1
                        if surj >= 4:
                            break
                    if surj >= 4:
                        break
                surjection_total += surj
                # extension by a central character, then restriction back
                ext_checked = 0
                if C.order * K.order == G.order:
                    KC = K.join(C)
                    on_K = [KC.local(k) for k in K.members]
                    on_C = [KC.local(c) for c in C.members]
                    overlap = [K.local(z) for z in C.intersect(K).members]
                    for V in list(catalog_reps(K.as_group(), F, 2).values())[:3]:
                        I = np.eye(V.dim, dtype=np.int16)
                        if not (V.T[overlap] == I).all():
                            continue
                        for chi in chars:
                            W = extend_by_central_character(V, K, C, chi, KC)
                            _ensure(
                                np.array_equal(W.T[on_K], V.T),
                                "restriction back to K changed the action",
                            )
                            _ensure(
                                np.array_equal(W.T[on_C], np.array(chi.values)[:, None, None] * I),
                                "central part does not act by the character",
                            )
                            ext_checked += 1
                # qualifying sets with a central subgroup obey the index bound
                omega_checked = 0
                for vname in ("triv", "triv2"):
                    V = pool[vname]
                    for v in _nonzero_vectors(F, V.dim)[:8]:
                        got = qualifying_subgroups(V, v, C)
                        plain = qualifying_subgroups(V, v)
                        _ensure(
                            set(s.members for s in got)
                            <= set(s.members for s in plain),
                            "central qualifying set is not a subset of the plain one",
                        )
                        d = cyclic_span_dim(V, v)
                        for U in all_subgroups(G):
                            expected = all(
                                V.act(u, v) == v for u in U.generators()
                            ) and G.order // U.join(C).order > d
                            _ensure(
                                (U in got) == expected,
                                "qualifying set disagrees with the index bound",
                            )
                        omega_checked += 1
                return {
                    "characters": len(chars),
                    "projector_checks": projector_checks,
                    "surjections": surj,
                    "extensions": ext_checked,
                    "omega_vectors": omega_checked,
                }

            _run_case(
                cases,
                f"chi/{gname}/{fname}",
                {"group": gname, "field": fname, "center_part": list(C.members)},
                check,
            )

    if "C3" in groups and "F4" in fields:

        def check_eigen_example():
            G = groups["C3"]
            F = fields["F4"]
            C = Subgroup.full(G)
            reg = regular_rep(G, F)
            chars = characters_of(C, F)
            _ensure(len(chars) == 3, "cube roots of unity missing over four elements")
            for chi in chars:
                space, P = character_eigenspace(reg, C, chi)
                _ensure(space.dim == 1, f"eigenspace dim {space.dim} != 1")
                _ensure(P is not None and P @ P == P, "projector defect")
            return {"eigenspaces": [1, 1, 1]}

        _run_case(cases, "chi/zz-regular-eigenspaces", {}, check_eigen_example)

    if catalog is None:

        def check_surj_total():
            _ensure(surjection_total >= 20, f"only {surjection_total} surjections sampled")
            return {"surjections_total": surjection_total}

        _run_case(cases, "chi/zz-surjection-total", {}, check_surj_total)
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
