"""Command line front end.

Three subcommands: `verify` runs a named invariant suite over the group
and field catalog, `fairness` computes refinement certificates (with an
optional exhaustive oracle) or finite witness searches, and `stable`
tabulates stable hom dimensions.  All output is UTF-8, newline-terminated,
and byte-identical across reruns with the same inputs and seed.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 precision
precondition violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_fields, catalog_groups, catalog_reps, group_from_json, load_catalog
from .exact import (
    adjunction_unit,
    loop_rep,
    relative_projectivity_test,
    stable_hom,
    suspension,
    u_split_search,
)
from .fairness import (
    PrecisionError,
    central_refinement,
    fairness_refinement,
    overlap_depths,
    overlap_depths_bruteforce,
    verify_certificate,
    witness_search,
)
from .fields import p_part
from .groups import FinGroup, Subgroup
from .jordan import jordan_block_rep, stable_jordan_type
from .reports import canonical_json, render_text
from .suites import SUITES, run_suite

__all__ = ["main"]


def _emit(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _fail(msg: str, code: int) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return code


class _InputError(Exception):
    """Bad input found inside a subcommand; main() reports it and exits 2."""


def _load_catalog(path: str | None) -> dict | None:
    """The --catalog file, or None when none was given."""
    if not path:
        return None
    try:
        return load_catalog(path)
    except (OSError, ValueError, KeyError) as exc:
        raise _InputError(f"malformed catalog: {exc}") from exc


def _resolve_group(name_or_path: str, catalog: dict | None) -> FinGroup | None:
    if name_or_path.endswith(".json") or os.path.sep in name_or_path:
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                return group_from_json(json.load(fh))
        except OSError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
            raise _InputError(f"malformed group file {name_or_path}: {exc}") from exc
    groups = catalog["groups"] if catalog else catalog_groups()
    return groups.get(name_or_path)


def _parse_members(G: FinGroup, text: str) -> Subgroup:
    members = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    for m in members:
        if not 0 <= m < G.order:
            raise ValueError(f"element index {m} out of range")
    return Subgroup(G, members)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    catalog = _load_catalog(args.catalog)
    if args.suite not in SUITES:
        return _fail(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", 2)
    report = run_suite(args.suite, args.seed, catalog)
    text = canonical_json(report) if args.format == "json" else render_text(report)
    _emit(text, args.out)
    clean = report["summary"]["fail"] == 0 and report["summary"]["error"] == 0
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# fairness


def _valid_exponents(m: int, n: int, N: int):
    """Lazily, so a huge N fails at the first oracle row's cap check."""
    a = 0
    while n + 2 * a < N and m + 2 * a <= N:
        yield a
        a += 1


def _oracle_rows(p: int, N: int, m: int, n: int, exponents) -> list[dict]:
    rows = []
    for a in exponents:
        closed = overlap_depths(m, n, a)
        brute = overlap_depths_bruteforce(p, N, m, n, a)
        rows.append(
            {
                "a": a,
                "n": n,
                "closed_form": closed.to_json(),
                "bruteforce": brute.to_json(),
                "agree": closed == brute,
            }
        )
    return rows


def _fairness_sl2(args) -> int:
    for name in ("p", "m", "n"):
        if getattr(args, name) is None:
            return _fail(f"sl2 mode requires --{name}", 2)
    try:
        cert = fairness_refinement(args.m, args.n, args.p)
    except ValueError as exc:
        return _fail(str(exc), 2)
    body = {
        "schema": "1",
        "command": "fairness",
        "mode": "sl2",
        "certificate": cert.to_json(),
        "certificate_valid": verify_certificate(cert),
    }
    ok = body["certificate_valid"]
    try:
        if args.a is not None:
            body["depths_at_a"] = {
                "a": args.a,
                "original": overlap_depths(args.m, args.n, args.a).to_json(),
                "refined": overlap_depths(args.m, cert.n_prime, args.a).to_json(),
            }
        if args.oracle_N is not None:
            N = args.oracle_N
            if args.a is not None:
                base = _oracle_rows(args.p, N, args.m, args.n, [args.a])
                refined = (
                    _oracle_rows(args.p, N, args.m, cert.n_prime, [args.a])
                    if cert.n_prime + 2 * args.a < N and args.m + 2 * args.a <= N
                    else []
                )
            else:
                # with no valid exponent, the brute force at a = 0 raises
                # the error that decides the exit code
                base = _oracle_rows(
                    args.p, N, args.m, args.n, _valid_exponents(args.m, args.n, N)
                ) or _oracle_rows(args.p, N, args.m, args.n, [0])
                refined = _oracle_rows(
                    args.p, N, args.m, cert.n_prime,
                    _valid_exponents(args.m, cert.n_prime, N),
                )
            rows = base + refined
            body["oracle"] = rows
            body["oracle_agreement"] = "pass" if all(r["agree"] for r in rows) else "fail"
            ok = ok and body["oracle_agreement"] == "pass"
    except PrecisionError as exc:
        return _fail(str(exc), 3)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if args.format == "json":
        text = canonical_json(body)
    else:
        lines = [
            f"fairness sl2  m={args.m} n={args.n} -> n'={cert.n_prime}",
            f"reduction: {cert.reduction_note}",
        ]
        for c in cert.components:
            marker = "strict for all a" if c.strict_for_all_a else "non-strict"
            lines.append(f"  {c.name:<6} {c.lhs_expr} >= {c.rhs_expr}  [{marker}]")
        for r in body.get("oracle", []):
            lines.append(
                "  oracle a=%d n=%d closed=%s brute=%s %s"
                % (
                    r["a"],
                    r["n"],
                    tuple(r["closed_form"].values()),
                    tuple(r["bruteforce"].values()),
                    "ok" if r["agree"] else "MISMATCH",
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def _fairness_finite(args) -> int:
    if args.group is None:
        return _fail("finite mode requires --group", 2)
    G = _resolve_group(args.group, _load_catalog(args.catalog))
    if G is None:
        return _fail(f"unknown group {args.group!r}", 2)
    try:
        K = _parse_members(G, args.K) if args.K else Subgroup.full(G)
        H = _parse_members(G, args.H) if args.H else Subgroup.full(G)
        if args.Hprime is not None:
            Hp = _parse_members(G, args.Hprime)
        else:
            Hp = central_refinement(G, K, H)
        report = witness_search(G, K, H, Hp)
    except ValueError as exc:
        return _fail(str(exc), 2)
    body = {
        "schema": "1",
        "command": "fairness",
        "mode": "finite",
        "group": args.group,
        "report": report.to_json(),
    }
    if args.format == "json":
        text = canonical_json(body)
    else:
        r = body["report"]
        head = f"fairness finite  group={args.group}  outcome={r['outcome']}"
        if r["witness"] is not None:
            head += f"  g={r['witness']} ({r['witness_label']})"
        text = head + "\n"
    _emit(text, args.out)
    return 0


def cmd_fairness(args) -> int:
    if args.mode == "sl2":
        return _fairness_sl2(args)
    return _fairness_finite(args)


# ---------------------------------------------------------------------------
# stable


def cmd_stable(args) -> int:
    catalog = _load_catalog(args.catalog)
    G = _resolve_group(args.group, catalog)
    if G is None:
        return _fail(f"unknown group {args.group!r}", 2)
    fields = dict(catalog_fields())
    if catalog:
        fields.update(catalog["fields"])
    F = fields.get(args.field)
    if F is None:
        return _fail(f"unknown field {args.field!r}", 2)
    try:
        U = _parse_members(G, args.U) if args.U else Subgroup.trivial(G)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        pool = catalog_reps(G, F, 4)
    except ValueError as exc:  # a permutation module over induce's size budget
        return _fail(str(exc), 2)
    if args.pairs:
        try:
            pairs = []
            for tok in args.pairs.split(","):
                left, right = tok.split(":")
                pairs.append((pool[left], pool[right], f"{left}->{right}"))
        except (ValueError, KeyError) as exc:
            return _fail(f"bad --pairs (names from {sorted(pool)}): {exc}", 2)
    else:
        pairs = [
            (V1, V2, f"{n1}->{n2}")
            for n1, V1 in pool.items()
            for n2, V2 in pool.items()
        ]
    rows = []
    for V1, V2, label in pairs:
        # one trace image serves both columns: relatively projective and
        # relatively injective modules coincide (Higman)
        try:
            res = stable_hom(V1, V2, U).to_json()
        except ValueError as exc:  # a system over the dense cell budget
            return _fail(str(exc), 2)
        rows.append(
            {
                "pair": label,
                "projective": {**res, "flavor": "projective"},
                "injective": {**res, "flavor": "injective"},
            }
        )
    crosscheck = []
    all_agree = True
    full = Subgroup.full(G)
    for name, P in pool.items():
        # the trace criterion against an independent split search on the unit
        try:
            fp, _ = relative_projectivity_test(P, U)
            unit = adjunction_unit(U, P)
        except ValueError as exc:  # Ind Res P is over induce's size budget
            return _fail(str(exc), 2)
        fi = u_split_search(unit, full, "retraction") is not None
        all_agree = all_agree and fp == fi
        crosscheck.append(
            {"object": name, "projective": fp, "injective": fi, "agree": fp == fi}
        )
    jordan = []
    if G.is_abelian() and p_part(G.order, F.p)[1] == 1 and G.order > 1:
        try:
            for i in range(1, min(G.order, 5)):
                J = jordan_block_rep(G, F, i)
                Om, _ = loop_rep(J, U)
                T, _ = suspension(J, U)
                jordan.append(
                    {
                        "block": i,
                        "loop_dim": Om.dim,
                        "loop_stable": list(stable_jordan_type(Om)),
                        "susp_dim": T.dim,
                        "susp_stable": list(stable_jordan_type(T)),
                    }
                )
        except ValueError:
            jordan = []  # not cyclic; no block classification
    body = {
        "schema": "1",
        "command": "stable",
        "group": args.group,
        "field": args.field,
        "subgroup": list(U.members),
        "rows": rows,
        "frobenius_crosscheck": crosscheck,
        "jordan_table": jordan,
    }
    if args.format == "json":
        text = canonical_json(body)
    else:
        lines = [f"stable homs  group={args.group} field={args.field} U={list(U.members)}"]
        for r in rows:
            lines.append(
                "  %-18s proj %d/%d/%d  inj %d/%d/%d"
                % (
                    r["pair"],
                    r["projective"]["total_dim"],
                    r["projective"]["factoring_dim"],
                    r["projective"]["stable_dim"],
                    r["injective"]["total_dim"],
                    r["injective"]["factoring_dim"],
                    r["injective"]["stable_dim"],
                )
            )
        for c in crosscheck:
            lines.append(
                "  crosscheck %-10s proj=%s inj=%s %s"
                % (c["object"], c["projective"], c["injective"], "ok" if c["agree"] else "MISMATCH")
            )
        for j in jordan:
            lines.append(
                "  block %d: loop dim %d stable %s, susp dim %d stable %s"
                % (j["block"], j["loop_dim"], j["loop_stable"], j["susp_dim"], j["susp_stable"])
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_agree else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modplab")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a named invariant suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--catalog")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fairness", help="fairness certificates and witness searches")
    pf.add_argument("--mode", choices=("sl2", "finite"), default="sl2")
    pf.add_argument("--p", type=int)
    pf.add_argument("--m", type=int)
    pf.add_argument("--n", type=int)
    pf.add_argument("--a", type=int)
    pf.add_argument("--oracle-N", dest="oracle_N", type=int)
    pf.add_argument("--group")
    pf.add_argument("--K")
    pf.add_argument("--H")
    pf.add_argument("--Hprime")
    pf.add_argument("--catalog")
    pf.add_argument("--format", choices=("json", "text"), default="json")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_fairness)

    ps = sub.add_parser("stable", help="stable hom dimension tables")
    ps.add_argument("--group", required=True)
    ps.add_argument("--field", required=True)
    ps.add_argument("--U", help="comma-separated element indices; default trivial")
    ps.add_argument("--pairs", help="comma-separated name:name pairs from the rep catalog")
    ps.add_argument("--catalog")
    ps.add_argument("--format", choices=("json", "text"), default="json")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_stable)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
