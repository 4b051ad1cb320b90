"""Command line front end.

Three subcommands: `verify` runs a named invariant suite over the group
and field catalog, `fairness` computes refinement certificates (with an
optional exhaustive oracle) or finite witness searches, and `stable`
tabulates stable hom dimensions.  All output is UTF-8, newline-terminated,
and byte-identical across reruns with the same inputs and seed.

Exit codes: 0 success, 1 invariant failure, 2 input error (also an
unwritable stdout or --out, a verify run with no case, a catalog that
repeats a name or gives a built-in name another meaning, a catalog or group
file nested too deeply, and running out of memory), 3 precision
precondition violated.  Subcommands raise; main alone turns a
PrecisionError into 3 and any other ValueError or a MemoryError into 2.
`main` is the in-process entry; `run`, the console entry, ends the process
once the answer is flushed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_fields, catalog_groups, catalog_reps, group_from_json, load_catalog
from .exact import loop_rep, projectivity_flags, stable_hom, suspension
from .fairness import (
    PrecisionError,
    central_refinement,
    fairness_refinement,
    overlap_depths,
    overlap_depths_bruteforce,
    verify_certificate,
    witness_search,
)
from .groups import FinGroup, Subgroup
from .jordan import cyclic_generator, jordan_block_rep, stable_jordan_type
from .reports import canonical_json, render_text
from .suites import run_suite

__all__ = ["main", "run"]


def _emit(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    elif sys.stdout is None:
        raise ValueError("cannot write stdout: file descriptor 1 is closed")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _fail(msg: str, code: int) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return code


def _load_catalog(path: str | None) -> dict | None:
    """The --catalog file, or None when none was given."""
    if not path:
        return None
    try:
        return load_catalog(path)
    # json.load raises RecursionError on a deeply nested file
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise ValueError(f"malformed catalog: {exc}") from exc


def _named(kind: str, name: str, catalog: dict | None):
    """The group or field ("group" or "field") of this name: the catalog's,
    else the built-in one.  load_catalog refuses a built-in name for
    another object, so the two never disagree."""
    builtins = catalog_groups() if kind == "group" else catalog_fields()
    found = {**builtins, **catalog[kind + "s"]} if catalog else builtins
    if name not in found:
        raise ValueError(f"unknown {kind} {name!r}")
    return found[name]


def _resolve_group(name_or_path: str, catalog: dict | None) -> FinGroup:
    """A group by name, or a group JSON file by path; a path that names
    nothing is an unknown group."""
    if name_or_path.endswith(".json") or os.path.sep in name_or_path:
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                return group_from_json(json.load(fh))
        except OSError:
            pass
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed group file {name_or_path}: {exc}") from exc
        raise ValueError(f"unknown group {name_or_path!r}")
    return _named("group", name_or_path, catalog)


def _parse_members(G: FinGroup, text: str) -> Subgroup:
    return Subgroup(G, [int(tok) for tok in text.split(",") if tok.strip() != ""])


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed, _load_catalog(args.catalog))
    if report["summary"]["total"] == 0:
        raise ValueError(f"suite {args.suite!r} has no case on this catalog")
    text = canonical_json(report) if args.format == "json" else render_text(report)
    _emit(text, args.out)
    clean = report["summary"]["fail"] == 0 and report["summary"]["error"] == 0
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# fairness


def _in_window(m: int, n: int, N: int, a: int) -> bool:
    """Whether the exponent a fits the precision N at depths m and n."""
    return n + 2 * a < N and m + 2 * a <= N


def _valid_exponents(m: int, n: int, N: int):
    """Lazily, so a huge N fails at the first oracle row's cap check."""
    a = 0
    while _in_window(m, n, N, a):
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
            raise ValueError(f"sl2 mode requires --{name}")
    cert = fairness_refinement(args.m, args.n, args.p)
    body = {
        "schema": "1",
        "command": "fairness",
        "mode": "sl2",
        "certificate": cert.to_json(),
        "certificate_valid": verify_certificate(cert),
    }
    ok = body["certificate_valid"]
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
                if _in_window(args.m, cert.n_prime, N, args.a)
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
        raise ValueError("finite mode requires --group")
    G = _resolve_group(args.group, _load_catalog(args.catalog))
    K = _parse_members(G, args.K) if args.K else Subgroup.full(G)
    H = _parse_members(G, args.H) if args.H else Subgroup.full(G)
    if args.Hprime is not None:
        Hp = _parse_members(G, args.Hprime)
    else:
        Hp = central_refinement(G, K, H)
    report = witness_search(G, K, H, Hp)
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
    F = _named("field", args.field, catalog)
    U = _parse_members(G, args.U) if args.U else Subgroup.trivial(G)
    pool = catalog_reps(G, F, 4)
    if args.pairs:
        try:
            pairs = []
            for tok in args.pairs.split(","):
                left, right = tok.split(":")
                pairs.append((pool[left], pool[right], f"{left}->{right}"))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad --pairs (names from {sorted(pool)}): {exc}") from exc
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
        res = stable_hom(V1, V2, U).to_json()
        rows.append(
            {
                "pair": label,
                "projective": {**res, "flavor": "projective"},
                "injective": {**res, "flavor": "injective"},
            }
        )
    crosscheck = []
    for name, P in pool.items():
        fp, fi = projectivity_flags(P, U)
        crosscheck.append(
            {"object": name, "projective": fp, "injective": fi, "agree": fp == fi}
        )
    jordan = []
    if cyclic_generator(G, F.p) is not None:
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
    return 0 if all(c["agree"] for c in crosscheck) else 1


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
    except PrecisionError as exc:
        return _fail(str(exc), 3)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError has no text
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 2)


def run() -> None:
    """Console entry: `main()`, then flush and end the process with
    `os._exit`, so no command pays for interpreter teardown after its
    answer.  argparse's SystemExit (--help, usage errors) gives the code;
    any other exception propagates as from `main()`."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when its descriptor was closed
            try:
                stream.flush()
            except OSError:
                pass  # a broken pipe; _emit has already reported stdout
    os._exit(code)


if __name__ == "__main__":
    run()
