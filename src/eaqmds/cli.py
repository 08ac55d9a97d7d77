"""Command-line frontend.

Subcommands: cosets, decompose, code, family, catalog, verify.  Row-shaped
output honors --format csv|json; inspection commands print text unless
--format json.  Exit codes: 0 success, 1 verification failure, 2 invalid
input or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .catalog import (TABLE_ENTRIES, ConfigError, RunConfig, generate_catalog,
                      rows_for_combo, serialize)
from .codes import (CoefficientDescentError, DistanceBudgetExceeded,
                    InconsistentRootSystemError, build_code,
                    classical_mds_verdict, exact_distance_small)
from .cosets import (DefiningSet, all_cosets, dual_containing, is_skew_symmetric,
                     make_spec, skew_partner, t_minus_q)
from .eaq import EbitOracleMismatch, derive_eaq, ebits_combinatorial
from .families import FamilyId, VerificationError
from .verify import run_verification


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # suppressed defaults keep subparser values from clobbering global ones
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("csv", "json"), default=default,
                        help="output encoding for row-shaped results")
    parser.add_argument("--out", default=default, help="write output to this path")
    parser.add_argument("--workers", type=int, default=default,
                        help="worker processes for instance fan-out")
    parser.add_argument("--distance-cap", type=int, default=default,
                        help="maximum weight searched by the exact-distance oracle")
    parser.add_argument("--distance-budget", type=int, default=default,
                        help="subset-evaluation budget of the exact-distance oracle")
    parser.add_argument("--config", default=default,
                        help="JSON file with RunConfig keys; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqmds",
        description="Constacyclic defining-set toolkit for entanglement-assisted "
                    "quantum MDS code parameters over F_q2")
    _add_common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosets", parents=[common],
                       help="partition Omega into q^2-cyclotomic cosets")
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a defining set into T_ss and T_sas")
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--cosets", required=True,
                   help="comma-separated coset leaders forming T")

    p = sub.add_parser("code", parents=[common],
                       help="build one constacyclic code and verify it")
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cosets", help="comma-separated coset leaders forming T")
    group.add_argument("--elements",
                       help="raw classes for T, taken as-is without coset closure")
    p.add_argument("--rank-oracle", action="store_true",
                   help="derive EA parameters with the rank oracle")
    p.add_argument("--exact-distance", action="store_true",
                   help="run the exact-distance oracle")

    p = sub.add_parser("family", parents=[common],
                       help="enumerate one parameter family")
    p.add_argument("family", choices=[f.value for f in FamilyId])
    p.add_argument("q", type=int)
    p.add_argument("--h", type=int, default=None, help="divisor h for QM1_H")
    p.add_argument("--rank-oracle", action="store_true")
    p.add_argument("--exact-distance", action="store_true")
    p.add_argument("--no-qmds-datapoints", action="store_true",
                   help="omit the dual-containing c=0 datapoints")

    p = sub.add_parser("catalog", parents=[common],
                       help="reproduce the published parameter tables")
    p.add_argument("--tables", default=None,
                   help="comma-separated table ids from {1,2,4,5,6}")
    p.add_argument("--families", default=None,
                   help="comma-separated family names; also filters --tables entries")
    p.add_argument("--q", dest="q_list", default=None,
                   help="comma-separated q values; also filters --tables entries")
    p.add_argument("--q-range", default=None,
                   help="LOW:HIGH range of q values; also filters --tables entries")
    p.add_argument("--rank-oracle", action="store_true")
    p.add_argument("--exact-distance", action="store_true")

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-oracle verification suite")
    p.add_argument("--q-max", type=int, default=13)
    p.add_argument("--families", default=None,
                   help="comma-separated family names to restrict to")
    p.add_argument("--no-exact-distance", action="store_true")

    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if args.format is not None:
        overrides["format"] = args.format
    if args.out is not None:
        overrides["out"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.distance_cap is not None:
        overrides["distance_cap"] = args.distance_cap
    if args.distance_budget is not None:
        overrides["distance_budget"] = args.distance_budget
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coset_records(spec) -> list[dict]:
    records = []
    for c in all_cosets(spec):
        if is_skew_symmetric(c):
            cls, partner = "skew-symmetric", None
        else:
            partner = skew_partner(c).leader
            cls = f"paired-with-C_{partner}"
        records.append({"leader": c.leader, "elements": list(c.elements),
                        "classification": cls, "partner": partner})
    return records


def cmd_cosets(args, cfg: RunConfig) -> int:
    spec = make_spec(args.q, args.r, args.n)
    records = _coset_records(spec)
    if cfg.format == "json":
        payload = {"q": spec.q, "r": spec.r, "n": spec.n, "rn": spec.rn,
                   "m": spec.m, "cosets": records}
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
        return 0
    lines = [f"spec: q={spec.q} r={spec.r} n={spec.n} rn={spec.rn} m={spec.m}",
             f"cosets: {len(records)}"]
    for rec in records:
        elems = ", ".join(str(e) for e in rec["elements"])
        lines.append(f"C_{rec['leader']} = {{{elems}}}  {rec['classification']}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_decompose(args, cfg: RunConfig) -> int:
    spec = make_spec(args.q, args.r, args.n)
    t = DefiningSet.from_leaders(spec, _parse_int_list(args.cosets, "coset"))
    payload = {
        "q": spec.q, "r": spec.r, "n": spec.n,
        "leaders": list(t.leaders),
        "t": sorted(t.elements),
        "t_minus_q": sorted(t_minus_q(t)),
        "t_ss": sorted(t.t_ss),
        "t_sas": sorted(t.t_sas),
        "ebits": ebits_combinatorial(t),
        "dual_containing": dual_containing(t),
    }
    if cfg.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
        return 0
    lines = [f"spec: q={spec.q} r={spec.r} n={spec.n} rn={spec.rn}",
             f"T     = {payload['t']}",
             f"T^-q  = {payload['t_minus_q']}",
             f"T_ss  = {payload['t_ss']}  (|T_ss| = {payload['ebits']})",
             f"T_sas = {payload['t_sas']}",
             f"dual-containing: {str(payload['dual_containing']).lower()}"]
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_code(args, cfg: RunConfig) -> int:
    spec = make_spec(args.q, args.r, args.n)
    if args.cosets:
        t = DefiningSet.from_leaders(spec, _parse_int_list(args.cosets, "coset"))
    else:
        t = DefiningSet.from_elements(spec, _parse_int_list(args.elements, "element"),
                                      check_closure=False)
    code = build_code(spec, t)
    payload: dict = {
        "n": code.n, "dim": code.dim, "bch_delta": code.bch_delta,
        "gen_poly_coeffs": list(code.gen_poly.coeffs),
        "defining_set": sorted(t.elements),
        "ebits_combinatorial": ebits_combinatorial(t),
    }
    if args.rank_oracle:
        params = derive_eaq(code)
        payload["eaq"] = {"n": params.n, "k": params.k, "d": params.d,
                          "c": params.c, "mds": params.mds}
    if args.exact_distance:
        d = exact_distance_small(code, cap=cfg.distance_cap,
                                 budget=cfg.distance_budget)
        payload["exact_distance"] = d if d is not None else "exceeds-cap"
        payload["classical_mds"] = classical_mds_verdict(code, budget=cfg.distance_budget,
                                                         distance=d)
    if cfg.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
        return 0
    lines = [f"[{code.n}, {code.dim}, >={code.bch_delta}] over GF({spec.q}^2)",
             f"defining set: {payload['defining_set']}",
             f"gen poly coefficient codes: {payload['gen_poly_coeffs']}",
             f"|T_ss| = {payload['ebits_combinatorial']}"]
    if "eaq" in payload:
        e = payload["eaq"]
        lines.append(f"EA parameters: [[{e['n']}, {e['k']}, {e['d']}; {e['c']}]]_"
                     f"{spec.q} mds={str(e['mds']).lower()}")
    if "exact_distance" in payload:
        lines.append(f"exact distance: {payload['exact_distance']} "
                     f"({payload['classical_mds']})")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_family(args, cfg: RunConfig) -> int:
    rows = rows_for_combo(FamilyId(args.family), args.q, args.h,
                          rank_oracle=args.rank_oracle,
                          exact_distance=args.exact_distance,
                          distance_budget=cfg.distance_budget,
                          include_qmds_datapoints=not args.no_qmds_datapoints)
    _emit(serialize(rows, cfg.format), cfg)
    return 0


def cmd_catalog(args, cfg: RunConfig) -> int:
    updates: dict = {}
    if args.tables is not None:
        updates["tables"] = _parse_int_list(args.tables, "table")
    if args.families is not None:
        updates["families"] = [tok.strip() for tok in args.families.split(",") if tok.strip()]
    if args.q_list is not None:
        updates["q_list"] = _parse_int_list(args.q_list, "q")
    if args.q_range is not None:
        try:
            lo, hi = (int(tok) for tok in args.q_range.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad q range {args.q_range!r}; expected LOW:HIGH") from exc
        updates["q_range"] = (lo, hi)
    if args.rank_oracle:
        updates["rank_oracle"] = True
    if args.exact_distance:
        updates["exact_distance"] = True
    cfg = dataclasses.replace(cfg, **updates)
    cfg.validate()  # before the tables default, so LOW > HIGH is not an empty range
    if cfg.tables is None and not cfg.selected_q():
        cfg = dataclasses.replace(cfg, tables=sorted(TABLE_ENTRIES))
    rows, notes = generate_catalog(cfg)
    _emit(serialize(rows, cfg.format, notes), cfg)
    if notes and cfg.format != "csv":
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    families = None
    if args.families:
        families = [FamilyId(tok.strip().upper())
                    for tok in args.families.split(",") if tok.strip()]
    report = run_verification(q_max=args.q_max, families=families,
                              exact_distance=not args.no_exact_distance,
                              distance_budget=cfg.distance_budget,
                              workers=cfg.workers)
    lines = [r.line() for r in report.instances]
    lines.extend(f"note: {n}" for n in report.notes)
    lines.append(report.summary())
    _emit("\n".join(lines) + "\n", cfg)
    return 0 if report.passed else 1


_COMMANDS = {
    "cosets": cmd_cosets,
    "decompose": cmd_decompose,
    "code": cmd_code,
    "family": cmd_family,
    "catalog": cmd_catalog,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](args, cfg)
    # the two code-construction errors are ValueErrors, so they come first
    except (CoefficientDescentError, InconsistentRootSystemError, VerificationError,
            EbitOracleMismatch, DistanceBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError, FamilyError and other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
