"""Command-line frontend.

Subcommands: cosets, decompose, code, family, catalog, verify.  Row-shaped
output honors --format csv|json; inspection commands print text unless
--format json, and verify always prints text.  Settings are one namespace:
every flag that sets a RunConfig key has that key as its dest, and a run's
RunConfig layers the subcommand's defaults, then the --config file, then
the flags.  Exit codes: 0 success, 1 a VerificationError (a failed or
unfinished check) or an OSError, 2 a ValueError (invalid input or
configuration).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .catalog import (TABLE_ENTRIES, ConfigError, RunConfig, generate_catalog,
                      read_config_file, rows_for_combo, serialize)
from .codes import (VerificationError, build_code, classical_mds_verdict,
                    exact_distance_small)
from .cosets import (DefiningSet, all_cosets, is_skew_symmetric, make_spec,
                     skew_partner, t_minus_q)
from .eaq import derive_eaq
from .families import FamilyId
from .verify import run_verification


def _flags() -> argparse.ArgumentParser:
    # a flag left out sets nothing, so it neither hides a config-file value
    # nor clobbers the same flag given before the subcommand
    return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank-oracle", action="store_true",
                        help="derive EA parameters with the rank oracle")
    parser.add_argument("--exact-distance", action="store_true",
                        help="run the exact-distance oracle")


def _build_parser() -> argparse.ArgumentParser:
    common = _flags()
    common.add_argument("--format", choices=("csv", "json"),
                        help="output encoding for row-shaped results")
    common.add_argument("--out", help="write output to this path")
    common.add_argument("--workers", type=int,
                        help="worker processes for instance fan-out")
    common.add_argument("--distance-cap", type=int,
                        help="largest exact distance `code` reports; its MDS verdict "
                             "still searches up to n-k+1")
    common.add_argument("--distance-budget", type=int,
                        help="subset-evaluation budget of the exact-distance oracle")
    common.add_argument("--config", help="JSON file with RunConfig keys; flags override it")
    spec = _flags()
    for name in ("q", "r", "n"):
        spec.add_argument(name, type=int)

    parser = argparse.ArgumentParser(
        prog="eaqmds", parents=[common],
        description="Constacyclic defining-set toolkit for entanglement-assisted "
                    "quantum MDS code parameters over F_q2")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *parents, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=summary,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run, defaults=defaults)
        return p

    command("cosets", cmd_cosets, "partition Omega into q^2-cyclotomic cosets", spec)

    p = command("decompose", cmd_decompose, "decompose a defining set into T_ss and T_sas",
                spec)
    p.add_argument("--cosets", required=True, help="comma-separated coset leaders forming T")

    p = command("code", cmd_code, "build one constacyclic code and verify it", spec)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cosets", help="comma-separated coset leaders forming T")
    group.add_argument("--elements",
                       help="raw classes for T, taken as-is without coset closure")
    _add_oracle_flags(p)

    p = command("family", cmd_family, "enumerate one parameter family")
    p.add_argument("family", choices=[f.value for f in FamilyId])
    p.add_argument("q", type=int)
    p.add_argument("--h", type=int, default=None, help="divisor h for QM1_H")
    _add_oracle_flags(p)
    p.add_argument("--no-qmds-datapoints", dest="include_qmds_datapoints",
                   action="store_false", help="omit the dual-containing c=0 datapoints")

    p = command("catalog", cmd_catalog, "reproduce the published parameter tables")
    p.add_argument("--tables", help="comma-separated table ids from {1,2,4,5,6}")
    p.add_argument("--families",
                   help="comma-separated family names; also filters --tables entries")
    p.add_argument("--q", dest="q_list",
                   help="comma-separated q values; also filters --tables entries")
    p.add_argument("--q-range",
                   help="LOW:HIGH range of q values; also filters --tables entries")
    _add_oracle_flags(p)

    p = command("verify", cmd_verify, "run the cross-oracle verification suite",
                exact_distance=True)
    p.add_argument("--q-max", type=int, default=13)
    p.add_argument("--families", help="comma-separated family names to restrict to")
    p.add_argument("--no-exact-distance", dest="exact_distance", action="store_false")

    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc


def _parse_q_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad q range {text!r}; expected LOW:HIGH") from exc
    return lo, hi


# flag text -> config value for the keys that are not a single scalar
_FLAG_PARSERS = {
    "tables": lambda text: _parse_int_list(text, "table"),
    "families": lambda text: [tok.strip() for tok in text.split(",") if tok.strip()],
    "q_list": lambda text: _parse_int_list(text, "q"),
    "q_range": _parse_q_range,
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The subcommand's defaults, then the config file, then the flags."""
    flags = vars(args)
    settings = dict(args.defaults)
    if flags.get("config"):
        settings.update(read_config_file(flags["config"]))
    # field order, so that of two malformed lists the same one is reported
    for key in (f.name for f in dataclasses.fields(RunConfig)):
        if key in flags:
            parse = _FLAG_PARSERS.get(key)
            settings[key] = parse(flags[key]) if parse else flags[key]
    return RunConfig.from_dict(settings)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, lines: list[str], cfg: RunConfig) -> int:
    """payload as JSON under --format json, else the text lines."""
    if cfg.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
    else:
        _emit("\n".join(lines) + "\n", cfg)
    return 0


def _coset_records(spec) -> list[dict]:
    records = []
    for c in all_cosets(spec):
        if is_skew_symmetric(spec, c):
            cls, partner = "skew-symmetric", None
        else:
            partner = skew_partner(spec, c)[0]
            cls = f"paired-with-C_{partner}"
        records.append({"leader": c[0], "elements": list(c),
                        "classification": cls, "partner": partner})
    return records


def cmd_cosets(args, cfg: RunConfig) -> int:
    spec = make_spec(args.q, args.r, args.n)
    records = _coset_records(spec)
    payload = {"q": spec.q, "r": spec.r, "n": spec.n, "rn": spec.rn,
               "m": spec.m, "cosets": records}
    lines = [f"spec: q={spec.q} r={spec.r} n={spec.n} rn={spec.rn} m={spec.m}",
             f"cosets: {len(records)}"]
    for rec in records:
        elems = ", ".join(str(e) for e in rec["elements"])
        lines.append(f"C_{rec['leader']} = {{{elems}}}  {rec['classification']}")
    return _emit_report(payload, lines, cfg)


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
        "ebits": len(t.t_ss),
        "dual_containing": not t.t_ss,
    }
    lines = [f"spec: q={spec.q} r={spec.r} n={spec.n} rn={spec.rn}",
             f"T     = {payload['t']}",
             f"T^-q  = {payload['t_minus_q']}",
             f"T_ss  = {payload['t_ss']}  (|T_ss| = {payload['ebits']})",
             f"T_sas = {payload['t_sas']}",
             f"dual-containing: {str(not t.t_ss).lower()}"]
    return _emit_report(payload, lines, cfg)


def cmd_code(args, cfg: RunConfig) -> int:
    spec = make_spec(args.q, args.r, args.n)
    if "cosets" in args:
        t = DefiningSet.from_leaders(spec, _parse_int_list(args.cosets, "coset"))
    else:
        t = DefiningSet.from_elements(spec, _parse_int_list(args.elements, "element"),
                                      check_closure=False)
    code = build_code(spec, t)
    payload: dict = {
        "n": code.n, "dim": code.dim, "bch_delta": code.bch_delta,
        "gen_poly_coeffs": list(code.gen_poly.coeffs),
        "defining_set": sorted(t.elements),
        "ebits_combinatorial": len(t.t_ss),
    }
    lines = [str(code),
             f"defining set: {payload['defining_set']}",
             f"gen poly coefficient codes: {payload['gen_poly_coeffs']}",
             f"|T_ss| = {len(t.t_ss)}"]
    if cfg.rank_oracle:
        e = derive_eaq(code)
        payload["eaq"] = {"n": e.n, "k": e.k, "d": e.d, "c": e.c, "mds": e.mds}
        lines.append(f"EA parameters: {e} mds={str(e.mds).lower()}")
    if cfg.exact_distance:
        d = exact_distance_small(code, cap=cfg.distance_cap, budget=cfg.distance_budget)
        payload["exact_distance"] = d if d is not None else "exceeds-cap"
        payload["classical_mds"] = classical_mds_verdict(code, budget=cfg.distance_budget,
                                                         distance=d)
        lines.append(f"exact distance: {payload['exact_distance']} "
                     f"({payload['classical_mds']})")
    return _emit_report(payload, lines, cfg)


def cmd_family(args, cfg: RunConfig) -> int:
    rows = rows_for_combo(FamilyId(args.family), args.q, args.h,
                          rank_oracle=cfg.rank_oracle,
                          exact_distance=cfg.exact_distance,
                          distance_budget=cfg.distance_budget,
                          include_qmds_datapoints=cfg.include_qmds_datapoints)
    _emit(serialize(rows, cfg.format), cfg)
    return 0


def cmd_catalog(args, cfg: RunConfig) -> int:
    if cfg.tables is None and not cfg.q_list and cfg.q_range is None:
        cfg = dataclasses.replace(cfg, tables=sorted(TABLE_ENTRIES))
    rows, notes = generate_catalog(cfg)
    _emit(serialize(rows, cfg.format, notes), cfg)
    if notes and cfg.format != "csv":
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    report = run_verification(q_max=args.q_max,
                              families=None if cfg.families is None else cfg.family_filter(),
                              exact_distance=cfg.exact_distance,
                              distance_budget=cfg.distance_budget,
                              workers=cfg.workers)
    lines = [r.line() for r in report.instances]
    lines.extend(f"note: {n}" for n in report.notes)
    lines.append(report.summary())
    _emit("\n".join(lines) + "\n", cfg)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, _merge_config(args))
    except ValueError as exc:  # ConfigError, FamilyError and other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
