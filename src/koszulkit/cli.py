"""Command-line front end.

Subcommands: ``calculus`` (full runs), ``verify-ade`` (the Dynkin table
suite), ``koszulity`` (bimodule-complex homology), ``hochschild2`` (the
degree-2 comparison) and ``dualize`` (the duality checklist).  Reports are
JSON documents, written to ``--out`` or else to standard output; the short
human summary goes to standard output with ``--out`` and to standard error
without it, so that standard output parses as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__, adedata
from .presets import PresetError, normalize_preset_name
from .report import ANALYSES, RunConfig, RunError, run, write_report
from .verify import verify_ade


def _common_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="built-in graph (A1.., D4.., E6/E7/E8, A~2.., D~4)")
    src.add_argument("--file", dest="input_file",
                     help="JSON input: a graph or a quadratic presentation")
    p.add_argument("--field", default="Q", help="Q or F:<p> (default Q)")
    p.add_argument("--coefficients", default="A", choices=["A", "k", "Ae"])
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--weight-cutoff", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--force-rational", action="store_true",
                   help="allow the rational E8 bimodule complex (Ae, koszulity)")
    p.add_argument("--compact", action="store_true", help="single-line JSON")


def _config_from_args(args, analyses: List[str]) -> RunConfig:
    return RunConfig(
        preset=args.preset,
        input_file=args.input_file,
        field_tag=args.field,
        coefficients=args.coefficients,
        max_degree=args.max_degree,
        weight_cutoff=args.weight_cutoff,
        analyses=analyses,
        force_rational=args.force_rational,
    )


def _summary_stream(args):
    """Standard output when the report goes to a file, else standard error,
    so that standard output holds nothing but the JSON."""
    return sys.stdout if args.out else sys.stderr


def _emit(report, args) -> int:
    dims = report.get("calculus", {}).get("cohomology", {}).get("dims")
    status = report.get("status")
    line = f"status: {status}"
    if dims:
        line += f"  HK^ dims: {dims[:3]}"
    hdims = report.get("calculus", {}).get("homology", {}).get("dims")
    if hdims:
        line += f"  HK_ dims: {hdims[:3]}"
    kz = report.get("koszulity")
    if kz:
        line += f"  koszul-up-to-cutoff: {kz['koszul_up_to_cutoff']}"
    print(line, file=_summary_stream(args))
    write_report(report, args.out, pretty=not args.compact)
    if args.out:
        print(f"report written to {args.out}")
    for w in report.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    for f in report.get("failures", []):
        print(f"failure: {f}", file=sys.stderr)
    return 0 if status in ("ok", "warning") else 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="koszulkit",
        description="Exact Koszul calculus of quadratic quiver algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_calc = sub.add_parser("calculus", help="full calculus run")
    _common_flags(p_calc)
    p_calc.add_argument("--analyses", default="calculus,higher,duality",
                        help=f"comma list from {','.join(ANALYSES)}")

    p_kos = sub.add_parser("koszulity", help="homology of the bimodule complex")
    _common_flags(p_kos)

    p_hoch = sub.add_parser("hochschild2", help="degree-2 Hochschild comparison")
    _common_flags(p_hoch)

    p_dual = sub.add_parser("dualize", help="duality checklist")
    _common_flags(p_dual)

    p_ver = sub.add_parser("verify-ade", help="Dynkin table verification suite")
    p_ver.add_argument("--types", default=",".join(adedata.listed_types()),
                       help="comma list of Dynkin presets")
    p_ver.add_argument("--chars", default="0,2",
                       help="comma list of characteristics")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--compact", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "calculus":
            analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
            return _emit(run(_config_from_args(args, analyses)), args)
        if args.command == "koszulity":
            return _emit(run(_config_from_args(args, ["koszulity"])), args)
        if args.command == "hochschild2":
            return _emit(run(_config_from_args(
                args, ["calculus", "hochschild2"])), args)
        if args.command == "dualize":
            return _emit(run(_config_from_args(
                args, ["calculus", "higher", "duality"])), args)
        if args.command == "verify-ade":
            types = [normalize_preset_name(t) for t in args.types.split(",") if t.strip()]
            try:
                chars = [int(c) for c in args.chars.split(",") if c.strip()]
            except ValueError:
                raise ValueError("--chars takes a comma list of integers, "
                                 f"not {args.chars!r}") from None
            log = verify_ade(types, chars)
            doc = {
                "schema": "koszulkit-verify/1",
                "tool_version": __version__,
                "types": types,
                "chars": chars,
                "checks": len(log.entries),
                "ok": log.ok,
                "failures": log.failures(),
            }
            ok_count = sum(1 for _k, ok, _d in log.entries if ok)
            print(f"verify-ade: {ok_count}/{len(log.entries)} checks passed",
                  file=_summary_stream(args))
            write_report(doc, args.out, pretty=not args.compact)
            for f in log.failures()[:20]:
                print(f"failure: {f}", file=sys.stderr)
            return 0 if log.ok else 2
    except (RunError, PresetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
