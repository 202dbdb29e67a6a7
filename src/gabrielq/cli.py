"""gq: command-line front end.

Exit codes: 0 = all checks pass, 1 = violations found, 2 = usage or
contract error.  GQ_TIME_BUDGET_SECS (default 300; a NaN or negative
value is a usage error) is one deadline for the whole command, checked
once per term inside polynomial multiplication, once per S-pair inside
every Groebner basis computation, once per reduction step of the
reduction kernel (groebner._reduce, which serves Groebner bases,
membership tests and normal forms), once per step of exact division,
once per sampled monomial and unit of its degree, and again before a
suite report is written; exceeding it aborts with exit code 2 rather
than truncating a report, so reports stay byte-identical across runs.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .poly import PolyParseError, check_deadline, time_budget
from .groebner import Ideal
from .dim_filtration import InternalCheckError, sat_g_split, unmixed_split
from .domain import DomainError, SubQ
from .corpus import (
    RingSpecError,
    distinguished_fractions,
    load_ring_file,
    parse_fraction,
)
from .filters import check_filter_axioms, check_lemma_1_2, classify_ore
from .quotient_ring import (
    RmContext,
    check_lemma_2_3,
    check_thm_2_4,
    check_thm_2_5,
    in_Rm,
    is_unit_Rm,
)
from .ext_contr import (
    check_lemma_3_2,
    check_thm_3_4_premise,
    contract_subq,
    extend_ideal,
    rm_generators,
)
from .report import Report

SUITES = (
    "filter-axioms",
    "lemma-1.2",
    "lemma-2.3",
    "thm-2.4",
    "thm-2.5",
    "lemma-3.2",
    "thm-3.4-survey",
)


def _context(args) -> RmContext:
    dom = load_ring_file(args.ring)
    ctx = RmContext(dom, args.m)
    if args.max_degree is not None:
        ctx.witness_degree = args.max_degree
    return ctx


def _ideal_from_text(ctx, text: str) -> Ideal:
    gens = [ctx.R.parse(t.strip()) for t in text.split(",") if t.strip()]
    return ctx.R.ideal(gens)


def _emit(report: Report, args) -> int:
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.ok else 1


def cmd_membership(args) -> int:
    ctx = _context(args)
    q = parse_fraction(ctx.R, args.fraction)
    cert = in_Rm(q, ctx)
    report = Report("membership", {"ring": ctx.R.name, "m": ctx.m,
                                   "fraction": str(q)})
    for i, g in enumerate(cert.conductor.groebner(), 1):
        report.note(f"conductor.gen[{i}]", g)
    report.note("conductor.dim", cert.conductor_dim)
    report.note("in_R", q.in_R())
    report.check("membership", True, verdict=cert.verdict)
    report.note("verdict", cert.verdict)
    _emit(report, args)
    return 0


def cmd_unit(args) -> int:
    ctx = _context(args)
    q = parse_fraction(ctx.R, args.fraction)
    report = Report("unit", {"ring": ctx.R.name, "m": ctx.m, "fraction": str(q)})
    verdict = is_unit_Rm(q, ctx)
    report.check("unit", True, verdict=verdict)
    report.note("verdict", verdict)
    _emit(report, args)
    return 0


def cmd_saturate(args) -> int:
    ctx = _context(args)
    I = _ideal_from_text(ctx, args.ideal)
    if I.is_unit:
        raise ValueError("saturate requires a proper ideal")
    report = Report("saturate", {"ring": ctx.R.name, "m": ctx.m,
                                 "ideal": args.ideal})
    S, pieces = sat_g_split(I, ctx)  # raises InternalCheckError if V1/V2 fail
    for i, p in enumerate(pieces, 1):
        report.note(f"piece[{i}].ideal", p.ideal)
        report.note(f"piece[{i}].dim", p.dim)
        report.note(f"piece[{i}].independent_set", ",".join(p.independent_set))
        report.note(f"piece[{i}].exponent", p.exponent)
    for i, g in enumerate(S.groebner(), 1):
        report.note(f"saturation.gen[{i}]", g)
    report.check("post-conditions", True, v1="pass", v2="pass")
    return _emit(report, args)


def cmd_split(args) -> int:
    ctx = _context(args)
    I = _ideal_from_text(ctx, args.ideal)
    if I.is_unit:
        raise ValueError("split requires a proper ideal")
    report = Report("split", {"ring": ctx.R.name, "m": ctx.m, "ideal": args.ideal})
    for i, p in enumerate(unmixed_split(I), 1):
        report.note(f"piece[{i}].ideal", p.ideal)
        report.note(f"piece[{i}].dim", p.dim)
        report.note(f"piece[{i}].independent_set", ",".join(p.independent_set))
        report.note(f"piece[{i}].multiplier", p.multiplier)
        report.note(f"piece[{i}].exponent", p.exponent)
    report.check("intersection-recheck", True)
    return _emit(report, args)


def _module(ctx, args):
    seed_ideal = None
    if args.seed_ideal:
        seed_ideal = _ideal_from_text(ctx, args.seed_ideal)
    return rm_generators(ctx, seed_ideal, max_rounds=args.rounds)


def cmd_extend(args) -> int:
    ctx = _context(args)
    I = _ideal_from_text(ctx, args.ideal)
    M = _module(ctx, args)
    result = extend_ideal(I, M, ctx)
    report = Report("extend", {"ring": ctx.R.name, "m": ctx.m,
                               "ideal": args.ideal,
                               "M.converged": M.converged})
    report.note("extension.den", result.subq.den)
    for i, g in enumerate(result.subq.num.groebner(), 1):
        report.note(f"extension.num.gen[{i}]", g)
    report.note("widened", result.widened)
    report.check("extend", True)
    return _emit(report, args)


def cmd_contract(args) -> int:
    ctx = _context(args)
    num = _ideal_from_text(ctx, args.numerator)
    den = ctx.R.parse(args.den)
    B = SubQ(ctx.R, den, num)
    C = contract_subq(B)
    report = Report("contract", {"ring": ctx.R.name, "m": ctx.m,
                                 "den": args.den, "numerator": args.numerator})
    for i, g in enumerate(C.groebner(), 1):
        report.note(f"contraction.gen[{i}]", g)
    report.check("contract", True)
    return _emit(report, args)


def cmd_quotient_survey(args) -> int:
    ctx = _context(args)
    M = _module(ctx, args)
    report = Report("quotient-survey", {"ring": ctx.R.name, "m": ctx.m,
                                        "rounds": args.rounds})
    report.note("seed_ideal", M.seed_ideal)
    report.note("converged", M.converged)
    report.note("module.den", M.module.den)
    for q in M.module.generators():
        if q.is_zero:
            continue
        cert = in_Rm(q, ctx)
        report.check("generator-membership", cert.verdict, generator=str(q),
                     conductor_dim=cert.conductor_dim)
    strict = M.strictly_contains_R()
    report.note("strictly_contains_R", strict)
    if strict:
        report.note("witness", M.witness_beyond_R())
    return _emit(report, args)


def cmd_verify(args) -> int:
    ctx = _context(args)
    samples, seed = args.samples, args.seed
    if args.suite == "filter-axioms":
        report = check_filter_axioms(ctx, samples, seed)
    elif args.suite == "lemma-1.2":
        report = check_lemma_1_2(ctx, samples, seed)
        ore = classify_ore(ctx)
        report.note("ore", ore["ore"])
        report.note("strong_ore", ore["strong_ore"])
        if ore["witness"] is not None:
            report.note("strong_ore.witness", ore["witness"])
    elif args.suite == "lemma-2.3":
        report = check_lemma_2_3(ctx, samples, seed,
                                 distinguished=distinguished_fractions(ctx.R))
    elif args.suite == "thm-2.4":
        report = check_thm_2_4(ctx, samples, seed,
                               distinguished=distinguished_fractions(ctx.R))
    elif args.suite == "thm-2.5":
        report = check_thm_2_5(ctx, samples, seed)
    elif args.suite == "lemma-3.2":
        M = _module(ctx, args)
        report = check_lemma_3_2(ctx, M, samples, seed)
    elif args.suite == "thm-3.4-survey":
        M = _module(ctx, args)
        report = check_thm_3_4_premise(ctx, M, samples, seed)
    else:
        raise ValueError(f"unknown suite: {args.suite}")
    check_deadline()
    return _emit(report, args)


def non_negative_int(text: str) -> int:
    """A count argument; argparse turns the errors into exit 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gq",
        description="Gabriel quotient rings of affine domains: membership, "
                    "saturation, extension/contraction, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ring", required=True,
                       help="ring spec file, or a bundled name (R1, R2, R3)")
        p.add_argument("--m", type=int, required=True,
                       help="filter bound, 0 <= m < dim R")
        p.add_argument("--max-degree", type=non_negative_int, default=None,
                       help="bounded witness search degree (default 6)")
        p.add_argument("--out", default=None, help="also write the report here")

    p = sub.add_parser("membership", help="decide q in R(m) with certificate")
    common(p)
    p.add_argument("fraction", help='"num / den" or a bare polynomial')
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("unit", help="decide whether q is a unit of R(m)")
    common(p)
    p.add_argument("fraction")
    p.set_defaults(func=cmd_unit)

    p = sub.add_parser("saturate", help="g-saturation of an ideal of R")
    common(p)
    p.add_argument("ideal", help="comma-separated generators")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("split", help="unmixed split of an ideal of R")
    common(p)
    p.add_argument("ideal")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("extend", help="extension I·R(m) via the module approximation")
    common(p)
    p.add_argument("ideal")
    p.add_argument("--seed-ideal", default=None)
    p.add_argument("--rounds", type=non_negative_int, default=5)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("contract", help="contraction of (1/den)<numerator> to R")
    common(p)
    p.add_argument("numerator", help="comma-separated numerator generators")
    p.add_argument("--den", required=True)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("quotient-survey",
                       help="approximate R(m) as an R-module and report")
    common(p)
    p.add_argument("--seed-ideal", default=None)
    p.add_argument("--rounds", type=non_negative_int, default=5)
    p.set_defaults(func=cmd_quotient_survey)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    common(p)
    p.add_argument("--samples", type=non_negative_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-ideal", default=None)
    p.add_argument("--rounds", type=non_negative_int, default=5)
    p.set_defaults(func=cmd_verify)

    return parser


def _time_budget_secs() -> float:
    """GQ_TIME_BUDGET_SECS as a number of seconds >= 0 (0 leaves no time)."""
    text = os.environ.get("GQ_TIME_BUDGET_SECS", "300")
    try:
        limit = float(text)
    except ValueError:
        limit = math.nan
    if not limit >= 0:  # NaN compares false, and would remove the bound
        raise ValueError(
            f"GQ_TIME_BUDGET_SECS must be a number of seconds >= 0, got {text!r}"
        )
    return limit


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        limit = _time_budget_secs()
        with time_budget(
            limit, f"command exceeded the GQ_TIME_BUDGET_SECS limit of {limit}s"
        ):
            return args.func(args)
    except (RingSpecError, DomainError, PolyParseError, ValueError,
            ZeroDivisionError, TimeoutError) as exc:
        print(f"gq: error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"gq: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
