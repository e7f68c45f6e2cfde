"""Command-line front door for multiarrangement queries and sweeps.

Single queries emit one JSON report on stdout; sweeps emit TSV, one row per
grid point in grid order.  Reports depend only on the input and the seed —
timing goes to stderr — so identical invocations are byte-identical, also
under parallel sweeps.  Exit codes: 0 success, 1 negative verdict where a
verdict is the output, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arrangement import (
    Multiarrangement,
    catalog,
    load_multiarrangement,
    multiarrangement_from_dict,
)
from .errors import ArrangementError, InternalCheckError, MultiderError
from .logder import (
    DEFAULT_SEED,
    Derivation,
    derivation_from_dict,
    derivation_to_dict,
    find_free_basis,
    find_universal,
    hilbert_dims,
    is_k_critical,
    is_universal,
)
from .multirestrict import (
    check_supersolvable,
    euler_multiplicity,
    filtration_from_dict,
    supersolvable_exponents,
)
from .rank2 import classify_component, delta
from .sweep import format_tsv, parse_ranges, run_sweep

__all__ = ["main"]


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return n


def _catalog_params(args) -> dict:
    params = {}
    for entry in args.param or []:
        key, _, value = entry.partition("=")
        if not key or not value:
            raise ArrangementError(f"bad --param entry {entry!r}; expected KEY=VALUE")
        # `catalog` parses and checks the values; a comma makes a list
        value = value.strip()
        params[key.strip()] = tuple(value.split(",")) if "," in value else value
    return params


def _load_input(args) -> Multiarrangement:
    params = _catalog_params(args)
    mult = None
    if args.mult:
        try:
            mult = [int(v) for v in args.mult.split(",")]
        except ValueError as exc:
            raise ArrangementError(f"bad --mult value {args.mult!r}") from exc
    src = args.input
    if src.startswith("catalog:"):
        return catalog(src[len("catalog:"):], mult, **params)
    if src.lstrip().startswith("{"):
        ma = multiarrangement_from_dict(json.loads(src))
    else:
        ma = load_multiarrangement(src)
    if mult is not None:
        ma = ma.with_mult(mult)
    return ma


def _load_json_arg(text: str) -> dict:
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _derivation_report(theta: Derivation) -> dict:
    report = {"display": theta.render()}
    report.update(derivation_to_dict(theta))
    return report


def _base_report(args, ma: Multiarrangement) -> dict:
    return {
        "query": args.command,
        "input": args.input,
        "mult": list(ma.mult),
        "seed": args.seed,
    }


# -- subcommands -----------------------------------------------------------


def _cmd_exponents(args, ma):
    cert = find_free_basis(ma, seed=args.seed)
    report = _base_report(args, ma)
    report["free"] = cert.free
    if cert.free:
        report["exponents"] = list(cert.exponents)
        report["constant"] = str(cert.constant)
        report["basis"] = [_derivation_report(t) for t in cert.basis]
    else:
        report["refutation"] = cert.refutation
    report["search_log"] = list(cert.search_log)
    return report, 0 if cert.free else 1


def _cmd_is_free(args, ma):
    cert = find_free_basis(ma, seed=args.seed)
    report = _base_report(args, ma)
    report["free"] = cert.free
    if cert.free:
        report["exponents"] = list(cert.exponents)
    else:
        report["refutation"] = cert.refutation
    return report, 0 if cert.free else 1


def _cmd_graded_dim(args, ma):
    report = _base_report(args, ma)
    report["max_degree"] = args.max_degree
    report["dims"] = list(hilbert_dims(ma, args.max_degree))
    return report, 0


def _cmd_is_critical(args, ma):
    verdict = is_k_critical(ma, args.degree)
    report = _base_report(args, ma)
    report["degree"] = args.degree
    report["critical"] = verdict
    return report, 0 if verdict else 1


def _cmd_find_universal(args, ma):
    theta = find_universal(ma, seed=args.seed)
    report = _base_report(args, ma)
    if theta is None:
        report["universal"] = None
        return report, 1
    report["universal"] = _derivation_report(theta)
    report["degree"] = theta.homogeneous_degree()
    return report, 0


def _cmd_is_universal(args, ma):
    theta = derivation_from_dict(_load_json_arg(args.theta))
    verdict = is_universal(theta, ma)
    report = _base_report(args, ma)
    report["universal"] = verdict
    return report, 0 if verdict else 1


def _cmd_delta(args, ma):
    dv = delta(ma)
    report = _base_report(args, ma)
    report["exponents"] = [dv.d1, dv.d2]
    report["delta"] = dv.delta
    return report, 0


def _cmd_classify_component(args, ma):
    c = classify_component(ma)
    report = _base_report(args, ma)
    report["infinite"] = c.infinite
    report["dominant"] = c.dominant
    report["peak"] = None if c.peak is None else list(c.peak)
    report["peak_delta"] = c.peak_delta
    report["distance"] = c.distance
    report["path"] = [list(m) for m in c.path]
    return report, 0


def _cmd_euler_restrict(args, ma):
    er = euler_multiplicity(ma, args.hyperplane)
    report = _base_report(args, ma)
    report["hyperplane"] = args.hyperplane
    report["mu"] = list(er.mu_values())
    report["order"] = er.order()
    report["flats"] = [
        {"indices": list(fr.flat.indices), "mu": fr.mu, "local_order": fr.local_order}
        for fr in er.flats
    ]
    return report, 0


def _cmd_check_ss(args, ma):
    filt = filtration_from_dict(ma.arrangement, _load_json_arg(args.filtration))
    ok = check_supersolvable(ma, filt)
    report = _base_report(args, ma)
    report["levels"] = [list(lvl) for lvl in filt.levels]
    report["supersolvable"] = ok
    if ok:
        report["exponents"] = list(supersolvable_exponents(ma, filt))
    return report, 0 if ok else 1


def _cmd_sweep(args):
    if not args.input.startswith("catalog:"):
        raise ArrangementError("sweep needs a catalog:NAME input")
    name = args.input[len("catalog:"):]
    params = _catalog_params(args)
    ranges = parse_ranges(args.range)
    predicates = tuple(p.strip() for p in args.predicates.split(",") if p.strip())
    rows = run_sweep(
        name,
        ranges,
        predicates=predicates,
        seed=args.seed,
        jobs=args.jobs,
        max_total=args.max_total,
        dedupe=args.dedupe,
        params=params,
    )
    fmt = args.format or "tsv"
    if fmt == "tsv":
        sys.stdout.write(format_tsv([n for n, _ in ranges], predicates, rows))
    else:
        payload = []
        for row in rows:
            entry = {"mult": list(row.mult), "seed": row.seed}
            if "free" in predicates:
                entry["free"] = row.free
            if "exponents" in predicates:
                entry["exponents"] = None if row.exponents is None else list(row.exponents)
            if "universal" in predicates:
                entry["universal_degree"] = row.universal_degree
            payload.append(entry)
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# -- plumbing --------------------------------------------------------------


def _tsv_cell(value) -> str:
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return ",".join(str(v) for v in value)
        return json.dumps(value)
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "tsv":
        lines = [f"{key}\t{_tsv_cell(value)}" for key, value in report.items()]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="catalog:NAME, a JSON file path, or inline JSON")
    common.add_argument("--mult", help="comma-separated multiplicities overriding the input")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized determinant checks (echoed in reports)")
    common.add_argument("--format", choices=("json", "tsv"), default=None,
                        help="json for single queries (default), tsv for sweeps (default)")
    common.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="catalog parameter such as h=4, slopes=1,2,3,4 or t=7/3")

    parser = argparse.ArgumentParser(
        prog="multider",
        description="Exact logarithmic derivation modules of hyperplane multiarrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("exponents", parents=[common],
                   help="freeness with exponents and a Saito basis")
    sub.add_parser("is-free", parents=[common], help="freeness verdict only")

    p = sub.add_parser("graded-dim", parents=[common],
                       help="dimensions of the graded pieces")
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("is-critical", parents=[common],
                       help="degreewise criticality of the module")
    p.add_argument("--degree", type=int, required=True)

    sub.add_parser("find-universal", parents=[common],
                   help="universal derivation for the base multiplicity, if any")

    p = sub.add_parser("is-universal", parents=[common],
                       help="check a candidate derivation against the base multiplicity")
    p.add_argument("--theta", required=True,
                   help="derivation as JSON (inline or file): "
                        '{"coefficients": [{"2,0": "1"}, ...]}')

    sub.add_parser("delta", parents=[common],
                   help="rank-2 exponent gap d2 - d1")
    sub.add_parser("classify-component", parents=[common],
                   help="rank-2 lattice component: peak or dominating hyperplane")

    p = sub.add_parser("euler-restrict", parents=[common],
                       help="Euler multiplicities of the restriction to one hyperplane")
    p.add_argument("--hyperplane", type=int, required=True)

    p = sub.add_parser("check-ss", parents=[common],
                       help="supersolvable multiplicity inequalities along a filtration")
    p.add_argument("--filtration", required=True,
                   help='filtration as JSON (inline or file): {"filtration": [[0], ...]}')

    p = sub.add_parser("sweep", parents=[common],
                       help="evaluate predicates over a multiplicity grid")
    p.add_argument("--range", required=True, metavar="a=1..4,b=1..4,...",
                   help="one inclusive range per hyperplane, in hyperplane order")
    p.add_argument("--predicates", default="free,exponents,universal",
                   help="comma subset of free,exponents,universal")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at least 1")
    p.add_argument("--max-total", type=int, default=None,
                   help="skip grid points whose multiplicities sum beyond this")
    p.add_argument("--dedupe", action="store_true",
                   help="keep one representative per symmetry orbit")
    return parser


_HANDLERS = {
    "exponents": _cmd_exponents,
    "is-free": _cmd_is_free,
    "graded-dim": _cmd_graded_dim,
    "is-critical": _cmd_is_critical,
    "find-universal": _cmd_find_universal,
    "is-universal": _cmd_is_universal,
    "delta": _cmd_delta,
    "classify-component": _cmd_classify_component,
    "euler-restrict": _cmd_euler_restrict,
    "check-ss": _cmd_check_ss,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "sweep":
            code = _cmd_sweep(args)
        else:
            ma = _load_input(args)
            report, code = _HANDLERS[args.command](args, ma)
            _emit(report, args.format or "json")
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (MultiderError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
