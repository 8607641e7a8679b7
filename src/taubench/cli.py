"""Command-line front end with deterministic machine-readable output.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 budget/resource error.  All JSON output is emitted with sorted keys and
compact separators so identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    BudgetError,
    ConventionMismatch,
    DomainError,
    InsufficientCap,
    NumericError,
    TaubenchError,
    TruncationError,
    Unsupported,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONFIG_ENV = "TAUBENCH_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    max_darts: int = 12
    max_matchings: int = 20_000
    cap: int | None = None  # unset: each command's own default
    output_format: str = "json"
    output_path: str | None = None

    _JSON_KEYS = ("seed", "max_darts", "max_matchings", "cap")

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        config = cls()
        if path is None:
            path = os.environ.get(CONFIG_ENV)
        if path is None:
            return config
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(raw) - set(cls._JSON_KEYS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            # bool is a subclass of int, but JSON true/false are not integers
            if type(value) is not int:
                raise DomainError(f"config key {key!r} must be a JSON integer")
        return replace(config, **raw)

    def cap_or(self, default: int) -> int:
        """The cap a flag or the config file set, else the command's default."""
        return default if self.cap is None else self.cap


def _fractions(text: str) -> tuple[Fraction, ...]:
    from .exact import to_rational

    return tuple(to_rational(part.strip()) for part in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse number list {text!r}: {exc}")


def _emit(payload, config: RunConfig, csv_rows=None) -> None:
    if config.output_format == "csv":
        text = "\n".join(",".join(str(cell) for cell in row) for row in csv_rows)
        text += "\n"
    else:
        # the payload's ints are computed, not read: the interpreter's limit on
        # int-to-str digits (0 is none; Python >= 3.10.7) guards parsing, so it
        # is lifted while they are written
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (payload, csv_rows, passed); only
# those registered with csv=True return rows
# ---------------------------------------------------------------------------


def _cmd_graphs(args, config):
    from .ribbon import enumerate_trivalent

    classes = enumerate_trivalent(args.genus, args.faces, config.max_darts)
    payload = {
        "genus": args.genus,
        "faces": args.faces,
        "count": len(classes),
        "classes": [c.to_json() for c in classes],
    }
    return payload, None, True


def _cmd_intersect(args, config):
    from .exact import rational_to_str
    from .ribbon import extract_intersection_numbers

    table = extract_intersection_numbers(args.genus, args.n, config.max_darts)
    numbers = {}
    rows = [("genus", "indices", "value")]
    for (g, dtuple), value in sorted(table.entries.items()):
        key = "(" + ",".join(str(d) for d in dtuple) + ")"
        numbers[key] = rational_to_str(value)
        rows.append((g, " ".join(str(d) for d in dtuple), rational_to_str(value)))
    payload = {"genus": args.genus, "n": args.n, "numbers": numbers}
    return payload, rows, True


def _cmd_verify(args, config):
    from .kdv import DEFAULT_CAP, assemble_free_energy, kdv_residual, string_residual
    from .ribbon import base_table

    table = base_table(max_darts=config.max_darts)
    fe = assemble_free_energy(table, cap=config.cap_or(DEFAULT_CAP))
    report = (kdv_residual if args.which == "kdv" else string_residual)(fe)
    payload = report.to_json()
    payload["coverage_gap"] = [
        {"genus": g, "n": n, "indices": list(d)} for g, n, d in fe.coverage_gap
    ]
    passed = not report.covered_nonzero()
    payload["pass"] = passed
    return payload, None, passed


def _cmd_schur(args, config):
    from .schur import Partition, check_schur_budget, kp_checks, kp_hirota_residual, schur_lambda

    partition = Partition(tuple(int(p) for p in args.partition.split(",")))
    check_schur_budget(partition.size, args.check_hirota or args.check_kp, args.check_kp)
    tau = schur_lambda(partition)
    payload = {"partition": list(partition.parts), "series": tau.to_json()}
    passed = True
    if args.check_kp:
        payload["kp"] = kp_checks(tau)
        passed = all(payload["kp"].values())
    if args.check_hirota:
        # --check-kp has computed the Hirota residual already
        zero = payload["kp"]["hirota_zero"] if args.check_kp else kp_hirota_residual(tau).is_zero()
        payload["hirota_zero"] = zero
        passed = passed and zero
    return payload, None, passed


def _cmd_virasoro_oscillator(args, config):
    from .exact import to_rational
    from .fock import OscillatorParams, oscillator_sweep

    if args.max_mode < 0:
        raise DomainError("--max-mode must be >= 0")
    params = OscillatorParams(mu=to_rational(args.mu), lambda_param=to_rational(args.lambda_param))
    cap = config.cap_or(10)
    reports = oscillator_sweep(args.max_mode, params, cap)
    passed = all(r["all_zero"] for r in reports)
    payload = {
        "lambda": str(params.lambda_param),
        "mu": str(params.mu),
        "cap": cap,
        "max_mode": args.max_mode,
        "central_charge": reports[0]["central_charge"],
        "all_zero": passed,
        "reports": reports,
    }
    return payload, None, passed


def _cmd_virasoro_target(args, config):
    from .fock import CohomologyData, point_target_data, target_commutator_report

    if args.data:
        with open(args.data, "r", encoding="utf-8") as handle:
            data = CohomologyData.from_json(json.load(handle))
    else:
        data = point_target_data()
    report = target_commutator_report(args.n1, args.n, data, args.window)
    # report generation is the contract; closure is data-dependent
    return report, None, True


def _cmd_matrix_moment(args, config):
    from .exact import rational_to_str
    from .wick import GaussianSpec, TraceWord, wick_moment

    word = TraceWord.from_string(args.word)
    if args.lambda_diag:
        spec = GaussianSpec(args.N, _fractions(args.lambda_diag))
        value = wick_moment(spec, word, config.max_matchings)
        payload = {
            "mode": "diagonal",
            "N": args.N,
            "lambda": [rational_to_str(v) for v in spec.lambda_diag],
            "word": list(word.powers),
            "moment": rational_to_str(value),
        }
        return payload, None, True
    value = wick_moment(GaussianSpec(args.N), word, config.max_matchings)
    payload = {
        "mode": "scalar",
        "N": args.N,
        "word": list(word.powers),
        "laurent": {str(p): rational_to_str(c) for p, c in value.items()},
    }
    return payload, None, True


def _cmd_matrix_genus(args, config):
    from .exact import rational_to_str
    from .wick import TraceWord, genus_expansion

    word = TraceWord.from_string(args.word)
    expansion = genus_expansion(word, config.max_matchings)
    rows = [("genus", "coefficient")] + [
        (g, rational_to_str(c)) for g, c in sorted(expansion.items())
    ]
    payload = {
        "word": list(word.powers),
        "expansion": {str(g): rational_to_str(c) for g, c in expansion.items()},
    }
    return payload, rows, True


def _cmd_matrix_match(args, config):
    from .wick import kontsevich_match

    lams = _fractions(args.lambda_diag)
    report = kontsevich_match(
        len(lams),
        lams,
        args.order,
        max_darts=config.max_darts,
        max_matchings=config.max_matchings,
    )
    return report, None, report["agree"] and report.get("order2_agrees", True)


def _cmd_matrix_hciz(args, config):
    from .wick import hciz_check

    report = hciz_check(_floats(args.x), _floats(args.y), args.samples, config.seed)
    return report, None, report["pass"]


def _cmd_matrix_normalization(args, config):
    from .wick import gaussian_normalization_check

    report = gaussian_normalization_check(args.N, _fractions(args.lambda_diag), args.tol)
    return report, None, report["pass"]


def _cmd_torsion(args, config):
    from .exact import rational_to_str
    from .torsion import BasedChainComplex, is_acyclic, torsion, torsion_order_check

    with open(args.complex, "r", encoding="utf-8") as handle:
        complex_ = BasedChainComplex.from_json(json.load(handle))
    payload = {"ranks": list(complex_.ranks), "acyclic": is_acyclic(complex_)}
    if args.order_check:  # the check computes the torsion, or refuses a cyclic complex
        report = torsion_order_check(complex_)
        payload.update(torsion=report["torsion"], order_check=report)
        return payload, None, report["pass"]
    if payload["acyclic"]:
        payload["torsion"] = rational_to_str(torsion(complex_))
    return payload, None, True


def _cmd_suite(args, config):
    from .suite import run_suite

    report = run_suite(args.level, config)
    return report, None, report["all_pass"]


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse usage error raises DomainError, so it reaches stderr as one
    JSON error object; the subcommand parsers share the class."""

    def error(self, message):
        raise DomainError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" given as an option's value (--word=--) and
        # stores [] for it; it is a missing value, as in --word --
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taubench",
        description="Exact ribbon-graph / tau-function verification workbench.",
    )
    parser.add_argument("--config", help="JSON config file (budgets, seed)")
    parser.add_argument("--seed", type=int, help="RNG seed for numeric paths")
    parser.add_argument("--max-darts", type=int, dest="max_darts")
    parser.add_argument("--max-matchings", type=int, dest="max_matchings")
    parser.add_argument("--cap", type=int, help="series truncation cap")
    parser.add_argument("--format", choices=("json", "csv"), dest="output_format")
    parser.add_argument("--output", dest="output_path", help="write output to file")
    sub = parser.add_subparsers(dest="command", required=True)

    graphs = sub.add_parser("graphs", help="ribbon graph enumeration")
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    enum = graphs_sub.add_parser("enumerate")
    enum.add_argument("--genus", type=int, required=True)
    enum.add_argument("--faces", type=int, required=True)
    enum.set_defaults(func=_cmd_graphs)

    intersect = sub.add_parser("intersect", help="extract intersection numbers")
    intersect.add_argument("-g", "--genus", type=int, required=True)
    intersect.add_argument("-n", type=int, required=True)
    intersect.set_defaults(func=_cmd_intersect, csv=True)

    verify = sub.add_parser("verify", help="KdV / string residual reports")
    verify.add_argument("which", choices=("kdv", "string"))
    verify.set_defaults(func=_cmd_verify)

    schur = sub.add_parser("schur", help="Schur polynomial and KP checks")
    schur.add_argument("--partition", required=True, help="e.g. 2,1")
    schur.add_argument("--check-kp", action="store_true", dest="check_kp")
    schur.add_argument("--check-hirota", action="store_true", dest="check_hirota")
    schur.set_defaults(func=_cmd_schur)

    virasoro = sub.add_parser("virasoro", help="Virasoro representation checks")
    virasoro_sub = virasoro.add_subparsers(dest="virasoro_command", required=True)
    osc = virasoro_sub.add_parser("oscillator")
    osc.add_argument("--lambda", dest="lambda_param", default="0")
    osc.add_argument("--mu", default="0")
    osc.add_argument("--max-mode", type=int, default=2, dest="max_mode")
    osc.set_defaults(func=_cmd_virasoro_oscillator)
    target = virasoro_sub.add_parser("target")
    target.add_argument("--data", help="cohomology data JSON file")
    target.add_argument("--n1", type=int, default=-1)
    target.add_argument("--n", type=int, default=0)
    target.add_argument("--window", type=int, default=2)
    target.set_defaults(func=_cmd_virasoro_target)

    matrix = sub.add_parser("matrix", help="Gaussian matrix-model checks")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)
    moment = matrix_sub.add_parser("moment")
    moment.add_argument("--N", type=int, required=True)
    moment.add_argument("--lambda", dest="lambda_diag")
    moment.add_argument("--word", required=True)
    moment.set_defaults(func=_cmd_matrix_moment)
    genus = matrix_sub.add_parser("genus")
    genus.add_argument("--word", required=True)
    genus.set_defaults(func=_cmd_matrix_genus, csv=True)
    match = matrix_sub.add_parser("match")
    match.add_argument("--order", type=int, default=2)
    match.add_argument("--lambda", dest="lambda_diag", default="3,4,5")
    match.set_defaults(func=_cmd_matrix_match)
    hciz = matrix_sub.add_parser("hciz")
    hciz.add_argument("--x", required=True)
    hciz.add_argument("--y", required=True)
    hciz.add_argument("--samples", type=int, default=200_000)
    hciz.set_defaults(func=_cmd_matrix_hciz)
    norm = matrix_sub.add_parser("normalization")
    norm.add_argument("--N", type=int, required=True)
    norm.add_argument("--lambda", dest="lambda_diag", required=True)
    norm.add_argument("--tol", type=float, default=1e-6)
    norm.set_defaults(func=_cmd_matrix_normalization)

    torsion = sub.add_parser("torsion", help="chain-complex torsion")
    torsion.add_argument("--complex", required=True, help="complex JSON file")
    torsion.add_argument("--order-check", action="store_true", dest="order_check")
    torsion.set_defaults(func=_cmd_torsion)

    suite = sub.add_parser("suite", help="aggregated acceptance run")
    suite.add_argument("level", choices=("quick", "full"))
    suite.set_defaults(func=_cmd_suite)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except DomainError as exc:
        _error(exc, "usage")
        return EXIT_USAGE
    try:
        config = RunConfig.load(args.config)
        overrides = {}
        for field in ("seed", "max_darts", "max_matchings", "cap",
                      "output_format", "output_path"):
            value = getattr(args, field, None)
            if value is not None:
                overrides[field] = value
        config = replace(config, **overrides)
        for field in ("max_darts", "max_matchings", "cap"):
            value = getattr(config, field)
            if value is not None and value < 0:
                raise DomainError(f"--{field.replace('_', '-')} must be >= 0")
        # refused before the subcommand does any work
        if config.output_format == "csv" and not getattr(args, "csv", False):
            raise DomainError("this subcommand has no CSV table form")
        payload, csv_rows, passed = args.func(args, config)
        _emit(payload, config, csv_rows)
        return EXIT_PASS if passed else EXIT_FAIL
    except BudgetError as exc:
        _error(exc, "budget")
        return EXIT_BUDGET
    except NumericError as exc:
        _error(exc, "numeric")
        return EXIT_BUDGET
    except InsufficientCap as exc:  # an empty check window: the arguments are at fault
        _error(exc, "usage")
        return EXIT_USAGE
    except (ConventionMismatch, TruncationError) as exc:
        _error(exc, "verification")
        return EXIT_FAIL
    except (DomainError, Unsupported, TaubenchError, OSError, ValueError) as exc:
        _error(exc, "usage")
        return EXIT_USAGE


def _error(exc, kind: str) -> None:
    sys.stderr.write(
        json.dumps(
            {"error": kind, "message": str(exc)}, sort_keys=True, separators=(",", ":")
        )
        + "\n"
    )


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
