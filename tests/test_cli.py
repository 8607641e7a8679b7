"""CLI contract tests: exit codes, determinism, config handling, CSV
emitters, file output, and schema validation of every subcommand's JSON
output against the versioned schemas shipped in /schemas."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from taubench.cli import CONFIG_ENV, RunConfig, build_parser, run
from taubench import ribbon, schur, wick
from taubench.kdv import assemble_free_energy, kdv_residual, string_residual
from taubench.schur import partitions_of

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate(schema_name, payload):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.json").read_text())
    Draft202012Validator(schema, registry=REGISTRY).validate(payload)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    assert err.count("\n") == 1
    validate("error-v1", json.loads(err))


def _valued_options(parser, path=()):
    """(subcommand path, option string, argparse name) for every option of
    the parser and its subparsers that takes one value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _valued_options(sub, path + (name,))
        elif action.option_strings and action.nargs is None:
            for option in action.option_strings:
                yield path, option, "/".join(action.option_strings)


VALUED_OPTIONS = list(_valued_options(build_parser()))


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, _, _ = invoke(capsys, "--help")
        assert code == 0

    def test_pass_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "intersect", "-g", "0", "-n", "3")
        assert code == 0
        assert out == '{"genus":0,"n":3,"numbers":{"(0,0,0)":"1"}}\n'

    def test_usage_error_is_two(self, capsys):
        code, _, err = invoke(capsys, "intersect", "-g", "-1", "-n", "3")
        assert code == 2
        validate("error-v1", json.loads(err))

    def test_unknown_suite_level_is_two(self, capsys):
        code, _, _ = invoke(capsys, "suite", "bogus")
        assert code == 2

    def test_missing_subcommand_is_two(self, capsys):
        assert invoke(capsys, "matrix")[0] == 2

    def test_a_planted_order2_fault_is_one(self, capsys, monkeypatch):
        # doubled source times leave the Wick and graph sides agreeing but
        # not t0^3/6 + t1/24, so order2_agrees is false and the match raises
        times = wick.source_times
        monkeypatch.setattr(wick, "source_times", lambda lams, count: [
            2 * t for t in times(lams, count)
        ])
        code, out, err = invoke(capsys, "matrix", "match")
        assert (code, out) == (1, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "verification"

    def test_budget_error_is_three(self, capsys):
        code, _, err = invoke(
            capsys,
            "--max-matchings", "5",
            "matrix", "moment", "--word", "tr12",
        )
        assert code == 3
        assert json.loads(err)["error"] == "budget"

    def test_missing_file_is_two(self, capsys):
        code, _, err = invoke(capsys, "torsion", "--complex", "/nonexistent.json")
        assert code == 2
        validate("error-v1", json.loads(err))

    @pytest.mark.parametrize("text", ['{"ranks":[1]}', "[1,2]"])
    def test_malformed_complex_is_two(self, capsys, tmp_path, text):
        path = tmp_path / "complex.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "torsion", "--complex", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "usage"
        validate("error-v1", json.loads(err))

    def test_negative_cap_is_two(self, capsys):
        code, _, err = invoke(capsys, "--cap", "-1", "virasoro", "oscillator")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    NEGATIVE_BUDGETS = [
        ("--max-darts", "-5", "intersect", "-g", "0", "-n", "3"),
        ("--max-matchings", "-1", "matrix", "genus", "--word", "tr2"),
        # refused before the sample budget is priced or numpy loads; a seed of
        # 0 is valid, and the samples over MAX_HCIZ_SAMPLES are the budget error
        ("--seed", "-1", "matrix", "hciz", "--x", "1,-1", "--y", "1,-1",
         "--samples", "10000001"),
    ]

    @pytest.mark.parametrize("argv", NEGATIVE_BUDGETS)
    def test_negative_budget_is_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": f"{argv[0]} must be >= 0"}

    @pytest.mark.parametrize("argv", NEGATIVE_BUDGETS)
    def test_zero_budget_is_a_budget_not_a_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, argv[0], "0", *argv[2:])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "budget"

    @pytest.mark.parametrize(
        "argv",
        [
            ("virasoro", "oscillator", "--max-mode", "-1"),
            # an empty check window (InsufficientCap) comes from the arguments
            ("--cap", "1", "virasoro", "oscillator", "--max-mode", "1"),
            # the first window is already empty; no list of modes is built
            ("virasoro", "oscillator", "--max-mode", "1000000000"),
            ("virasoro", "target", "--window", "-1"),
        ],
    )
    def test_bad_check_window_is_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "usage"

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("matrix", "normalization", "--lambda", HUGE),
             "lambda out of float range"),
            # positive, but it rounds to 0.0
            (("matrix", "normalization", "--lambda", "1/" + HUGE),
             "lambda out of float range"),
            # refused before sampling: no inf estimate and no numpy warning
            (("matrix", "hciz", "--x", HUGE + ",1", "--y", "1,2", "--samples", "10"),
             "exp(x_i y_j) or the closed form is out of float range"),
            # (x1 - x2)(y1 - y2) underflows to 0.0 in the closed form
            (("matrix", "hciz", "--x", "1e-200,2e-200", "--y", "1e-200,2e-200"),
             "exp(x_i y_j) or the closed form is out of float range"),
        ],
    )
    def test_out_of_float_range_is_two(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_normalization_tol_must_be_finite_and_positive(self, capsys, tol):
        # nan, 0 and -1 used to end in "verification failed" (exit 1), and
        # inf passed whatever the quadrature gave
        code, out, err = invoke(
            capsys, "matrix", "normalization", "--lambda", "2", f"--tol={tol}"
        )
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": "tol must be finite and > 0"}

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("intersect", "-g", "0", "-n", "2"), "no trivalent graph for (g, n) = (0, 2)"),
            (("intersect", "-g", "-1", "-n", "3"), "need genus >= 0 and at least one face"),
            (("intersect", "-g", "1", "-n", "0"), "need genus >= 0 and at least one face"),
            # the block is checked before the budget of the base cases
            (("--max-darts", "0", "intersect", "-g", "0", "-n", "1"),
             "no trivalent graph for (g, n) = (0, 1)"),
        ],
    )
    def test_one_block_domain_check(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": message}

    def test_overflowing_sample_variance_is_two(self, capsys):
        # every exp(x_i y_j) and the closed form are finite, but the sample
        # variance is not: an infinite stderr must not pass, and no numpy
        # RuntimeWarning may reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                capsys, "matrix", "hciz", "--x", "300,1", "--y", "1,2", "--samples", "10"
            )
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {
            "error": "usage",
            "message": "the sample mean or variance is out of float range",
        }

    def test_oversized_sample_count_is_three_before_numpy(self, capsys, monkeypatch):
        # 10^11 float64 samples would need 800 GB; a None entry in
        # sys.modules makes any `import numpy` fail, so the budget comes first
        monkeypatch.setitem(sys.modules, "numpy", None)
        code, out, err = invoke(
            capsys, "matrix", "hciz", "--x", "1,-1", "--y", "1,-1", "--samples", "100000000000"
        )
        assert (code, out) == (3, "")
        assert_one_error_line(err)
        assert json.loads(err) == {
            "error": "budget",
            "message": "100000000000 samples exceed the budget of 10000000",
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["intersect", "graphs"]),
        st.integers(-2, 6),
        st.integers(-2, 6),
        st.integers(-2, 12),
    )
    def test_any_graph_argv_exits_by_contract(self, command, genus, faces, max_darts):
        argv = ["--max-darts", str(max_darts)] + (
            ["intersect", "-g", str(genus), "-n", str(faces)]
            if command == "intersect"
            else ["graphs", "enumerate", "--genus", str(genus), "--faces", str(faces)]
        )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2, 3)
        if code:
            assert "Traceback" not in err.getvalue()
            assert_one_error_line(err.getvalue())

    @pytest.mark.parametrize(
        "argv",
        [
            ("--threads", "2", "intersect", "-g", "0", "-n", "3"),
            ("virasoro", "oscillator", "--check"),
            ("virasoro", "target", "--report", "out.json"),
            # --cap and --seed are global flags only
            ("virasoro", "oscillator", "--cap", "4"),
            ("matrix", "hciz", "--x", "1,-1", "--y", "1,-1", "--seed", "1"),
        ],
    )
    def test_removed_options_are_two(self, capsys, argv):
        assert invoke(capsys, *argv)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("matrix", "moment", "--N", "2", "--word", "tr4"),
            ("matrix", "normalization", "--N", "2", "--lambda", "1,2"),
        ],
    )
    def test_n_flag_is_two(self, capsys, argv):
        # N is the length of --lambda, and scalar mode reads no N
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": "unrecognized arguments: --N 2"}

    @pytest.mark.parametrize(
        "path, option, name",
        VALUED_OPTIONS,
        ids=[" ".join((*path, option)) for path, option, _ in VALUED_OPTIONS],
    )
    def test_dash_dash_as_a_value_is_a_missing_value(self, capsys, path, option, name):
        # argparse stored [] for --opt=--, which crashed or was silently ignored
        argv = [*path, f"{option}=--"] if path else [f"{option}=--", "suite", "quick"]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        message = f"argument {name}: expected one argument"
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("schur", "--partition", "-1,2"), "argument --partition: expected one argument"),
            (("intersect", "-g", "0", "-n", "x"), "argument -n: invalid int value: 'x'"),
            (("intersect", "-g", "0"), "the following arguments are required: -n"),
            (("matrix",), "the following arguments are required: matrix_command"),
            (("suite", "bogus"), "argument level: invalid choice: 'bogus' (choose from 'quick', 'full')"),
            (("--seed", "x", "suite", "quick"), "argument --seed: invalid int value: 'x'"),
            (("intersect", "-g", "0", "-n", "3", "--extra"), "unrecognized arguments: --extra"),
        ],
    )
    def test_parser_errors_are_one_json_line(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("argv", [("--help",), ("schur", "--help"), ("matrix", "moment", "-h")])
    def test_help_is_usage_text_and_zero(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: taubench")

    @pytest.mark.parametrize(
        "argv",
        [
            ("matrix", "match", "--lambda", "1e300000,1"),
            ("virasoro", "oscillator", "--lambda", "1e300000", "--max-mode", "1"),
            ("virasoro", "oscillator", "--mu=-1e-300000"),
            ("matrix", "moment", "--lambda", "1e300000,1", "--word", "tr2"),
            ("matrix", "normalization", "--lambda", "1" * 1001),
        ],
    )
    def test_rational_over_the_digit_bound_is_two_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage", "message": "a rational over 1000 digits is refused"
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("matrix", "match", "--lambda", "3,x"), "'x' is not a rational string"),
            (("matrix", "moment", "--lambda", "1/0", "--word", "tr2"),
             "'1/0' has a zero denominator"),
            # a zero denominator was an uncaught ZeroDivisionError here
            (("virasoro", "oscillator", "--mu", "1/0"), "'1/0' has a zero denominator"),
            (("virasoro", "oscillator", "--lambda", "0.5.5"), "'0.5.5' is not a rational string"),
        ],
    )
    def test_malformed_rational_flag_is_two(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {"error": "usage", "message": message}


class TestVirasoroArgs:
    @pytest.mark.parametrize(
        "argv,cap",
        [
            (("--cap", "3", "virasoro", "oscillator", "--max-mode", "0"), 3),
            (("virasoro", "oscillator", "--max-mode", "0"), 10),
            (("--cap", "4", "virasoro", "oscillator", "--max-mode", "0"), 4),
            (("--cap", "5", "virasoro", "oscillator", "--max-mode", "0"), 5),
        ],
    )
    def test_global_cap_reaches_oscillator(self, capsys, argv, cap):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["cap"] == cap
        # the (0, 0) check sweeps every monomial of weight <= cap
        windows = {3: 7, 4: 12, 5: 19, 10: 139}
        assert payload["reports"][0]["window_size"] == windows[cap]

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (("virasoro", "oscillator", "--max-mode", "0"), 3),
            (("--cap", "4", "virasoro", "oscillator", "--max-mode", "0"), 4),
            (("--cap", "5", "virasoro", "oscillator", "--max-mode", "0"), 5),
        ],
    )
    def test_config_cap_reaches_oscillator(self, capsys, tmp_path, argv, cap):
        # order: the --cap flag, the config cap, 10
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 3}))
        code, out, _ = invoke(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert json.loads(out)["cap"] == cap

    def test_verify_cap_defaults_to_eight(self, capsys, tmp_path):
        # the KdV report window is cap - 5
        assert json.loads(invoke(capsys, "verify", "kdv")[1])["window"] == 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 6}))
        assert json.loads(invoke(capsys, "--config", str(cfg), "verify", "kdv")[1])["window"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # 121 sweeps, each under MAX_WINDOW, but over the total budget
            ("--cap", "16", "virasoro", "oscillator", "--max-mode", "5"),
            # refused before one monomial tuple of the cap's length is built
            ("--cap", "1000000", "virasoro", "oscillator"),
            # C(20, 5) = 15504 monomials in the string window, degree <= 15 in t0..t4
            ("--cap", "16", "verify", "kdv"),
            # 120 darts: refused before the first sample row is built
            ("intersect", "-g", "8", "-n", "6"),
            # 66 darts, and more faces than there are sample primes
            ("intersect", "-g", "0", "-n", "13"),
            # within --max-darts, but over the graph work budget
            ("--max-darts", "66", "intersect", "-g", "0", "-n", "13"),
            ("--max-darts", "30", "graphs", "enumerate", "--genus", "3", "--faces", "1"),
            ("--max-darts", "24", "intersect", "-g", "0", "-n", "6"),
            # the budget is priced without forming a huge count or factorial
            ("--max-darts", "600000", "intersect", "-g", "0", "-n", "100000"),
            ("--max-darts", "600000", "graphs", "enumerate", "--genus", "0", "--faces", "100000"),
        ],
    )
    def test_oversized_run_is_three_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "budget"

    @pytest.mark.parametrize(
        "argv",
        [
            ("virasoro", "target", "--window", "200"),
            # over 1000 variables: the window must not recurse once per variable
            ("virasoro", "target", "--window", "1000"),
            ("--cap", "60", "virasoro", "oscillator"),
            ("--cap", "20", "virasoro", "oscillator", "--max-mode", "1"),
        ],
    )
    def test_oversized_window_is_three(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 20
        assert (code, out) == (3, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "budget"

    @pytest.mark.parametrize("data", [False, True])
    def test_million_weight_window_is_three_at_once(self, capsys, tmp_path, data):
        # a window's variable family grows with the window; at 2e6 it took
        # 7.7 GB before the window was refused
        argv = ["virasoro", "target", "--window", "1000000"]
        if data:
            (tmp_path / "two_class.json").write_text(json.dumps({
                "eta": [[0, 1], [1, 0]],
                "cmat": [[0, 0], [1, 0]],
                "b": ["-1/2", "1/2"],
                "b_raised": ["-1/2", "1/2"],
            }))
            argv += ["--data", str(tmp_path / "two_class.json")]
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert_one_error_line(err)
        assert json.loads(err) == {
            "error": "budget",
            "message": "over 1000 monomials of weight <= 1000000 in the window",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("virasoro", "target", "--n", "100000"),
            ("virasoro", "target", "--n1", "3", "--n", "1000000"),
            # C^2 = 0 on the two-class data, so no power past C is built
            ("virasoro", "target", "--data", "two_class.json", "--n", "1000000000"),
        ],
    )
    def test_large_target_index_exits_zero_at_once(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "two_class.json").write_text(json.dumps({
            "eta": [[0, 1], [1, 0]],
            "cmat": [[0, 0], [1, 0]],
            "b": ["-1/2", "1/2"],
            "b_raised": ["-1/2", "1/2"],
        }))
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        validate("virasoro-target-v1", json.loads(out))

    def test_oversized_cohomology_data_is_three_at_once(self, capsys, tmp_path):
        # dimension 40 (eta antidiagonal, C the shift) took 12.9 s at --window 1
        d = 40
        (tmp_path / "shift.json").write_text(json.dumps({
            "eta": [[int(i + k == d - 1) for k in range(d)] for i in range(d)],
            "cmat": [[int(i == k + 1) for k in range(d)] for i in range(d)],
            "b": [0] * d,
            "b_raised": [0] * d,
        }))
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "virasoro", "target", "--data", str(tmp_path / "shift.json"), "--window", "1"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "budget",
            "message": "cohomology work 2560000 (dim^4) exceeds the budget 10000",
        }

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(
            st.builds(
                lambda cap, mode: [
                    "--cap", str(cap), "virasoro", "oscillator", "--max-mode", str(mode),
                ],
                st.integers(-3, 80),
                st.integers(-2, 4),
            ),
            st.builds(
                lambda window, n1, n: [
                    "virasoro", "target",
                    "--window", str(window), "--n1", str(n1), "--n", str(n),
                ],
                st.integers(-3, 1200),
                st.integers(-4, 6),
                st.integers(-4, 6),
            ),
        )
    )
    def test_any_virasoro_argv_exits_by_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert "Traceback" not in err.getvalue()
            assert_one_error_line(err.getvalue())


class TestMatrixArgs:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["moment", "match", "normalization"]),
        st.one_of(
            st.lists(st.integers(-1, 40).map(str) | st.sampled_from(["1/2", "1/0", "2e3", "1e1001", "x"]),
                     min_size=1, max_size=6).map(",".join),
            st.text(alphabet="0123456789,/-.e ", max_size=10),
        ),
        st.one_of(
            st.lists(st.sampled_from(["tr1", "tr2", "tr3", "tr4", "tr3^2", "tr8", "tr2^40"]),
                     min_size=1, max_size=3).map(",".join),
            st.text(alphabet="tr0123456789^,- ", max_size=8),
        ),
    )
    def test_any_matrix_argv_exits_by_contract(self, command, lams, word):
        argv = ["matrix", command, f"--lambda={lams}"]
        if command == "moment":
            argv.append(f"--word={word}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (2, 3):
            assert out.getvalue() == ""
            assert_one_error_line(err.getvalue())
        else:
            assert err.getvalue() == ""
            assert out.getvalue().count("\n") == 1


class TestSchurArgs:
    @pytest.mark.parametrize("size", range(4, 7))
    def test_check_kp_passes_on_every_partition(self, capsys, size):
        # x4, x5, ... are set to 1 on the KP slice, as in criterion 5
        for parts in partitions_of(size):
            code, out, err = invoke(
                capsys, "schur", "--partition", ",".join(map(str, parts.parts)), "--check-kp"
            )
            assert (code, err) == (0, "")
            assert json.loads(out)["kp"] == {"hirota_zero": True, "pde_zero": True, "agree": True}

    @pytest.mark.parametrize(
        "argv",
        [
            ("schur", "--partition", "40"),
            ("schur", "--partition", "36"),
            ("schur", "--partition", "1" + "0" * 30),
            # one past the edges: 19 with --check-hirota, 9 with --check-kp
            ("schur", "--partition", "20", "--check-hirota"),
            ("schur", "--partition", "8,2", "--check-kp"),
        ],
    )
    def test_oversized_request_is_three_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "budget"

    @pytest.mark.parametrize(
        "argv",
        [
            ("schur", "--partition", "1,1,1,1,1,1,1"),
            ("schur", "--partition", "12", "--check-hirota"),
            ("schur", "--partition", "3,2,1", "--check-kp", "--check-hirota"),
            # at the --check-hirota edge; (19) is among its fastest partitions
            ("schur", "--partition", "19", "--check-hirota"),
            # the slowest partition of 16 (0.46 s on a 2-core VM)
            ("schur", "--partition", "14,2", "--check-hirota"),
        ],
    )
    def test_request_under_budget_passes(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 3
        assert (code, err) == (0, "")

    def test_both_checks_run_the_hirota_member_once(self, capsys, monkeypatch):
        calls = []
        member = schur.kp_hirota_residual
        monkeypatch.setattr(schur, "kp_hirota_residual", lambda tau: calls.append(1) or member(tau))
        code, out, _ = invoke(capsys, "schur", "--partition", "3,2,1", "--check-kp", "--check-hirota")
        assert (code, len(calls)) == (0, 1)
        assert json.loads(out)["hirota_zero"] is True

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.lists(
                st.integers(-1, 5) | st.sampled_from([40, 10**30]), max_size=3
            ).map(lambda parts: ",".join(map(str, parts))),
            st.text(alphabet=",-0123456789 x", max_size=6),
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_any_schur_argv_exits_by_contract(self, partition, check_kp, check_hirota):
        # --partition=VALUE keeps a leading "-" from reading as an option
        argv = ["schur", f"--partition={partition}"]
        argv += ["--check-kp"] * check_kp + ["--check-hirota"] * check_hirota
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert "Traceback" not in err.getvalue()
            assert_one_error_line(err.getvalue())


class TestEighteenDarts:
    def test_genus_two_graphs(self, capsys):
        code, out, _ = invoke(
            capsys, "--max-darts", "18", "graphs", "enumerate", "--genus", "2", "--faces", "1"
        )
        assert code == 0
        assert json.loads(out)["count"] == 9

    def test_genus_two_intersect(self, capsys):
        code, out, _ = invoke(capsys, "--max-darts", "18", "intersect", "-g", "2", "-n", "1")
        assert code == 0
        assert json.loads(out)["numbers"] == {"(4)": "1/1152"}

    def test_genus_two_two_faces_at_24_darts(self, capsys):
        # the table comes from 8112 rooted maps x 2 labelings, no class
        ribbon._graph_sum_table.cache_clear()
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "--max-darts", "24", "intersect", "-g", "2", "-n", "2")
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert json.loads(out)["numbers"] == {"(3,2)": "29/5760", "(4,1)": "1/384", "(5,0)": "1/1152"}


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("--seed", "3", "matrix", "hciz", "--x", "0.5,2", "--y", "1,3",
                "--samples", "20000")
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_intersect_stable(self, capsys):
        a = invoke(capsys, "intersect", "-g", "1", "-n", "2")
        b = invoke(capsys, "intersect", "-g", "1", "-n", "2")
        assert a == b


class TestImportSurface:
    def test_graph_commands_import_neither_dataclasses_nor_inspect(self, tmp_path):
        # the commands of the paper's ribbon-graph checks start as fresh
        # processes, so what they import is most of their run time
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 6, "max_darts": 12}))
        commands = [
            ["intersect", "-g", "0", "-n", "3"],
            ["--format", "csv", "intersect", "-g", "1", "-n", "2"],
            ["graphs", "enumerate", "--genus", "1", "--faces", "2"],
            ["--cap", "10", "verify", "kdv"],
            ["--cap", "10", "verify", "string"],
            ["--config", str(cfg), "verify", "string"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from taubench.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run(sys.argv[1:]) == 0\n"
            "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
            "assert not loaded, (sys.argv[1:], loaded)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        for argv in commands:
            child = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            )
            assert child.returncode == 0, child.stderr


class TestConfig:
    def test_config_file_sets_seed(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        _, out, _ = invoke(
            capsys, "--config", str(cfg),
            "matrix", "hciz", "--x", "1,-1", "--y", "1,-1", "--samples", "5000",
        )
        assert json.loads(out)["seed"] == 9

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        _, out, _ = invoke(
            capsys, "--config", str(cfg), "--seed", "4",
            "matrix", "hciz", "--x", "1,-1", "--y", "1,-1", "--samples", "5000",
        )
        assert json.loads(out)["seed"] == 4

    def test_a_run_config_is_immutable_with_its_defaults(self):
        config = RunConfig()
        assert (config.seed, config.max_darts, config.max_matchings, config.cap) == (0, 12, 20_000, None)
        assert (config.output_format, config.output_path) == ("json", None)
        for name in ("seed", "cap", "output_format"):
            with pytest.raises(AttributeError):
                setattr(config, name, 1)
        assert config == RunConfig() and config.cap_or(8) == 8
        assert RunConfig(cap=0).cap_or(8) == 0

    def test_override_order(self, capsys, tmp_path, monkeypatch):
        # defaults < the environment's file < --config's file < flags; an
        # unset flag keeps what the file set
        env, cfg = tmp_path / "env.json", tmp_path / "cfg.json"
        env.write_text(json.dumps({"seed": 5, "cap": 9}))
        cfg.write_text(json.dumps({"seed": 9, "cap": 7}))
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        assert RunConfig.load(None) == RunConfig()
        monkeypatch.setenv(CONFIG_ENV, str(env))
        assert RunConfig.load(None) == RunConfig(seed=5, cap=9)
        loaded = RunConfig.load(str(cfg))
        assert loaded == RunConfig(seed=9, cap=7)
        assert (loaded.max_darts, loaded.max_matchings) == (12, 20_000)
        window = lambda *argv: json.loads(invoke(capsys, *argv, "verify", "kdv")[1])["window"]
        assert window() == 4
        assert window("--config", str(cfg)) == 2
        assert window("--config", str(cfg), "--cap", "10") == 5
        assert window("--cap", "6") == 1

    HCIZ = ("matrix", "hciz", "--x", "1,-1", "--y", "1,-1", "--samples", "1000")

    def test_global_seed_reaches_hciz(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        before = invoke(capsys, "--config", str(cfg), "--seed", "5", *self.HCIZ)
        assert before[0] == 0
        assert json.loads(before[1])["seed"] == 5
        assert invoke(capsys, "--seed", "5", *self.HCIZ) == before

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        _, out, _ = invoke(
            capsys, "matrix", "hciz", "--x", "1,-1", "--y", "1,-1",
            "--samples", "5000",
        )
        assert json.loads(out)["seed"] == 7

    @pytest.mark.parametrize(
        "key, argv",
        [
            ("max_darts", ("intersect", "-g", "0", "-n", "3")),
            ("max_matchings", ("matrix", "genus", "--word", "tr2")),
            ("cap", ("verify", "kdv")),
            ("seed", ("intersect", "-g", "0", "-n", "3")),
        ],
    )
    def test_negative_budget_in_config_is_two(self, capsys, tmp_path, key, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: -1}))
        code, out, err = invoke(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err)["message"] == f"--{key.replace('_', '-')} must be >= 0"
        # 0 is a valid budget; only a small cap has its own usage error
        cfg.write_text(json.dumps({key: 0}))
        assert "must be >= 0" not in invoke(capsys, "--config", str(cfg), *argv)[2]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sneaky": 1}))
        code, _, err = invoke(capsys, "--config", str(cfg), "verify", "kdv")
        assert code == 2
        assert "sneaky" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "raw", [{"threads": 1}, {"cap": None}, {"seed": 1.7}, {"seed": True}]
    )
    def test_removed_key_or_non_integer_value_rejected(self, capsys, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = invoke(capsys, "--config", str(cfg), "matrix", "genus", "--word", "tr4")
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert next(iter(raw)) in json.loads(err)["message"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(("seed", "max_darts", "max_matchings", "cap")),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                max_leaves=6,
            ),
        )
    )
    def test_any_json_config_exits_by_contract(self, raw):
        # tmp_path and capsys are per test function, not per example
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(raw))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["--config", str(cfg), "matrix", "genus", "--word", "tr4"])
        assert code in (0, 2, 3)
        if code:
            assert_one_error_line(err.getvalue())



# JSON leaves and containers: every kind a malformed input file may hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["1/2", "-3/4", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ENTRIES = st.integers(-3, 3) | st.sampled_from(["1/2", "-1", "1/0", 0.5, True, None, {}])
MATRICES = st.lists(st.lists(ENTRIES, max_size=3), max_size=3)
TWO_CLASS = {
    "eta": [[0, 1], [1, 0]], "cmat": [[0, 0], [1, 0]], "b": ["-1/2", "1/2"], "b_raised": ["-1/2", "1/2"],
}
FIVE = {"ranks": [1, 1], "boundaries": [[[5]]]}
TARGET_ARGV = ("virasoro", "target", "--data", "{}")
TORSION_ARGV = ("torsion", "--complex", "{}", "--order-check")
# probe -> (cohomology payload, complex payload)
PROBES = {
    "missing-key": ({k: TWO_CLASS[k] for k in ("eta", "cmat", "b")}, {"ranks": [1, 1]}),
    "top-level-list": ([TWO_CLASS], [FIVE]),
    "object-entry": ({**TWO_CLASS, "eta": [[0, {}], [1, 0]]}, {**FIVE, "boundaries": [[[{}]]]}),
    "scalar-matrix": ({**TWO_CLASS, "cmat": 0}, {**FIVE, "boundaries": 5}),
    "zero-denominator": ({**TWO_CLASS, "b": ["1/0", "1/2"]}, {**FIVE, "boundaries": [[["1/0"]]]}),
    "float-entry": ({**TWO_CLASS, "b": [-0.5, 0.5]}, {**FIVE, "ranks": [1.0, 1]}),
    "bool-entry": ({**TWO_CLASS, "eta": [[False, True], [True, 0]]}, {**FIVE, "boundaries": [[[True]]]}),
    "null-entry": ({**TWO_CLASS, "b_raised": [None, "1/2"]}, {**FIVE, "boundaries": [[[None]]]}),
    # refused from the exponent, before a 300001-digit integer is built
    "huge-exponent": ({**TWO_CLASS, "b": ["1e300000", "1/2"]}, {**FIVE, "boundaries": [[["1e300000"]]]}),
}


def run_on_json(payload, *argv):
    """run(argv) with the payload written to a file in place of the "{}"
    argument; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(path) if arg == "{}" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestJsonInputs:
    """`virasoro target --data` and `torsion --complex` files: every entry
    is an int or a rational string, and anything else exits 2."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            pytest.param(argv, payloads[side], id=f"{command}-{probe}")
            for probe, payloads in PROBES.items()
            for side, (command, argv) in enumerate([("target", TARGET_ARGV), ("torsion", TORSION_ARGV)])
        ],
    )
    def test_malformed_file_is_two(self, argv, payload):
        code, out, err = run_on_json(payload, *argv)
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err)["error"] == "usage"

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([TARGET_ARGV, TORSION_ARGV]),
        st.one_of(
            JSON_VALUES,
            st.fixed_dictionaries({}, optional={k: JSON_VALUES | MATRICES for k in TWO_CLASS}),
            st.fixed_dictionaries({k: MATRICES | st.lists(ENTRIES, max_size=3) for k in TWO_CLASS}),
            st.fixed_dictionaries(
                {},
                optional={
                    "ranks": st.lists(st.integers(-1, 3) | ENTRIES, max_size=4) | JSON_VALUES,
                    "boundaries": st.lists(MATRICES, max_size=3) | JSON_VALUES,
                },
            ),
        ),
    )
    def test_any_json_file_exits_by_contract(self, argv, payload):
        code, out, err = run_on_json(payload, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code:
            assert out == ""
            assert_one_error_line(err)
        else:
            assert err == ""

def run_on_text(text, *argv):
    """run(argv) with the raw text written to a file in place of "{}"."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(text)
        argv = [str(path) if arg == "{}" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's int-to-str digit limit in the test itself, to
    read and write the expected values; never around run()."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations, apart from the
    elimination the torsion runs."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


# a 5x5 boundary of 999-digit entries: det(d_1) has about 4995 digits
_RNG = random.Random(5)
WIDE_ROWS = [
    [_RNG.choice((1, -1)) * _RNG.randrange(10**998, 10**999) for _ in range(5)] for _ in range(5)
]


class TestPastTheDigitLimit:
    """A valid request whose exact result has over 4300 digits prints it in
    full with exit 0; an input integer over 4300 digits still exits 2 before
    any work."""

    @pytest.mark.parametrize("order_check", [False, True])
    def test_torsion_of_a_wide_boundary(self, order_check):
        det = leibniz_det(WIDE_ROWS)
        wide = {"ranks": [5, 5], "boundaries": [[[str(x) for x in row] for row in WIDE_ROWS]]}
        argv = ("torsion", "--complex", "{}") + ("--order-check",) * order_check
        code, out, err = run_on_json(wide, *argv)
        assert (code, err) == (0, "")
        with no_digit_limit():
            assert len(str(abs(det))) > 4300
            payload = json.loads(out)
            expected = f"{'-' * (det < 0)}1/{abs(det)}"  # tau = 1 / det d_1
        assert payload["torsion"] == expected
        if order_check:
            assert payload["order_check"]["orders"] == [abs(det), 1]
            assert payload["order_check"]["predicted_abs"] == expected.lstrip("-")
            assert payload["order_check"]["pass"] is True

    def test_moment_with_a_wide_denominator(self, capsys):
        # <(tr M^2)^5> = 945 / lambda^5 at N = 1, here 189 / (2 * 10^4949)
        code, out, err = invoke(
            capsys, "matrix", "moment", "--word", "tr2^5", "--lambda", "1" + "0" * 990
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["moment"] == "189/2" + "0" * 4949

    def test_match_with_wide_lambdas(self, capsys):
        lams = f"1{'0' * 799},2{'0' * 799},3{'0' * 798}7"  # 800 digits each
        code, out, err = invoke(capsys, "matrix", "match", "--order", "2", "--lambda", lams)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["agree"] is payload["order2_agrees"] is True
        value = payload["graph_side"]["2"]
        assert value == payload["wick_log"]["2"] == payload["free_energy_order2"]
        assert len(value.split("/")[1]) > 4300

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("torsion", "--complex", "{}"), '{"ranks":[1,1],"boundaries":[[[1%s]]]}'),
            (("virasoro", "target", "--data", "{}"),
             '{"eta":[[1%s]],"cmat":[[0]],"b":["1/2"],"b_raised":["1/2"]}'),
        ],
    )
    def test_a_json_literal_over_the_limit_is_two_at_once(self, argv, text):
        start = time.perf_counter()
        code, out, err = run_on_text(text % ("0" * 4300), *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert "Exceeds the limit (4300 digits)" in json.loads(err)["message"]

    def test_an_argv_integer_over_the_limit_is_two_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "intersect", "-g", "0", "-n", "1" + "0" * 4300)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert "invalid int value" in json.loads(err)["message"]


class TestOutputs:
    def test_csv_intersect(self, capsys):
        code, out, _ = invoke(capsys, "--format", "csv", "intersect", "-g", "1", "-n", "1")
        assert code == 0
        assert out == "genus,indices,value\n1,1,1/24\n"

    def test_csv_genus(self, capsys):
        _, out, _ = invoke(capsys, "--format", "csv", "matrix", "genus", "--word", "tr6")
        assert out == "genus,coefficient\n0,5\n1,10\n"

    def test_csv_unsupported_elsewhere(self, capsys):
        code, _, _ = invoke(capsys, "--format", "csv", "verify", "kdv")
        assert code == 2

    @pytest.mark.parametrize("argv,module,name", [
        (["suite", "quick"], "taubench.suite", "run_suite"),
        (["--max-darts", "24", "graphs", "enumerate", "--genus", "2", "--faces", "2"],
         "taubench.ribbon", "enumerate_trivalent"),
        # a cap over the monomial budget would exit 3 once the work ran
        (["--cap", "13", "verify", "kdv"], "taubench.ribbon", "base_table"),
        (["matrix", "moment", "--word", "tr2"], "taubench.wick", "wick_moment"),
    ])
    def test_csv_is_refused_before_the_work(self, capsys, monkeypatch, argv, module, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(f"{module}.{name}", refuse)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "--format", "csv", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert json.loads(err) == {
            "error": "usage", "message": "this subcommand has no CSV table form",
        }

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = invoke(
            capsys, "--output", str(target), "intersect", "-g", "0", "-n", "3"
        )
        assert code == 0 and out == ""
        assert target.read_text() == '{"genus":0,"n":3,"numbers":{"(0,0,0)":"1"}}\n'


class TestSchemas:
    """Every JSON-emitting subcommand validates against its shipped schema."""

    def payload(self, capsys, *argv, expect=0):
        code, out, _ = invoke(capsys, *argv)
        assert code == expect
        return json.loads(out)

    def test_graphs(self, capsys):
        validate("graphs-v1", self.payload(
            capsys, "graphs", "enumerate", "--genus", "0", "--faces", "3"))

    def test_intersect(self, capsys):
        validate("intersect-v1", self.payload(capsys, "intersect", "-g", "1", "-n", "1"))

    def test_verify(self, capsys):
        validate("verify-v1", self.payload(capsys, "verify", "kdv"))
        validate("verify-v1", self.payload(capsys, "verify", "string"))

    def test_schur(self, capsys):
        validate("schur-v1", self.payload(
            capsys, "schur", "--partition", "2,1", "--check-kp", "--check-hirota"))

    def test_virasoro_oscillator(self, capsys):
        validate("virasoro-oscillator-v1", self.payload(
            capsys, "virasoro", "oscillator", "--max-mode", "1", "--lambda", "1"))

    def test_virasoro_target(self, capsys):
        validate("virasoro-target-v1", self.payload(capsys, "virasoro", "target"))

    def test_matrix_moment(self, capsys):
        diagonal = self.payload(capsys, "matrix", "moment", "--word", "tr3^2", "--lambda", "3,4,5")
        validate("matrix-moment-v1", diagonal)
        validate("matrix-moment-v2", diagonal)
        validate("matrix-moment-v2", self.payload(capsys, "matrix", "moment", "--word", "tr4"))

    def test_scalar_moment_has_no_n(self, capsys):
        payload = self.payload(capsys, "matrix", "moment", "--word", "tr4")
        assert payload == {"laurent": {"-1": "1", "1": "2"}, "mode": "scalar", "word": [4]}
        validate("matrix-moment-v2", payload)
        with pytest.raises(ValidationError):
            validate("matrix-moment-v1", payload)

    @pytest.mark.parametrize("lams", ["2", "3,4", "3,4,5", "1/2,1/3,1/4,1/5"])
    def test_diagonal_n_is_the_lambda_count(self, capsys, lams):
        payload = self.payload(capsys, "matrix", "moment", "--word", "tr2", "--lambda", lams)
        assert payload["N"] == len(lams.split(",")) == len(payload["lambda"])
        validate("matrix-moment-v2", payload)

    @pytest.mark.parametrize("which", ["kdv", "string"])
    def test_verify_prints_the_residual_report(self, capsys, which):
        fe = assemble_free_energy(ribbon.base_table())
        report = {"kdv": kdv_residual, "string": string_residual}[which](fe)
        report["coverage_gap"] = [
            {"genus": g, "n": n, "indices": list(d)} for g, n, d in fe.coverage_gap
        ]
        report["pass"] = report["counts"]["nonzero"] == 0
        code, out, err = invoke(capsys, "verify", which)
        assert (code, err) == (0, "")
        assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    def test_matrix_genus(self, capsys):
        validate("matrix-genus-v1", self.payload(
            capsys, "matrix", "genus", "--word", "tr6"))

    def test_matrix_match(self, capsys):
        validate("matrix-match-v1", self.payload(
            capsys, "matrix", "match", "--lambda", "3,4"))

    def test_matrix_hciz(self, capsys):
        validate("matrix-hciz-v1", self.payload(
            capsys, "--seed", "0", "matrix", "hciz", "--x", "0.5,2", "--y", "1,3",
            "--samples", "20000"))

    def test_matrix_normalization(self, capsys):
        validate("matrix-normalization-v1", self.payload(
            capsys, "matrix", "normalization", "--lambda", "2"))

    def test_torsion(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({"ranks": [1, 1], "boundaries": [[["5"]]]}))
        validate("torsion-v1", self.payload(capsys, "torsion", "--complex", str(path)))
        validate("torsion-v1", self.payload(
            capsys, "torsion", "--complex", str(path), "--order-check"))

    def test_suite_quick(self, capsys):
        validate("suite-v1", self.payload(capsys, "suite", "quick"))


class TestReadmeCommands:
    """The README's commands with exact output: exit code and sha256 of
    stdout, pinned.  matrix hciz, matrix normalization and suite are left
    out, because they print floats computed by numpy."""

    COMPLEX = '{"ranks":[1,1],"boundaries":[[["5"]]]}'
    PINNED = {
        "graphs enumerate --genus 0 --faces 3":
            "3e2df3e9b2227c48063a70cbca305dd63f4e29d4d58dff76693aa8f27529b78e",
        "intersect -g 0 -n 3":
            "efa7590648acd890af26bec902779ae7df4b624afa3e1f28184372a16847daed",
        "--format csv intersect -g 1 -n 2":
            "38916c69a0ecdd9e283dd879703ad2ec3df2a343bb04dd5bc548d7be37ea23f7",
        "verify kdv":
            "c0d7cdbd0c6ba5a11df196ce0f6a96f4bab2d515331919f518271ce8d16c2e09",
        "verify string":
            "e21a78ad42c0d8b8f5277c360e97d5f34391d3c15048bf94a145a7212751e6d7",
        "schur --partition 2,1 --check-kp --check-hirota":
            "3421d386e6595e6ee595852e665977b28f880e1ba9640537e827cf66fe042c8b",
        "virasoro oscillator --lambda 2/3 --max-mode 3":
            "1bb833f13e02c6f931655abba8601146dea2badd3ae3283a4ac64a77b1001073",
        "virasoro target":
            "ccfe59b6389bd4056ca95275d211f93453daa125839b901fefee01fb4e89e148",
        "matrix moment --word tr3^2 --lambda 3,4,5":
            "f5c5a0ca2e108ebf5ce4f62823f1dafc1b91a30fe8194eac7df9f2292a90e838",
        # {"laurent":{"-1":"1","1":"2"},"mode":"scalar","word":[4]}
        "matrix moment --word tr4":
            "c4580eeaa6541a3c0b29abdeae62d9f53a554a6b31e673f78d390d20e3801586",
        "matrix genus --word tr6":
            "0d2687add88d2f3def806a8fa111b944728053a928aad7b1cb37ae046f0c5a29",
        "matrix match --lambda 3,4,5":
            "c0d2239266fdea81c68cbe625bd6a89e4819132b2f7dee2fb285cec493f8a9ac",
        "torsion --complex complex.json --order-check":
            "183b51a61810071465a3a1c6d144aa1f9fad88ebac0daf187e4ceea34536ad1d",
    }

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_stdout_digest_is_pinned(self, capsys, tmp_path, command):
        path = tmp_path / "complex.json"
        path.write_text(self.COMPLEX)
        argv = [str(path) if arg == "complex.json" else arg for arg in command.split()]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[command]
