"""Acceptance gate: one test per criterion, each emitting a single
pass/fail line (visible with `pytest -s tests/test_acceptance.py`).

Criteria 1-12 are defined once, in `taubench.suite.CRITERIA`; each test
here runs one of them with the default configuration and asserts its
result and its time budget, so the gate and `taubench suite` check the
same thing.  Each of criteria 1-12 is also shown to fail: one fault
planted in the mathematics it reads (a formula, a constant or a
convention, by monkeypatch) must turn its result to FAIL.  Criterion 13
runs `suite quick` twice through the CLI and compares the bytes.  The
strict reading of the mutation criterion ("perturb any one table entry")
is carried as a strict xfail for the one entry that no residual window can
reach at the shipped coverage; see the repository notes for the analysis.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from taubench import fock, kdv, ribbon, schur, torsion, wick
from taubench.cli import RunConfig, run
from taubench.kdv import mutation_report
from taubench.ribbon import base_table
from taubench.suite import CRITERIA

MAX_DARTS = 12
CAP = 8

# time budget in seconds of suite criteria 1-12, in order
BUDGETS = (5, 120, 60, 10, 10, 60, 60, 10, 60, 30, 30, 30)


def report(number, name, ok, budget, elapsed):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {name} ({elapsed:.2f}s)"
    print(line)
    assert ok, line
    assert elapsed <= budget, f"criterion {number} over budget: {elapsed:.1f}s > {budget}s"


def criterion_test(number):
    """The gate for suite criterion `number` under its budget.

    `RunConfig()` rather than `RunConfig.load` keeps a `TAUBENCH_CONFIG`
    in the environment from changing the inputs: seed 0, 12 darts, cap 8
    and 20 000 matchings.
    """

    def test():
        start = time.monotonic()
        result = CRITERIA[number - 1](RunConfig(), False)
        report(number, result["name"], result["pass"], BUDGETS[number - 1],
               time.monotonic() - start)

    return test


# named one by one so that each criterion keeps its own test id
test_criterion_01_base_cases = criterion_test(1)
test_criterion_02_twelve_dart_blocks = criterion_test(2)
test_criterion_03_kdv_residual_and_mutation = criterion_test(3)
test_criterion_04_string_residual = criterion_test(4)
test_criterion_05_schur_kp = criterion_test(5)
test_criterion_06_oscillator_virasoro = criterion_test(6)
test_criterion_07_coefficient_machinery = criterion_test(7)
test_criterion_08_matrix_moments = criterion_test(8)
test_criterion_09_kontsevich_match = criterion_test(9)
test_criterion_10_gaussian_normalization = criterion_test(10)
test_criterion_11_hciz = criterion_test(11)
test_criterion_12_torsion = criterion_test(12)


def test_every_criterion_has_a_budget():
    assert len(BUDGETS) == len(CRITERIA)


def _changing_hciz():
    draws = itertools.count()
    return lambda *args: {"pass": True, "draw": next(draws)}


@pytest.mark.parametrize(
    "number, target, make_fake",
    [
        # every commutator closes, but with the wrong central charge
        (6, "taubench.fock.oscillator_commutator_check",
         lambda: lambda *args, **kwargs: {"all_zero": True, "central_charge": "0"}),
        # a target report entry without its "zero" verdict
        (7, "taubench.fock.target_commutator_report",
         lambda: lambda *args, **kwargs: {
             "entries": [{"monomial": [], "residual": "0"}],
             "all_zero_swapped_sign": True,
         }),
        # a Monte Carlo report that is not repeatable under its seed
        (11, "taubench.wick.hciz_check", _changing_hciz),
    ],
    ids=["06-central-charge", "07-zero-key", "11-seed-repeat"],
)
def test_criterion_catches_drift(monkeypatch, number, target, make_fake):
    monkeypatch.setattr(target, make_fake())
    assert CRITERIA[number - 1](RunConfig(), False)["pass"] is False


def _kdv_double_u_u0(formula):
    def faulty(f):
        u = f.diff("t0", 2)
        return formula(f) - u * u.diff("t0")

    return faulty


def _string_without_t0_squared(formula):
    return lambda f: formula(f) + (f.variable("t0") * f.variable("t0")).scale(Fraction(1, 2))


def _on_block_12(kontsevich_sum):
    return lambda g, n, *args: kontsevich_sum(g, n, *args) * (2 if (g, n) == (1, 2) else 1)


def _without_pair_factor(formula_value):
    return lambda lams: formula_value(lams) / 2.0 ** (len(lams) * (len(lams) - 1) / 2)


# test id -> (criterion, owner, name, fault made from the original): one
# planted fault in the mathematics the criterion reads, never a faked report
PLANTED_FAULTS = {
    "01-minus-one-double-factorial": (
        1, ribbon, "double_factorial", lambda df: lambda n: 2 if n == -1 else df(n)),
    "02-block-12-doubled": (2, ribbon, "kontsevich_sum", _on_block_12),
    # not the dispersive term, which no covered coefficient reads at 12 darts
    "03-kdv-u-u0-doubled": (3, kdv._RESIDUALS, "kdv", _kdv_double_u_u0),
    "04-string-without-t0-squared": (4, kdv._RESIDUALS, "string", _string_without_t0_squared),
    "05-odd-characters-negated": (
        5, schur, "_character",
        lambda chi: lambda beads, cycles, memo: (-1) ** len(cycles) * chi(beads, cycles, memo)),
    "06-raising-mode-n-plus-one": (
        6, fock, "_mode",
        lambda mode: lambda n, mu: (1 - n, (f"x{-n}",), ()) if n < 0 else mode(n, mu)),
    "07-coeff-c-doubled": (7, fock, "coeff_C", lambda coeff: lambda *args: 2 * coeff(*args)),
    "08-matchings-doubled": (
        8, wick, "_shape_table",
        lambda table: lambda word: tuple((e, f, 2 * m) for e, f, m in table(word))),
    "09-source-times-negated": (
        9, wick, "source_times", lambda times: lambda *args: [-t for t in times(*args)]),
    "10-no-pair-factor": (10, wick, "_formula_value", _without_pair_factor),
    "11-hciz-scaled": (11, wick, "hciz_closed_form", lambda hciz: lambda x, y: 1.01 * hciz(x, y)),
    # a magnitude: the criterion compares absolute values, so a sign flip passes
    "12-torsion-doubled": (12, torsion, "torsion", lambda tau: lambda c: 2 * tau(c)),
}
# memos a planted fault would feed, or whose values from the sound code it
# would read in place of its own
MEMOS = (
    ribbon._graph_sum_table,
    ribbon._graph_sum_plan,
    ribbon._convention_ratios,
    ribbon._block_amplitudes,
    kdv._residual_run,
    wick._multigraph_table,
    fock.oscillator_virasoro,
)
# (module, memo) -> why no planted fault reads it; every other memo in
# src/ must be in MEMOS (tests/test_src_surface.py checks both lists)
UNFAULTED_MEMOS = {
    ("taubench.ribbon", "block_indices"):
        "index tuples of a block, from its genus and face count alone",
    ("taubench.kdv", "_assembly_layout"):
        "the walk order of block_indices' tuples; no fault changes an index",
    ("taubench.wick", "_shape_table"):
        "fault 08 replaces it whole and rescales what the sound memo returns",
    ("taubench.wick", "_legendre_rule"):
        "Gauss-Legendre nodes; fault 10 changes the closed form, not the rule",
}


@pytest.fixture
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_criterion_fails_on_a_planted_fault(monkeypatch, cold_memos, fault):
    number, owner, name, make_fault = PLANTED_FAULTS[fault]
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, make_fault(owner[name]))
    else:
        monkeypatch.setattr(owner, name, make_fault(getattr(owner, name)))
    assert CRITERIA[number - 1](RunConfig(), False)["pass"] is False


@pytest.fixture(scope="module")
def table():
    return base_table(max_darts=MAX_DARTS)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "strict reading: perturbing the entry <tau1 tau1>_1 (key g1:(1,1)) is "
        "invisible because its detecting monomials need the 18-dart graph "
        "blocks, and the default coverage stays at 12 darts; see the README"
    ),
)
def test_criterion_03_strict_every_entry(table):
    flips = mutation_report(table, cap=CAP)
    assert all(flips.values())


def test_criterion_13_global_determinism(tmp_path):
    start = time.monotonic()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run(["--output", str(first), "suite", "quick"]) == 0
    assert run(["--output", str(second), "suite", "quick"]) == 0
    elapsed = time.monotonic() - start
    payload = json.loads(first.read_text())
    ok = (
        first.read_bytes() == second.read_bytes()
        and payload["all_pass"]
        and elapsed <= 120
    )
    report(13, "suite quick byte-identical twice within budget", ok, 120, elapsed)
