"""Aggregated verification suite behind `taubench suite quick|full`.

This module is the only definition of acceptance criteria 1-12:
`tests/test_acceptance.py` runs each entry of `CRITERIA` under its time
budget and computes nothing of its own.  Each criterion returns
{id, name, pass, detail}; everything exact is asserted exactly, numeric
paths carry their tolerances.  The mutation criterion treats table
entries that no residual window can reach (their detecting monomials
need graph blocks beyond the coverage cap) as documented exceptions
rather than failures; they are listed explicitly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DomainError


def _criterion(cid, name, passed, detail):
    return {"id": cid, "name": name, "pass": bool(passed), "detail": detail}


def _crit_base_cases(config, full):
    from .ribbon import extract_intersection_numbers

    tau03 = extract_intersection_numbers(0, 3, config.max_darts).entries.get((0, (0, 0, 0)))
    tau1 = extract_intersection_numbers(1, 1, config.max_darts).entries.get((1, (1,)))
    return _criterion(
        1,
        "intersection base cases",
        tau03 == 1 and tau1 == Fraction(1, 24),
        {"tau0^3": str(tau03), "tau1": str(tau1)},
    )


def _crit_twelve_dart_blocks(config, full):
    from .ribbon import extract_intersection_numbers

    tau1_tau03 = extract_intersection_numbers(0, 4, config.max_darts).entries.get((0, (1, 0, 0, 0)))
    tau0_tau2 = extract_intersection_numbers(1, 2, config.max_darts).entries.get((1, (2, 0)))
    return _criterion(
        2,
        "(0,4) and (1,2) extraction with string consistency",
        tau1_tau03 == 1 and tau0_tau2 == Fraction(1, 24),
        {"tau1 tau0^3": str(tau1_tau03), "tau0 tau2": str(tau0_tau2)},
    )


def _crit_kdv(config, full):
    from .kdv import DEFAULT_CAP, assemble_free_energy, kdv_residual, mutation_report
    from .ribbon import base_table

    table = base_table(max_darts=config.max_darts)
    fe = assemble_free_energy(table, cap=config.cap_or(DEFAULT_CAP))
    counts = kdv_residual(fe)["counts"]
    flips = mutation_report(table, cap=fe.series.cap)
    invisible = sorted(k for k, v in flips.items() if not v)
    reachable_ok = all(v for k, v in flips.items() if k not in invisible)
    return _criterion(
        3,
        "KdV residual zero + mutation sensitivity",
        not counts["nonzero"] and reachable_ok and len(invisible) <= 1,
        {
            "counts": counts,
            "flips": flips,
            "mutation_invisible": invisible,
            "note": (
                "entries in mutation_invisible are outside every residual "
                "window at this coverage (detecting monomials need the "
                "18-dart block); see the repository notes"
            ),
        },
    )


def _crit_string(config, full):
    from .kdv import DEFAULT_CAP, assemble_free_energy, string_residual
    from .ribbon import base_table

    table = base_table(max_darts=config.max_darts)
    fe = assemble_free_energy(table, cap=config.cap_or(DEFAULT_CAP))
    counts = string_residual(fe)["counts"]
    return _criterion(4, "string residual zero", not counts["nonzero"], {"counts": counts})


def _crit_schur_kp(config, full):
    from .exact import x_variables, TruncatedSeries
    from .schur import kp_checks, kp_hirota_residual, kp_pde_residual, partitions_of, schur_lambda

    max_size = 5 if full else 4
    failures = []
    for size in range(1, max_size + 1):
        for p in partitions_of(size):
            checks = kp_checks(schur_lambda(p))
            if not all(checks.values()):
                failures.append({"partition": list(p.parts), "checks": checks})
    names, weights, cap = x_variables(3, 2)
    x1 = TruncatedSeries.variable(names, weights, cap, "x1")
    non_solution = x1 * x1
    negative_ok = (
        not kp_hirota_residual(non_solution).is_zero()
        and not kp_pde_residual(non_solution).is_zero()
    )
    return _criterion(
        5,
        f"Schur tau functions solve KP (sizes <= {max_size})",
        not failures and negative_ok,
        {"failures": failures, "x1^2_nonzero": negative_ok},
    )


def _crit_oscillator(config, full):
    from .fock import OscillatorParams, oscillator_sweep

    bad = []
    for lam in (Fraction(0), Fraction(1), Fraction(2, 3)):
        params = OscillatorParams(mu=Fraction(1, 2), lambda_param=lam)
        central_charge = str(1 + 12 * lam * lam)
        reports = oscillator_sweep(3, params)
        for (m, n), report in zip(itertools.product(range(-3, 4), repeat=2), reports):
            if not report["all_zero"] or report["central_charge"] != central_charge:
                bad.append({"lambda": str(lam), "m": m, "n": n})
    return _criterion(
        6,
        "oscillator Virasoro closure, c = 1 + 12 lambda^2",
        not bad,
        {"failures": bad},
    )


def _coeff_oracle_e(j, values):
    poly = [Fraction(1)]
    for v in values:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + 1] += c / v
        poly = nxt
    return poly[j] if j < len(poly) else Fraction(0)


def _crit_coefficients(config, full):
    import math

    from .fock import (
        cd_identity_check,
        coeff_C,
        coeff_D,
        point_target_data,
        target_commutator_report,
    )

    bs = [Fraction(1, 2), Fraction(3, 7), Fraction(5)]
    mismatches = 0
    for j, m, n, b in itertools.product(range(3), range(4), range(1, 5), bs):
        values = [b + l for l in range(m, m + n + 1)]
        pref = Fraction(1)
        for v in values:
            pref *= v
        for k in range(1, n + 1):
            pref /= m + k
        if coeff_C(j, m, n, b) != pref * _coeff_oracle_e(j, values):
            mismatches += 1
        window = [b + l for l in range(-m, n - m)]
        if j > len(window):
            if coeff_D(j, m, n, b, b + 1) != 0:
                mismatches += 1
            continue
        pref = Fraction(1)
        for l in range(m + 1):
            pref *= b + 1 + l
        for l in range(n - m):
            pref *= b + l
        pref /= math.factorial(m) * math.factorial(max(0, n - m - 1))
        if coeff_D(j, m, n, b, b + 1) != pref * _coeff_oracle_e(j, window):
            mismatches += 1
    cd = cd_identity_check(
        [0, 1], [0, 1], [1, 2], [1, 2], [(Fraction(1, 2), Fraction(1, 2))]
    )
    target = target_commutator_report(-1, 0, point_target_data(), window=2)
    reports_ok = bool(cd["entries"]) and bool(target["entries"])
    reports_ok = reports_ok and all("zero" in e for e in target["entries"])
    return _criterion(
        7,
        "coefficient oracles and identity/commutator reports",
        mismatches == 0 and reports_ok,
        {
            "grid_mismatches": mismatches,
            "cd_counts": cd["counts"],
            "point_target_closes_swapped_sign": target["all_zero_swapped_sign"],
        },
    )


def _crit_moments(config, full):
    from .wick import TraceWord, genus_expansion, wick_moment

    m4 = wick_moment(None, TraceWord((4,)), config.max_matchings)
    split = genus_expansion(TraceWord((4,)), config.max_matchings)
    catalan3 = genus_expansion(TraceWord((6,)), config.max_matchings)[0]
    ok = (
        m4 == {-1: Fraction(1), 1: Fraction(2)}
        and split == {0: 2, 1: 1}
        and catalan3 == 5
    )
    return _criterion(
        8,
        "scalar moments and genus split (Catalan oracle)",
        ok,
        {
            "trM4": {str(p): str(c) for p, c in m4.items()},
            "genus_split": {str(g): str(c) for g, c in split.items()},
            "catalan3": str(catalan3),
        },
    )


def _crit_match(config, full):
    from .errors import ConventionMismatch
    from .wick import kontsevich_match

    cases = [
        (Fraction(3), Fraction(4)),
        (Fraction(3), Fraction(4), Fraction(5)),
    ]
    if full:
        cases.append((Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)))
    results, ok = [], True
    for lams in cases:
        try:
            report = kontsevich_match(
                len(lams),
                lams,
                2,
                max_darts=config.max_darts,
                max_matchings=config.max_matchings,
            )
            results.append({"lambda": report["lambda"], "agree": True})
        except ConventionMismatch as exc:
            ok = False
            results.append({"lambda": [str(v) for v in lams], "agree": False})
    return _criterion(
        9, "Kontsevich match at vertex order 2", ok, {"cases": results}
    )


def _crit_normalization(config, full):
    from .wick import gaussian_normalization_check

    r1 = gaussian_normalization_check((Fraction(1),), 1e-10)
    r2 = gaussian_normalization_check((Fraction(1), Fraction(2)), 1e-6)
    return _criterion(
        10,
        "Gaussian normalization constant by quadrature",
        r1["pass"] and r2["pass"],
        {
            "N1_relative_error": r1["relative_error"],
            "N2_relative_error": r2["relative_error"],
            "convention": r1["convention"],
        },
    )


def _crit_hciz(config, full):
    from .wick import hciz_check

    samples = 400_000 if full else 200_000
    configs = (
        ((1.0, -1.0), (1.0, -1.0)),
        ((0.5, 2.0), (1.0, 3.0)),
        ((1.0, -1.0), (0.0, 0.0)),  # degenerate limit
    )
    reports = [
        hciz_check(x, y, samples, config.seed + idx)
        for idx, (x, y) in enumerate(configs)
    ]
    repeat = hciz_check(*configs[1], samples, config.seed + 1)
    return _criterion(
        11,
        "rank-2 Harish-Chandra Monte Carlo",
        all(r["pass"] for r in reports) and repeat == reports[1],
        {"reports": reports},
    )


def _crit_torsion(config, full):
    from .torsion import (
        BasedChainComplex,
        direct_sum,
        random_acyclic_complex,
        ses_multiplicativity_check,
        standard_sum_maps,
        torsion,
        torsion_order_check,
    )

    five = BasedChainComplex((1, 1), [[[5]]])
    hand_ok = abs(torsion(five)) == Fraction(1, 5)
    rng = random.Random(config.seed + 11)
    order_fail = 0
    for _ in range(20):
        if not torsion_order_check(random_acyclic_complex(rng))["pass"]:
            order_fail += 1
    ses_fail = 0
    rng = random.Random(config.seed + 5)
    for _ in range(10):
        cp = random_acyclic_complex(rng)
        cpp = random_acyclic_complex(rng)
        c = direct_sum(cp, cpp)
        incl, proj = standard_sum_maps(cp, cpp, c)
        if not ses_multiplicativity_check(cp, c, cpp, incl, proj)["abs_equal"]:
            ses_fail += 1
    return _criterion(
        12,
        "torsion hand case, order theorem, SES multiplicativity",
        hand_ok and order_fail == 0 and ses_fail == 0,
        {
            "hand_case": hand_ok,
            "order_check_failures": order_fail,
            "ses_failures": ses_fail,
        },
    )


CRITERIA = (
    _crit_base_cases,
    _crit_twelve_dart_blocks,
    _crit_kdv,
    _crit_string,
    _crit_schur_kp,
    _crit_oscillator,
    _crit_coefficients,
    _crit_moments,
    _crit_match,
    _crit_normalization,
    _crit_hciz,
    _crit_torsion,
)


def run_suite(level: str, config) -> dict:
    if level not in ("quick", "full"):
        raise DomainError(f"unknown suite level {level!r}")
    full = level == "full"
    criteria = [fn(config, full) for fn in CRITERIA]
    return {
        "level": level,
        "criteria": criteria,
        "all_pass": all(c["pass"] for c in criteria),
    }
