"""Tests for the oscillator/vertex/target-Virasoro module.

Heisenberg and Virasoro relations are swept over guarded monomial
windows, and OperatorExpr.apply is compared with `oracle_apply`, the
diff-and-multiply route kept here as the reference.  The printed B^(m)
display of L_k (`bm_display`), the vertex operator Gamma(u, v)
(`vertex_operator_apply`) and the diagonal resummation of its
coefficients (`vertex_diagonal_resum`) live here too: only these tests use
them.  The full closure sweep with its central charge and the
elementary-symmetric oracle grid for coeff_C/coeff_D are acceptance
criteria 6 and 7, defined in `taubench.suite` and run by
`tests/test_acceptance.py`.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from taubench import fock
from taubench.errors import (
    BudgetError,
    DomainError,
    InsufficientCap,
    PoleError,
    TruncationError,
)
from taubench.exact import TruncatedSeries, monomial_name, weight_monomials
from taubench.fock import (
    GR_I,
    CohomologyData,
    GaussianRational,
    OperatorExpr,
    OscillatorParams,
    _window,
    cd_identity_check,
    coeff_C,
    coeff_D,
    fock_space,
    heisenberg,
    oscillator_commutator_check,
    oscillator_virasoro,
    point_target_data,
    t_var,
    target_commutator_report,
    target_space,
    target_virasoro_build,
)


def monomial(names, weights, cap, expo):
    return TruncatedSeries(names, weights, cap, {tuple(expo): 1})


def bm_display(k: int, params: OscillatorParams, cap: int) -> OperatorExpr:
    """The printed closed-form display for L_k on B^(m):
    (1/2) sum_j j x_j d/dx_{j+k} plus i lambda k d/dx_k (k > 0) or
    i lambda k^2 x_k (k < 0); reproduced verbatim for diffing against the
    a-form, not for assertions."""
    lam = params.lambda_param
    if k == 0:
        raw = [(Fraction(params.mu**2 + lam * lam, 2), (), ())]
        raw += [(j, (f"x{j}",), (f"x{j}",)) for j in range(1, cap + 1)]
        return OperatorExpr.build(raw)
    raw = [
        (Fraction(j, 2), (f"x{j}",), (f"x{j + k}",))
        for j in range(1, cap + 1)
        if 1 <= j + k <= cap
    ]
    if k > 0:
        raw.append((GR_I * lam * k, (), (f"x{k}",)))
    else:
        raw.append((GR_I * lam * k * k, (f"x{-k}",), ()))
    return OperatorExpr.build(raw)


def bm_display_diff_report(params: OscillatorParams, cap: int = 8, k_range=(-2, -1, 1, 2)) -> dict:
    """Diff the printed B^(m) display against the a-form on a window."""
    names, weights, series_cap = fock_space(cap)
    out = {"cap": cap, "entries": []}
    for k in k_range:
        a_form = oscillator_virasoro(k, params, cap)
        printed = bm_display(k, params, cap)
        for expo in _window(weights, max(cap - 2 * abs(k), 0)):
            p = TruncatedSeries(names, weights, series_cap, {expo: 1})
            diff = a_form.apply(p) - printed.apply(p)
            out["entries"].append(
                {
                    "k": k,
                    "monomial": list(expo),
                    "agree": diff.is_zero(),
                    "difference": repr(diff),
                }
            )
    out["all_agree"] = all(e["agree"] for e in out["entries"])
    return out


def vertex_operator_apply(
    p: TruncatedSeries, u_order: int, v_order: int
) -> dict[tuple[int, int], TruncatedSeries]:
    """Coefficients of u^a v^b in Gamma(u, v) p, where
    Gamma = exp(sum_j (u^j - v^j) x_j) exp(-sum_j ((u^-j - v^-j)/j) d_j).

    Returns every (a, b) with a <= u_order and b <= v_order; negative powers
    come only from the derivative factor and are bounded by the weight of p,
    so all returned coefficients are complete (internal expansion overshoots
    by that weight).
    """
    if u_order < 0 or v_order < 0:
        raise DomainError("expansion orders must be nonnegative")
    cap = p.cap
    margin = max((p.degree_of(e) for e in p.terms), default=0)
    zero = TruncatedSeries.zero(p.variables, p.weights, cap)

    def add(d, key, series):
        if series.is_zero():
            return
        acc = d.get(key, zero) + series
        if acc.is_zero():
            d.pop(key, None)
        else:
            d[key] = acc

    # derivative factor, exp of a nilpotent operator on the polynomial p
    lower: dict[tuple[int, int], TruncatedSeries] = {(0, 0): p}
    term = {(0, 0): p}
    s = 0
    while term:
        nxt: dict[tuple[int, int], TruncatedSeries] = {}
        for (a, b), series in term.items():
            for j in range(1, len(p.variables) + 1):
                d = series.diff(f"x{j}")
                if d.is_zero():
                    continue
                add(nxt, (a - j, b), d.scale(Fraction(-1, j)))
                add(nxt, (a, b - j), d.scale(Fraction(1, j)))
        s += 1
        term = {key: series.scale(Fraction(1, s)) for key, series in nxt.items()}
        for key, series in term.items():
            add(lower, key, series)

    # multiplication factor exp(sum_j (u^j - v^j) x_j), expanded past the
    # requested orders by the weight of p so sums below are complete
    u_hi, v_hi = u_order + margin, v_order + margin
    raise_ops = []
    for j in range(1, min(cap, max(u_hi, v_hi)) + 1):
        xj = TruncatedSeries.variable(p.variables, p.weights, cap, f"x{j}")
        if j <= u_hi:
            raise_ops.append(((j, 0), xj))
        if j <= v_hi:
            raise_ops.append(((0, j), xj.scale(-1)))
    one = TruncatedSeries.constant(p.variables, p.weights, cap, 1)
    upper: dict[tuple[int, int], TruncatedSeries] = {(0, 0): one}
    term = {(0, 0): one}
    s = 0
    while term:
        nxt = {}
        for (a, b), series in term.items():
            for (da, db), op in raise_ops:
                if a + da > u_hi or b + db > v_hi:
                    continue
                prod = op * series
                if not prod.is_zero():
                    add(nxt, (a + da, b + db), prod)
        s += 1
        term = {key: series.scale(Fraction(1, s)) for key, series in nxt.items()}
        for key, series in term.items():
            add(upper, key, series)

    out: dict[tuple[int, int], TruncatedSeries] = {}
    for (a1, b1), s1 in upper.items():
        for (a2, b2), s2 in lower.items():
            key = (a1 + a2, b1 + b2)
            if key[0] > u_order or key[1] > v_order:
                continue
            add(out, key, s1 * s2)
    return out


def vertex_diagonal_resum(
    coeffs: dict[tuple[int, int], TruncatedSeries], total: int, like: TruncatedSeries
) -> TruncatedSeries:
    """Coefficient of u^total after setting v = u in an expansion."""
    acc = TruncatedSeries.zero(like.variables, like.weights, like.cap)
    for (a, b), series in coeffs.items():
        if a + b == total:
            acc = acc + series
    return acc


def two_class_data():
    return CohomologyData(
        eta=[[0, 1], [1, 0]],
        cmat=[[0, 0], [1, 0]],
        b=[Fraction(-1, 2), Fraction(1, 2)],
        b_raised=[Fraction(-1, 2), Fraction(1, 2)],
    )


def oracle_apply(op, p):
    """The diff-and-multiply applier that OperatorExpr.apply replaced: one
    TruncatedSeries.diff per derivative, then one series product per
    variable, checking the cap before each product.  A variable outside the
    family is a truncation, as in OperatorExpr.apply."""
    result = TruncatedSeries.zero(p.variables, p.weights, p.cap)
    for scalar, tmono, dmono in op.terms:
        q = p
        for name in dmono:
            if name not in p.variables:
                q = TruncatedSeries.zero(p.variables, p.weights, p.cap)
                break
            q = q.diff(name)
            if q.is_zero():
                break
        if q.is_zero():
            continue
        for name in tmono:
            if name not in p.variables:
                raise TruncationError(f"operator variable {name} outside family")
            top = max(q.degree_of(e) for e in q.terms)
            if top + p.weights[p.variables.index(name)] > p.cap:
                raise TruncationError("operator application exceeds the cap")
            q = q * TruncatedSeries.variable(p.variables, p.weights, p.cap, name)
        result = result + q.scale(scalar)
    return result


def assert_integer_columns(op):
    """Every memoized column holds D times an image: ints, or Gaussian
    rationals with int parts."""
    for columns in op._columns.values():
        for column in columns.values():
            for c in column.values():
                parts = (c.real, c.imag) if isinstance(c, GaussianRational) else (c,)
                assert all(type(x) is int for x in parts), (op, column)


def outcome(apply, op, p):
    try:
        return apply(op, p)
    except TruncationError:
        return TruncationError


FAMILIES = {"x": fock_space(6), "t": target_space(two_class_data(), 2, 6)}

# the lambdas of acceptance criterion 6
LAMBDAS = [Fraction(0), Fraction(1), Fraction(2, 3)]


class TestApplyAgainstOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_operators(self, family, seed):
        # scalars with denominators up to 12 in both parts of Q(i), rational
        # and integer ones among them; each raw list is applied once built and
        # once as OperatorExpr(terms), with repeated monomials, unsorted
        # names and zero scalars left in
        names, weights, cap = FAMILIES[family]
        window = list(weight_monomials(weights, cap))
        rng = random.Random(seed)

        def part(top):
            return Fraction(rng.randint(-top, top), rng.randint(1, 12))

        def scalar():
            kind = rng.randrange(3)
            if kind == 0:
                return rng.randint(-3, 3)
            return part(5) if kind == 1 else GaussianRational(part(5), part(3))

        kinds = set()
        for _ in range(60):
            raw = [
                (
                    scalar(),
                    tuple(rng.choice(names) for _ in range(rng.randint(0, 2))),
                    tuple(rng.choice(names) for _ in range(rng.randint(0, 3))),
                )
                for _ in range(rng.randint(1, 5))
            ]
            p = TruncatedSeries(
                names, weights, cap,
                {rng.choice(window): scalar() for _ in range(rng.randint(1, 4))},
            )
            # q shares p's monomials, so its columns come warm from the memo
            shared = {expo: scalar() for expo in p.terms}
            shared[rng.choice(window)] = scalar()
            q = TruncatedSeries(names, weights, cap, shared)
            for op in (OperatorExpr.build(raw), OperatorExpr(tuple(raw))):
                parts = [x for s, *_ in op.terms for x in (Fraction(s.real), Fraction(s.imag))]
                assert op.denominator == math.lcm(*(x.denominator for x in parts))
                for series in (p, q):
                    got = outcome(OperatorExpr.apply, op, series)
                    assert got == outcome(oracle_apply, op, series), (op, series)
                    kinds.add(got is TruncationError)
                assert_integer_columns(op)
        assert kinds == {True, False}

    def test_truncating_column_is_not_memoized(self):
        names, weights, cap = fock_space(3)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        x3 = TruncatedSeries.variable(names, weights, cap, "x3")
        op = OperatorExpr.build([(1, ("x1",), ()), (1, (), ("x3",))])
        # the same monomial under a larger cap is another column
        wide = TruncatedSeries.variable(names, weights, cap + 1, "x3")
        assert op.apply(wide).terms == {(1, 0, 1): 1, (0, 0, 0): 1}
        for _ in range(2):
            with pytest.raises(TruncationError):
                op.apply(x3)
        assert op.apply(one) == TruncatedSeries.variable(names, weights, cap, "x1")
        with pytest.raises(TruncationError):
            op.apply(x3 + one)

    def test_memo_is_outside_equality_hash_and_repr(self):
        params = OscillatorParams(mu=Fraction(1, 2), lambda_param=Fraction(2, 3))
        names, weights, cap = fock_space(6)
        t_names, t_weights, t_cap = target_space(two_class_data(), 3, 6)
        cases = [
            (oscillator_virasoro(k, params, cap), names, weights, cap) for k in (-2, 0, 1)
        ] + [
            (target_virasoro_build(two_class_data(), k, 3), t_names, t_weights, t_cap)
            for k in (-1, 0, 2)
        ]
        derived = {f.name for f in dataclasses.fields(OperatorExpr) if not f.compare}
        assert derived == {"_columns", "denominator", "_numerators"}
        assert all(not f.repr for f in dataclasses.fields(OperatorExpr) if f.name in derived)
        denominators = []
        for op, *family in cases:
            before = (repr(op), hash(op))
            for expo in weight_monomials(family[1], 2):
                p = monomial(*family, expo)
                column = TruncatedSeries(*family, op.image(tuple(family), {expo: 1}))
                assert op.apply(p) == column.scale(Fraction(1, op.denominator))
            assert op._columns
            assert_integer_columns(op)
            fresh = OperatorExpr(op.terms)
            assert not fresh._columns and fresh.denominator == op.denominator
            assert op == fresh and (repr(op), hash(op)) == before == (repr(fresh), hash(fresh))
            denominators.append(op.denominator)
        # oscillator: halves and the thirds of i lambda k, and (mu^2 +
        # lambda^2)/2 = 25/72 in L_0; target: b = +-1/2 in L_0, the C and D
        # coefficients in L_2
        assert denominators == [6, 72, 6, 1, 2, 48]

    def test_repeated_derivatives_and_tt_terms(self):
        names, weights, cap = FAMILIES["t"]
        s = GaussianRational(Fraction(1, 2), Fraction(3))
        op = OperatorExpr.build(
            [
                (s, ("t0a0", "t0a0"), ("t1a1", "t1a1")),
                (GaussianRational(Fraction(0), Fraction(-1)), ("t0a1", "t0a0"), ()),
                (Fraction(2), (), ("t0a0", "t0a0", "t0a0")),
            ]
        )
        for expo in [(0, 0, 0, 2, 0, 0), (3, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)]:
            p = monomial(names, weights, cap, expo)
            assert op.apply(p) == oracle_apply(op, p), expo
        p = monomial(names, weights, cap, (0, 0, 0, 2, 0, 0))
        assert op.apply(p).coefficient((2, 0, 0, 0, 0, 0)) == s * 2
        names, weights, cap = FAMILIES["x"]
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        d11 = OperatorExpr.build([(1, (), ("x1", "x1"))])
        assert d11.apply(x1 * x1 * x1) == x1.scale(6)
        assert OperatorExpr.build([(1, (), ("x9",))]).apply(x1).is_zero()

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_builders(self, k):
        params = OscillatorParams(mu=Fraction(3, 2), lambda_param=Fraction(2, 3))
        names, weights, cap = fock_space(6)
        ops = [
            heisenberg(k, params),
            oscillator_virasoro(k, params, cap),
            bm_display(k, params, cap),
        ]
        if k >= -1:
            data = two_class_data()
            t_names, t_weights, t_cap = target_space(data, 3, 6)
            target = target_virasoro_build(data, k, 3)
            for expo in weight_monomials(t_weights, t_cap):
                p = monomial(t_names, t_weights, t_cap, expo)
                assert outcome(OperatorExpr.apply, target, p) == outcome(
                    oracle_apply, target, p
                ), expo
        for op in ops:
            for expo in weight_monomials(weights, cap):
                p = monomial(names, weights, cap, expo)
                assert outcome(OperatorExpr.apply, op, p) == outcome(
                    oracle_apply, op, p
                ), (op, expo)


class TestHeisenberg:
    def test_lowering_is_derivative(self):
        names, weights, cap = fock_space(6)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        assert heisenberg(1, OscillatorParams()).apply(x1).constant_term().real == 1

    def test_raising_is_multiplication(self):
        names, weights, cap = fock_space(6)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        out = heisenberg(-1, OscillatorParams()).apply(one)
        assert out.coefficient((1, 0, 0, 0, 0, 0)).real == 1

    def test_zero_mode_is_mu(self):
        names, weights, cap = fock_space(4)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        params = OscillatorParams(mu=Fraction(5, 3))
        assert heisenberg(0, params).apply(one) == one.scale(Fraction(5, 3))

    def test_commutation_relations(self):
        # [a_m, a_n] = m delta_{m,-n} on a guarded window
        cap = 10
        names, weights, series_cap = fock_space(cap)
        params = OscillatorParams()
        for m, n in itertools.product(range(-4, 5), repeat=2):
            bound = cap - abs(m) - abs(n)  # two applications never truncate
            for expo in weight_monomials(weights, bound):
                p = monomial(names, weights, series_cap, expo)
                lhs = heisenberg(m, params).apply(heisenberg(n, params).apply(p))
                lhs = lhs - heisenberg(n, params).apply(heisenberg(m, params).apply(p))
                expected = p.scale(m) if m == -n else p.scale(0)
                assert lhs == expected, (m, n, expo)

    def test_truncation_guard(self):
        names, weights, cap = fock_space(3)
        x3 = TruncatedSeries.variable(names, weights, cap, "x3")
        with pytest.raises(TruncationError):
            heisenberg(-1, OscillatorParams()).apply(x3)


class TestOscillatorVirasoro:
    params = OscillatorParams(mu=Fraction(3, 2), lambda_param=Fraction(2, 3))

    def test_l0_vacuum(self):
        names, weights, cap = fock_space(8)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        out = oscillator_virasoro(0, self.params, cap).apply(one)
        assert out == one.scale((Fraction(3, 2) ** 2 + Fraction(2, 3) ** 2) / 2)

    def test_l1_on_x1(self):
        names, weights, cap = fock_space(8)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        out = oscillator_virasoro(1, self.params, cap).apply(x1)
        expected = GaussianRational(Fraction(3, 2), Fraction(2, 3))  # mu + i lambda
        assert out.constant_term() == expected
        assert len(out.terms) == 1

    def test_lminus1_on_vacuum(self):
        names, weights, cap = fock_space(8)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        out = oscillator_virasoro(-1, self.params, cap).apply(one)
        expected = GaussianRational(Fraction(3, 2), Fraction(-2, 3))  # mu - i lambda
        assert out.coefficient((1,) + (0,) * 7) == expected

    @pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
    def test_weight_bookkeeping(self, k):
        # L_k maps weight w monomials into weight w - k
        names, weights, cap = fock_space(10)
        for expo in weight_monomials(weights, 4):
            p = monomial(names, weights, cap, expo)
            w = p.degree_of(expo)
            out = oscillator_virasoro(k, self.params, cap).apply(p)
            assert all(out.degree_of(e) == w - k for e in out.terms), (k, expo)

    def test_central_term_is_needed(self):
        # dropping the central term must break (2, -2): redo the sweep by
        # hand without it and observe a nonzero residual on the vacuum
        params = OscillatorParams(lambda_param=Fraction(2, 3))
        names, weights, cap = fock_space(10)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        l2, lm2, l0 = (oscillator_virasoro(k, params, cap) for k in (2, -2, 0))
        lhs = l2.apply(lm2.apply(one)) - lm2.apply(l2.apply(one))
        rhs_no_central = l0.apply(one).scale(4)
        central = (1 + 12 * Fraction(2, 3) ** 2) * Fraction(2**3 - 2, 12)
        assert lhs != rhs_no_central
        assert lhs == rhs_no_central + one.scale(central)

    def _applied_control(self, monkeypatch, mutate, lam):
        """Run the (2, -2) check with oscillator_virasoro mutated; every
        window monomial must fail, each with the residual that apply gives
        by hand.  Returns the failures' (monomial series, residual) pairs."""
        built = oscillator_virasoro  # the module's own, imported before any patch
        params = OscillatorParams(mu=Fraction(3, 2), lambda_param=lam)

        def mutated(k, params, cap):
            return mutate(k, built(k, params, cap))

        monkeypatch.setattr(fock, "oscillator_virasoro", mutated)
        m, n, cap = 2, -2, 8
        report = oscillator_commutator_check(m, n, params, safe_cap=cap)
        assert report["all_zero"] is False
        assert len(report["failures"]) == report["window_size"]
        names, weights, series_cap = fock_space(cap)
        l_m, l_n, l_sum = (mutated(k, params, cap) for k in (m, n, m + n))
        central = (1 + 12 * lam**2) * Fraction(m**3 - m, 12)
        out = []
        for failure in report["failures"]:
            p = monomial(names, weights, series_cap, failure["monomial"])
            residual = l_m.apply(l_n.apply(p)) - l_n.apply(l_m.apply(p))
            residual = residual - l_sum.apply(p).scale(m - n) - p.scale(central)
            assert failure["residual"] == repr(residual)
            out.append((p, residual))
        return out

    def test_shifted_l0_fails_with_the_applied_residual(self, monkeypatch):
        # negative control through the column composition: L_0 + 1 breaks
        # [L_2, L_-2] = 4 L_0 + central by -4
        def shifted(k, op):
            return OperatorExpr.build([*op.terms, (1, (), ())]) if k == 0 else op

        for lam in LAMBDAS:
            for p, residual in self._applied_control(monkeypatch, shifted, lam):
                assert residual == p.scale(-4)

    def test_flipped_structure_sign_fails_with_the_applied_residual(self, monkeypatch):
        # negative control: -L_0 in the structure term reads (m - n) for
        # (n - m), leaving 2 (m - n) L_0 = 8 L_0
        def negated(k, op):
            return OperatorExpr.build([(-s, t, d) for s, t, d in op.terms]) if k == 0 else op

        for lam in LAMBDAS:
            l0 = oscillator_virasoro(0, OscillatorParams(mu=Fraction(3, 2), lambda_param=lam), 8)
            for p, residual in self._applied_control(monkeypatch, negated, lam):
                assert residual == l0.apply(p).scale(8)

    def test_insufficient_cap(self):
        with pytest.raises(InsufficientCap):
            oscillator_commutator_check(3, 3, self.params, safe_cap=8)

    def test_sweep_budget(self, monkeypatch):
        monkeypatch.setattr(fock, "oscillator_commutator_check", lambda m, n, params, cap: (m, n))
        # the default run, the README run and criterion 6's grid are accepted,
        # in sweep order
        for max_mode, cap in ((2, 10), (3, 10), (4, 12)):
            modes = range(-max_mode, max_mode + 1)
            assert fock.oscillator_sweep(max_mode, self.params, cap) == list(
                itertools.product(modes, modes)
            )
        for max_mode, cap in ((5, 16), (2, 14), (0, fock.MAX_SWEEP_WORK + 1)):
            with pytest.raises(BudgetError):
                fock.oscillator_sweep(max_mode, self.params, cap)

    def test_truncation_is_never_silent(self):
        # L_{-1} x4 holds x5 d/dx4 x4 = x5, outside x_1..x_4; a builder that
        # dropped out-of-family factors would return 0 here
        names, weights, cap = fock_space(4)
        x4 = TruncatedSeries.variable(names, weights, cap, "x4")
        with pytest.raises(TruncationError):
            oscillator_virasoro(-1, OscillatorParams(), 4).apply(x4)

    def test_bm_display_diff_report_structure(self):
        report = bm_display_diff_report(self.params, cap=6, k_range=(-1, 1))
        assert {"cap", "entries", "all_agree"} <= set(report)
        assert all({"k", "monomial", "agree", "difference"} <= set(e) for e in report["entries"])


class TestVertexOperator:
    def test_on_vacuum_is_raising_exponential(self):
        names, weights, cap = fock_space(6)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        co = vertex_operator_apply(one, 4, 4)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        x2 = TruncatedSeries.variable(names, weights, cap, "x2")
        assert co[(1, 0)] == x1
        assert co[(0, 1)] == x1.scale(-1)
        assert co[(2, 0)] == x2 + (x1 * x1).scale(Fraction(1, 2))
        assert co[(1, 1)] == (x1 * x1).scale(-1)

    def test_diagonal_collapses_to_identity(self):
        names, weights, cap = fock_space(6)
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        x2 = TruncatedSeries.variable(names, weights, cap, "x2")
        p = x1 * x2 + x1.scale(Fraction(1, 3))
        co = vertex_operator_apply(p, 6, 6)
        assert vertex_diagonal_resum(co, 0, p) == p
        for s in range(-4, 5):
            if s:
                assert vertex_diagonal_resum(co, s, p).is_zero()

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_commutation_with_heisenberg(self, j):
        # [a_j, Gamma] = (u^j - v^j) Gamma, orderwise, inside the window
        # where the weight cap cannot truncate either side
        names, weights, cap = fock_space(8)
        params = OscillatorParams()
        x1 = TruncatedSeries.variable(names, weights, cap, "x1")
        x2 = TruncatedSeries.variable(names, weights, cap, "x2")
        p = x1 * x2 + x1.scale(Fraction(1, 3))
        orders = 6
        co = vertex_operator_apply(p, orders, orders)
        inner = vertex_operator_apply(heisenberg(j, params).apply(p), orders, orders)
        zero = p.scale(0)
        for a in range(-3, 3):
            for b in range(-3, 3):
                if 3 + a + b + j > cap:  # truncation-free comparison window
                    continue
                lhs = heisenberg(j, params).apply(co.get((a, b), zero)) - inner.get(
                    (a, b), zero
                )
                rhs = co.get((a - j, b), zero) - co.get((a, b - j), zero)
                assert lhs == rhs, (j, a, b)

    def test_negative_orders_rejected(self):
        names, weights, cap = fock_space(4)
        one = TruncatedSeries.constant(names, weights, cap, 1)
        with pytest.raises(DomainError):
            vertex_operator_apply(one, -1, 2)


class TestCoefficients:
    def test_coeff_c_frozen_examples(self):
        assert coeff_C(0, 0, 1, Fraction(1, 2)) == Fraction(3, 4)
        assert coeff_C(1, 0, 1, Fraction(1, 2)) == 2
        with pytest.raises(PoleError):
            coeff_C(1, 0, 1, Fraction(0))

    def test_coeff_c_beyond_index_set(self):
        assert coeff_C(3, 0, 1, Fraction(1, 2)) == 0  # j > n + 1

    def test_coeff_d_frozen_examples(self):
        assert coeff_D(0, 0, 1, Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
        assert coeff_D(1, 0, 1, Fraction(1, 2), Fraction(3, 2)) == Fraction(3, 2)
        assert coeff_D(0, 1, 1, Fraction(1), Fraction(1)) == 2

    def test_coeff_d_empty_window_with_j(self):
        # n = 0, m = 0 makes the index window [0, -1] empty
        assert coeff_D(1, 0, 0, Fraction(1), Fraction(1)) == 0

    @pytest.mark.parametrize("j,m,n", [(0, 0, 2), (1, 1, 3), (2, 0, 3)])
    def test_cleared_coeff_c_is_polynomial_in_b(self, j, m, n):
        # after clearing denominators, degree in b is n + 1 - j: the
        # (n + 2 - j)-th finite difference over integer-spaced samples is 0
        deg = n + 1 - j

        def cleared(b):
            denom = Fraction(1)
            for k in range(1, n + 1):
                denom *= m + k
            return coeff_C(j, m, n, b) * denom

        samples = [cleared(Fraction(100 + 7 * i)) for i in range(deg + 2)]
        for _ in range(deg + 1):
            samples = [b - a for a, b in zip(samples, samples[1:])]
        assert samples == [Fraction(0)]


class TestCdIdentities:
    def test_report_shape_and_pole_logging(self):
        report = cd_identity_check(
            [0, 1], [0, 1], [1, 2], [1, 2], [(Fraction(1, 2), Fraction(1, 2)), (Fraction(-1), Fraction(1))]
        )
        counts = report["counts"]
        assert set(counts) == {"pass", "fail", "pole_excluded", "out_of_domain"}
        assert counts["pole_excluded"] > 0  # b = -1 hits b + l = 0
        assert counts["pass"] + counts["fail"] > 0

    def test_first_identity_passes_at_j_zero(self):
        report = cd_identity_check(
            [0], [0, 1, 2], [1, 2, 3], [1, 2, 3], [(Fraction(1, 2), Fraction(1, 2))]
        )
        first = [e for e in report["entries"] if e["identity"] == 1]
        assert first and all(e["status"] == "pass" for e in first)

    def test_second_identity_failure_is_recorded_exactly(self):
        # the printed second identity does not hold even at j = 0; the
        # report must carry the exact discrepancy rather than hide it
        report = cd_identity_check([0], [0], [2], [1], [(Fraction(1, 2), Fraction(1, 2))])
        second = [e for e in report["entries"] if e["identity"] == 2]
        assert any(e["status"] == "fail" and Fraction(e["discrepancy"]) != 0 for e in second)


class TestCohomologyData:
    def test_validation(self):
        with pytest.raises(DomainError):
            CohomologyData(eta=[[0, 1], [2, 0]], cmat=[[0, 0], [0, 0]], b=[0, 0], b_raised=[0, 0])
        with pytest.raises(DomainError):
            CohomologyData(eta=[[1, 0], [0, 0]], cmat=[[0, 0], [0, 0]], b=[0, 0], b_raised=[0, 0])
        with pytest.raises(DomainError):
            CohomologyData(eta=[[1, 0], [0, 1]], cmat=[[1, 0], [0, 1]], b=[0, 0], b_raised=[0, 0])

    @staticmethod
    def shift_data(d, corner=0):
        # eta antidiagonal, C the shift (C^d = 0, C^(d-1) != 0); a corner
        # entry closes the shift into a cycle, which is not nilpotent
        cmat = [[int(i == k + 1 or (corner and (i, k) == (0, d - 1))) for k in range(d)]
                for i in range(d)]
        eta = [[int(i + k == d - 1) for k in range(d)] for i in range(d)]
        return {"eta": eta, "cmat": cmat, "b": [0] * d, "b_raised": [0] * d}

    @pytest.mark.parametrize("d", range(1, 11))
    def test_nilpotency_by_squaring(self, d):
        # the shift of every index up to the budget passes; the cycle fails
        assert CohomologyData.from_json(self.shift_data(d)).dim == d
        with pytest.raises(DomainError, match="nilpotent"):
            CohomologyData.from_json(self.shift_data(d, corner=1))

    def test_dimension_priced_before_the_first_product(self, monkeypatch):
        # dim^4 = 10^4 is the budget; dimension 11 is refused at once
        with pytest.raises(
            BudgetError, match=r"^cohomology work 14641 \(dim\^4\) exceeds the budget 10000$"
        ):
            CohomologyData.from_json(self.shift_data(11))
        # neither the rank of eta nor a power of C is started
        monkeypatch.setattr(fock, "rational_rank", None)
        monkeypatch.setattr(fock, "mat_mul", None)
        with pytest.raises(BudgetError):
            CohomologyData.from_json(self.shift_data(40))

    def test_json_roundtrip(self):
        data = two_class_data()
        assert CohomologyData.from_json(data.to_json()).to_json() == data.to_json()

    def test_eta_inverse(self):
        data = two_class_data()
        inv = data.eta_inverse()
        d = data.dim
        prod = [
            [sum(data.eta[i][k] * inv[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        assert prod == [[1, 0], [0, 1]]


class TestTargetVirasoro:
    def test_point_target_lminus1_matches_printed_form(self):
        expected = OperatorExpr.build(
            [(Fraction(m), (t_var(m, 0),), (t_var(m - 1, 0),)) for m in range(1, 5)]
            + [(Fraction(1, 2), (t_var(0, 0), t_var(0, 0)), ())]
        )
        assert target_virasoro_build(point_target_data(), -1, 4) == expected

    def test_self_commutator_vanishes(self):
        for data in (point_target_data(), two_class_data()):
            report = target_commutator_report(1, 1, data, window=2)
            assert report["all_zero"] and report["all_zero_swapped_sign"]

    @pytest.mark.parametrize("pair", [(-1, 0), (-1, 1), (0, 1), (1, 2)])
    def test_point_target_closes_under_swapped_sign(self, pair):
        report = target_commutator_report(pair[0], pair[1], point_target_data(), window=3)
        assert report["all_zero_swapped_sign"], pair

    @pytest.mark.parametrize("pair", [(-1, 0), (-1, 1), (0, 1)])
    def test_two_class_report_is_emitted(self, pair):
        # the printed operators need not close for generic data; the report
        # itself (with exact residuals) is the contract
        report = target_commutator_report(pair[0], pair[1], two_class_data(), window=2)
        assert {"n1", "n", "all_zero", "all_zero_swapped_sign", "entries"} <= set(report)
        assert all({"monomial", "zero", "residual"} <= set(e) for e in report["entries"])

    @pytest.mark.parametrize("pair", [(-1, 1), (0, 2)])
    def test_two_class_residuals_match_apply(self, pair):
        # the report's residuals against apply by hand, in both sign readings
        n1, n = pair
        data = two_class_data()
        report = target_commutator_report(n1, n, data, window=2)
        names, weights, cap = target_space(data, 5, 8)  # max_m = window + 3
        l_n1, l_n, l_sum = (target_virasoro_build(data, k, 5) for k in (n1, n, n1 + n))
        assert not report["all_zero"]
        assert len(report["entries"]) == len(list(weight_monomials(weights, 2)))
        for entry, expo in zip(report["entries"], weight_monomials(weights, 2)):
            p = monomial(names, weights, cap, expo)
            lhs = l_n1.apply(l_n.apply(p)) - l_n.apply(l_n1.apply(p))
            assert entry["monomial"] == monomial_name(names, expo)
            assert entry["residual"] == (lhs - l_sum.apply(p).scale(n - n1)).to_json()
            assert entry["zero_swapped_sign"] == (lhs == l_sum.apply(p).scale(n1 - n))

    def test_below_range_rejected(self):
        with pytest.raises(DomainError):
            target_virasoro_build(point_target_data(), -2, 4)

    def test_empty_window(self):
        with pytest.raises(InsufficientCap):
            target_commutator_report(-1, 0, point_target_data(), window=-1)
