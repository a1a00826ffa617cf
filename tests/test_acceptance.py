"""Acceptance gate: the nine primary verification criteria of this package.

Each criterion is one test with its stated tolerance, so `pytest -v` prints
exactly one pass/fail line per criterion; a summary line is also printed for
captured output.  All symbolic criteria demand exact equality over the
rational-function field; the numeric criteria carry explicit tolerances.
"""

import math
import time
from itertools import product

from _closed_forms import falling
from kzdyn.cli import SuiteConfig, run_suite
from kzdyn.dyn import B_additive, B_w, lambda_pairing_symbols, shifted_pairings
from kzdyn.hyper import order_invariance_reports
from kzdyn.rep import enumerate_basis, p_elements, verma_symbolic, verma_weight
from kzdyn.roots import WeightVec, omega_bracket
from kzdyn.symexpr import rational, symbol


def _record(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_pbw_order_invariance():
    # Exact symmetrized equality of the weighted basis sums of every
    # arrangement level below the top with those of the top level N-1, the
    # standard arrangement: sl3 on 1-2 tensor factors up to weight (2,2), sl4
    # on one factor up to weight (1,1,1).  Budget: 5 minutes.
    start = time.monotonic()
    checked = 0
    for n_factors in (1, 2):
        factors = [verma_symbolic(3, j + 1) for j in range(n_factors)]
        for m1, m2 in product(range(3), range(3)):
            if m1 + m2 == 0:
                continue
            space = enumerate_basis(factors, (m1, m2))
            (report,) = order_invariance_reports(space)
            assert report.symmetrized_equal, (n_factors, (m1, m2))
            checked += 1
    for nu in product(range(2), range(2), range(2)):
        if sum(nu) == 0:
            continue
        space = enumerate_basis([verma_symbolic(4, 1)], nu)
        for report in order_invariance_reports(space):
            assert report.symmetrized_equal, (nu, report.h)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _record(1, f"exact symmetrized equality on {checked} space/level pairs "
               f"in {elapsed:.1f}s")


def test_criterion_2_additive_form_equals_product():
    # The additive one-level operator equals the bracket-word product
    # evaluated at the parameter shifted by rho + half the space weight,
    # exactly over the rational-function field: sl2 up to m=4 and sl3 up to
    # weight (2,2) on two-factor tensors, every level.  Budget: 5 minutes.
    start = time.monotonic()
    checked = 0
    for m in range(1, 5):
        space = enumerate_basis(
            [verma_symbolic(2, 1), verma_symbolic(2, 2)], (m,)
        )
        lam = lambda_pairing_symbols(2)
        arg = shifted_pairings(space, lam)
        add = B_additive(space, 1, lam)
        prod = B_w(space, omega_bracket(2, 1)[1], arg)
        assert add == prod, ("sl2", m)
        checked += 1
    for m1, m2 in product(range(3), range(3)):
        if m1 + m2 == 0:
            continue
        space = enumerate_basis(
            [verma_symbolic(3, 1), verma_symbolic(3, 2)], (m1, m2)
        )
        lam = lambda_pairing_symbols(3)
        arg = shifted_pairings(space, lam)
        for r in (1, 2):
            add = B_additive(space, r, lam)
            prod = B_w(space, omega_bracket(3, r)[1], arg)
            assert add == prod, ("sl3", (m1, m2), r)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _record(2, f"additive = shifted product exactly on {checked} "
               f"space/level pairs in {elapsed:.1f}s")


def test_criterion_3_fusion_stack():
    # The solved fusion element satisfies its defining recurrence exactly to
    # depth 4 for sl2 and sl3; its components equal the dual-element
    # coefficient matrices weight by weight; the daggered contraction equals
    # the longest-word operator; and the sl3 components match the golden
    # rank-two double-sum table up to order (2,2), all exactly.
    rank1 = run_suite(SuiteConfig(suite="fusion", n=2, nu=(4,), depth=4))
    assert rank1["verdict"] == "pass"
    rank2 = run_suite(SuiteConfig(suite="fusion", n=3, nu=(1, 1), depth=4))
    assert rank2["verdict"] == "pass"
    for report in (rank1, rank2):
        recurrence = [
            w for w in report["witnesses"] if w["check"] == "defining-recurrence"
        ]
        assert recurrence[0]["residual_zero"] and recurrence[0]["structure_ok"]
        duals = [
            w for w in report["witnesses"] if w["check"] == "dual-element-match"
        ]
        assert duals and all(w["equal"] for w in duals)
        contraction = [
            w
            for w in report["witnesses"]
            if w["check"] == "contraction-vs-longest-word"
        ]
        assert contraction[0]["equal"]
    golden = run_suite(SuiteConfig(suite="appendix-c", max_ab=2))
    assert golden["verdict"] == "pass"
    table = [
        w for w in golden["witnesses"] if w["check"] == "fusion-double-sum"
    ]
    assert len(table) == 8 and all(w["equal"] for w in table)
    _record(3, "recurrence residual zero at depth 4 (sl2, sl3); dual-element "
               "and contraction identities exact; golden table matched to (2,2)")


def test_criterion_4_difference_operator_compatibility():
    # Exact zeroth-order derivative/difference intertwining residual over the
    # full symbolic field for sl2 two-factor tensors up to m=2 and sl3 at
    # weight (1,1); the exchange relation between the two distinct sl3
    # levels at weight (1,1) (sl2 has one level, so nothing to exchange).
    for nu in ((1,), (2,)):
        report = run_suite(SuiteConfig(suite="compatibility", n=2, nu=nu))
        assert report["verdict"] == "pass", ("sl2", nu)
    report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(1, 1)))
    assert report["verdict"] == "pass"
    assert all(w["passed"] for w in report["witnesses"])
    exchange = [w for w in report["witnesses"] if w["check"] == "exchange"]
    assert [(w["k"], w["l"]) for w in exchange] == [(1, 2)]
    _record(4, "derivative-intertwining residuals identically zero for sl2 "
               "(m<=2) and sl3 (1,1) two-factor tensors; the sl3 (1,2) "
               "exchange residual identically zero at (1,1)")


def test_criterion_5_rational_to_trigonometric_reduction():
    # The three-point reduction identity holds exactly on every singular
    # vector: sl2 for weights up to twice the simple root, sl3 at the sum of
    # the simple roots.
    total_checked = 0
    for n, nu in ((2, (1,)), (2, (2,)), (3, (1, 1))):
        report = run_suite(
            SuiteConfig(
                suite="appendix-b", n=n, nu=nu, factors=("verma",) * 3
            )
        )
        assert report["verdict"] == "pass", (n, nu)
        assert all(w["passed"] and w["checked"] >= 1 for w in report["witnesses"])
        total_checked += sum(w["checked"] for w in report["witnesses"])
    _record(5, f"reduction identity exact on {total_checked} singular-vector "
               f"checks across both ranks")


def test_criterion_6_rank_one_difference_equation_numeric():
    # Reduced solution ratio versus the difference operator: equal exactly in
    # Q(l1, kap) for all 28 cases 0 <= m <= p <= 6; contiguous-parameter
    # identity of the ordered beta integral <= 1e-10 on ten points; quadrature
    # versus closed form <= 1e-6 for dimensions m <= 2.  Budget: 1 minute.
    start = time.monotonic()
    main = run_suite(SuiteConfig(suite="main-theorem-sl2"))
    assert main["verdict"] == "pass"
    assert len(main["witnesses"]) == 28
    assert all(w["equal"] is True for w in main["witnesses"])
    selberg = run_suite(SuiteConfig(suite="selberg"))
    assert selberg["verdict"] == "pass"
    differences = [
        w for w in selberg["witnesses"] if w["check"] == "difference-relation"
    ]
    assert len(differences) == 10
    assert all(w["error"] <= 1e-10 for w in differences)
    quads = [
        w for w in selberg["witnesses"] if w["check"] == "quadrature-vs-closed"
    ]
    assert len(quads) == 10
    assert all(w["m"] <= 2 and w["rel_error"] <= 1e-6 for w in quads)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _record(6, f"difference equation exact (28 cases), contiguous identity "
               f"<=1e-10 (10 pts), quadrature <=1e-6 (10 pts) in {elapsed:.1f}s")


def test_criterion_7_determinant_formula_numeric():
    # Single-entry determinant against the factored closed form C(kap) D(l1):
    # equal exactly as gamma products in Q(l1, kap) for all 28 cases
    # 0 <= m <= p <= 6, so the implied constant C is invariant under every
    # parameter step.
    report = run_suite(SuiteConfig(suite="determinant-sl2"))
    assert report["verdict"] == "pass"
    assert len(report["witnesses"]) == 28
    assert all(w["equal"] is True for w in report["witnesses"])
    _record(7, "determinant factorization exact (28 cases), so step-invariant")


def test_criterion_8_order_combinatorics():
    # Reversal schedules between consecutive special orders (one three-term
    # reversal per straddling pair, normal intermediates, correct endpoints)
    # and the closed-form sign table, for every size up to 6 and every level.
    report = run_suite(SuiteConfig(suite="sigma-orders", n=6))
    assert report["verdict"] == "pass"
    assert [w["n"] for w in report["witnesses"]] == [2, 3, 4, 5, 6]
    assert all(
        w["orders_normal"] and w["reversal_schedules_ok"] and w["sign_table_ok"]
        for w in report["witnesses"]
    )
    _record(8, "schedules, normality, and sign tables exact for all sizes "
               "up to 6")


def test_criterion_9_dual_element_golden_values():
    # Rank-one dual elements match the factorial-over-falling closed form
    # exactly up to depth 4, and the rank-two inverse-form truncation matches
    # the golden double-sum table exactly up to order (2,2).
    l1 = symbol("l1")
    spec = verma_weight(2, WeightVec((l1,)))
    for k in range(1, 5):
        space = enumerate_basis([spec], (k,))
        coeff = p_elements(space)[(space.basis[0][0], (k,))]
        assert coeff == rational(math.factorial(k)) / falling(l1, k), k
    golden = run_suite(SuiteConfig(suite="appendix-c", max_ab=2))
    assert golden["verdict"] == "pass"
    inverse_rows = [
        w for w in golden["witnesses"] if w["check"] == "inverse-form-double-sum"
    ]
    assert len(inverse_rows) == 4 and all(w["equal"] for w in inverse_rows)
    _record(9, "rank-one dual coefficients and rank-two inverse-form "
               "truncation match the golden closed forms exactly")
