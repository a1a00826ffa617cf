"""Tests for the command-line harness: configuration validation, suite
reports and their schema, deterministic dumps, and exit codes."""

import importlib
import json
import os
import pkgutil
import random
import re
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy

import kzdyn
from kzdyn import __version__
from kzdyn.cli import (
    DUMP_KINDS,
    SCHEMA_VERSION,
    SUITES,
    CapabilityExceeded,
    SuiteConfig,
    UnknownKind,
    UnknownSuite,
    dump_object,
    main,
    report_text,
    run_suite,
)
from kzdyn.dyn import (
    K_operator,
    PoleHit,
    formal_z_exponents,
    fusion_solve,
    lambda_pairing_symbols,
)
from kzdyn.gamma import normal_form
from kzdyn.numeric import QuadratureNotConverged
from kzdyn.rep import WeightSpaceOperator, enumerate_basis, verma_symbolic
from kzdyn.roots import serialize_order, special_order
from kzdyn.symexpr import RF_ONE, DivisionByZero, InexactDivision, ParseError, parse


def _swap_row(monkeypatch, command: str, work) -> None:
    """Put ``work`` in place of the check of `verify sigma-orders` or the
    render of `dump order`, keeping the row's parameters."""
    from kzdyn import cli as cli_module

    if command == "verify":
        table, name, make = cli_module._SUITE_TABLE, "sigma-orders", cli_module._Suite
    else:
        table, name, make = cli_module._DUMP_TABLE, "order", cli_module._Dump
    monkeypatch.setitem(table, name, make(work, table[name].params))


# a flag the suite does not read, given explicitly: (suite, flag, value, field)
_UNREAD = [
    ("compatibility", "--depth", "4", {"depth": 4}),
    ("selberg", "--n", "3", {"n": 3}),
    ("sigma-orders", "--nu", "1", {"nu": (1,)}),
    ("appendix-c", "--factors", "verma", {"factors": ("verma",)}),
    ("appendix-c", "--n", "3", {"n": 3}),
    ("additive-form", "--tol", "1e-9", {"tol": 1e-9}),
    ("fusion", "--max-ab", "1", {"max_ab": 1}),
    ("main-theorem-sl2", "--tol", "1e-9", {"tol": 1e-9}),
    ("determinant-sl2", "--tol", "1e-9", {"tol": 1e-9}),
]

# runs that would pass with nothing checked, and their error lines: each
# appendix-b space is non-empty, but no vector of it is killed by E, and the
# appendix-c tables at max-ab 0 hold no entry to compare
_VACUOUS = [
    (
        "appendix-b --n 2 --nu 3 --factors lp:1,lp:1,lp:1",
        "the weight space at nu 3 of the factors lp:1,lp:1,lp:1 has no singular vector",
    ),
    (
        "appendix-b --n 2 --nu 2 --factors lp:1,lp:1",
        "the weight space at nu 2 of the factors lp:1,lp:1 has no singular vector",
    ),
    ("appendix-c --max-ab 0", "suite appendix-c supports 1 <= max-ab <= 3"),
]

# the same for a dump kind: (kind, flag, value, param)
_DUMP_UNREAD = [
    ("order", "--depth", "9", {"depth": 9}),
    ("sigma", "--index", "1", {"index": 1}),
    ("operator", "--h", "1", {"h": 1}),
    ("fusion", "--factors", "verma", {"factors": ("verma",)}),
    ("phi-vector", "--k", "1", {"k": 1}),
    ("forest", "--depth", "2", {"depth": 2}),
]

# one configuration over each dump row's caps
_DUMP_CAPS = [
    "order --n 9",
    "sigma --n 1",
    "sigma --n 2",  # a reversal schedule needs 2 <= h <= n-1
    "operator --nu 9 --factors verma,verma,verma,verma",
    "fusion --n 7",
    "phi-vector --n 5",
    "forest --factors verma,verma,verma,verma",
]


class TestConfigValidation:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite(SuiteConfig(suite="bogus"))

    def test_n_out_of_range(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="pbw-invariance", n=7))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="additive-form", n=5))

    def test_nu_length_must_match_rank(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="additive-form", n=2, nu=(1, 1)))

    def test_nu_budget(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="compatibility", n=2, nu=(9,)))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="additive-form", n=2, nu=(0,)))

    def test_factor_specs(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="compatibility", factors=("spam",)))
        with pytest.raises(CapabilityExceeded):
            run_suite(
                SuiteConfig(suite="compatibility", n=3, factors=("lp:2", "verma"))
            )
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="compatibility", factors=("lp:x",)))
        with pytest.raises(CapabilityExceeded, match="malformed factor spec 'lp:x'"):
            dump_object("operator", {"factors": ("lp:x",)})

    def test_appendix_b_needs_two_factors(self):
        with pytest.raises(CapabilityExceeded, match="2 <= the number of factors"):
            run_suite(SuiteConfig(suite="appendix-b", factors=("verma",)))

    @pytest.mark.parametrize("command", ["verify compatibility", "dump operator"])
    def test_empty_weight_space_exits_two(self, capsys, command):
        # L(1) (x) L(1) has weights down to nu = 2 only: every check on the
        # empty space at nu = 3 would pass vacuously
        argv = [*command.split(), "--n", "2", "--nu", "3", "--factors", "lp:1,lp:1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the weight space at nu 3 of the factors lp:1,lp:1 is empty\n"
        )

    @pytest.mark.parametrize("command, error", _VACUOUS, ids=[c for c, _ in _VACUOUS])
    def test_vacuous_run_exits_two_without_a_report(self, capsys, tmp_path, command, error):
        out = tmp_path / "report.json"
        assert main(["verify", *command.split(), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("suite", SUITES)
    def test_no_suite_passes_with_nothing_checked_at_its_low_bounds(self, suite):
        from kzdyn import cli as cli_module

        # every capped integer parameter at its low bound; nu, factors and
        # tol keep their defaults
        low = {
            name: bound
            for name, (_, bound, _) in cli_module._SUITE_TABLE[suite].params.items()
            if name not in ("nu", "factors") and isinstance(bound, int)
        }
        report = run_suite(SuiteConfig(suite=suite, **low))
        assert report["witnesses"], low
        assert all(w.get("checked") != 0 for w in report["witnesses"]), low

    def test_tol_caps(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="selberg", tol=1e-20))

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_tol_exits_two(self, capsys, value):
        assert main(["verify", "selberg", f"--tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite selberg needs a finite tol\n"

    def test_depth_and_table_caps(self, capsys):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="fusion", depth=9))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="appendix-c", max_ab=5))
        for line in _DUMP_CAPS:
            kind = line.split()[0]
            assert main(["dump", *line.split()]) == 2, line
            assert capsys.readouterr().err.startswith(f"error: dump {kind} supports ")

    @pytest.mark.parametrize(
        "suite, flag, value, field",
        _UNREAD,
        ids=[f"{suite} {flag}" for suite, flag, _, _ in _UNREAD],
    )
    def test_unread_parameter_exits_two(self, capsys, suite, flag, value, field):
        assert main(["verify", suite, flag, value]) == 2
        assert capsys.readouterr().err == f"error: suite {suite} does not read {flag}\n"
        with pytest.raises(CapabilityExceeded, match=f"does not read {flag}$"):
            run_suite(SuiteConfig(suite=suite, **field))

    @pytest.mark.parametrize(
        "kind, flag, value, param",
        _DUMP_UNREAD,
        ids=[f"{kind} {flag}" for kind, flag, _, _ in _DUMP_UNREAD],
    )
    def test_dump_unread_parameter_exits_two(self, capsys, kind, flag, value, param):
        assert main(["dump", kind, flag, value]) == 2
        assert capsys.readouterr().err == f"error: dump {kind} does not read {flag}\n"
        with pytest.raises(CapabilityExceeded, match=f"does not read {flag}$"):
            dump_object(kind, param)

    def test_registry_is_complete(self):
        assert len(SUITES) == 10
        assert len(DUMP_KINDS) == 6

    def test_readme_lists_the_flags_each_suite_reads(self):
        from kzdyn import cli as cli_module

        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        for heading, table in (
            ("### Suites", cli_module._SUITE_TABLE),
            ("### Dumps", cli_module._DUMP_TABLE),
        ):
            section = text.split(heading + "\n", 1)[1].split("\n#", 1)[0]
            listed = {}
            for line in section.splitlines():
                # a suite that reads no flag has an empty "Reads" cell
                match = re.match(r"\| `([a-z0-9-]+)` \| ((?:`--[a-z-]+` ?)*)\|", line)
                if match:
                    flags = re.findall(r"`(--[a-z-]+)`", match.group(2))
                    listed[match.group(1)] = flags
            assert listed == {
                name: ["--" + param.replace("_", "-") for param in row.params]
                for name, row in table.items()
            }, heading


def _schema_check(report, suite):
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["artifact"] == {"name": "kzdyn", "version": __version__}
    assert report["suite"] == suite
    assert report["verdict"] in ("pass", "fail", "flagged")
    assert isinstance(report["witnesses"], list)
    assert isinstance(report["warnings"], list)
    assert "total_seconds" in report["timings"]
    json.dumps(report)  # fully serializable


class TestSymbolicSuites:
    def test_sigma_orders(self):
        report = run_suite(SuiteConfig(suite="sigma-orders", n=5))
        _schema_check(report, "sigma-orders")
        assert report["verdict"] == "pass"
        assert [w["n"] for w in report["witnesses"]] == [2, 3, 4, 5]
        assert all(
            w["orders_normal"] and w["reversal_schedules_ok"] and w["sign_table_ok"]
            for w in report["witnesses"]
        )

    def test_pbw_invariance_minimal(self):
        report = run_suite(SuiteConfig(suite="pbw-invariance", n=3, nu=(1, 0)))
        _schema_check(report, "pbw-invariance")
        assert report["verdict"] == "pass"
        (witness,) = report["witnesses"]
        assert witness["h"] == 1
        assert witness["raw_equal"] and witness["symmetrized_equal"]
        assert "seconds" not in witness  # timing lives in the timings section

    def test_pbw_invariance_compares_phi_vector(self, monkeypatch):
        # a level vector with its first coefficient doubled must fail; at the
        # defaults no color has two copies, so no averaging can hide it
        from kzdyn import hyper

        phi_vector = hyper.phi_vector

        def doubled(space, flavor="standard"):
            pv = phi_vector(space, flavor)
            if pv.flavor.h == space.pbw_basis.n_rank - 1:  # the standard side
                return pv
            (exps, value), *rest = pv.terms
            terms = ((exps, value + value), *rest)
            return hyper.PhiVector(pv.space, pv.flavor, pv.basis, terms)

        monkeypatch.setattr(hyper, "phi_vector", doubled)
        report = run_suite(SuiteConfig(suite="pbw-invariance"))
        assert report["verdict"] == "fail"
        first = report["witnesses"][0]
        assert first["h"] == 1 and first["mismatches"]

    def test_pbw_invariance_flagged_on_raw_mismatch(self):
        # at this deeper two-factor weight the symmetrized identity holds but
        # the canonical variable copies disagree before averaging, so the
        # suite reports the open-question verdict
        report = run_suite(
            SuiteConfig(
                suite="pbw-invariance",
                n=3,
                nu=(2, 2),
                factors=("verma", "verma"),
            )
        )
        assert report["verdict"] == "flagged"
        assert report["warnings"]
        by_level = {w["h"]: w for w in report["witnesses"]}
        assert not by_level[1]["raw_equal"]
        assert by_level[1]["symmetrized_equal"]
        assert list(by_level) == [1]  # level 2 is the standard arrangement

    def test_pbw_invariance_flagged_at_rank_four(self):
        report = run_suite(SuiteConfig(suite="pbw-invariance", n=4, nu=(1, 2, 2)))
        assert report["verdict"] == "flagged"
        assert [w["h"] for w in report["witnesses"]] == [1, 2]
        assert all(w["symmetrized_equal"] for w in report["witnesses"])

    def test_additive_form_default(self):
        report = run_suite(SuiteConfig(suite="additive-form"))
        _schema_check(report, "additive-form")
        assert report["verdict"] == "pass"
        assert report["witnesses"] == [{"r": 1, "equal": True, "dim": 3}]

    def test_fusion_small_depth(self):
        report = run_suite(SuiteConfig(suite="fusion", depth=2, nu=(2,)))
        _schema_check(report, "fusion")
        assert report["verdict"] == "pass"
        checks = {w["check"] for w in report["witnesses"]}
        assert checks == {
            "defining-recurrence",
            "dual-element-match",
            "contraction-vs-longest-word",
        }
        first = report["witnesses"][0]
        assert first["structure_ok"] and first["residual_zero"]

    def test_fusion_rank2(self):
        report = run_suite(
            SuiteConfig(suite="fusion", n=3, nu=(1, 1), depth=2)
        )
        assert report["verdict"] == "pass"

    def test_fusion_contraction_mismatch_names_first_entry(self, capsys, monkeypatch):
        from kzdyn import cli as cli_module

        true_q_dagger = cli_module.q_dagger
        changed = {}

        def broken_q_dagger(space, fusion):
            op = true_q_dagger(space, fusion)
            key = max(op.entries)
            entries = dict(op.entries)
            entries[key] = op.entry(*key) + RF_ONE
            changed.update(key=key, true=op.entry(*key), broken=entries[key])
            return WeightSpaceOperator(op.domain, op.codomain, entries)

        monkeypatch.setattr(cli_module, "q_dagger", broken_q_dagger)
        report = run_suite(SuiteConfig(suite="fusion", n=3, nu=(1, 1), depth=2))
        assert report["verdict"] == "fail"
        witness = report["witnesses"][-1]
        assert witness["check"] == "contraction-vs-longest-word"
        assert not witness["equal"]
        row, col = changed["key"]
        assert witness["first_mismatch"] == {
            "row": row,
            "col": col,
            "lhs": str(changed["true"]),
            "rhs": str(changed["broken"]),
        }
        code = main(["verify", "fusion", "--n", "3", "--nu", "1,1", "--depth", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["witnesses"][-1] == witness

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "no-asserts"])
    def test_malformed_fusion_element_fails_structure_check(self, flags):
        # the pair ((2,), (1,)) does not have the weight (1,) of its
        # component; the second element has the solved pairs with one
        # coefficient changed, so only its residual is nonzero.  The verdict
        # must not rest on `assert`, which -O strips
        code = (
            "from kzdyn import cli\n"
            "from kzdyn.dyn import FusionElement, fusion_solve\n"
            "from kzdyn.symexpr import RF_ONE\n"
            "malformed = FusionElement(\n"
            "    2, 1, {(0,): {((0,), (0,)): RF_ONE}, (1,): {((2,), (1,)): RF_ONE}}\n"
            ")\n"
            "solved = fusion_solve(2, 1)\n"
            "((key, c),) = solved.component((1,)).items()\n"
            "changed = FusionElement(\n"
            "    2, 1, {**solved.components, (1,): {key: c + RF_ONE}}\n"
            ")\n"
            "for element in (malformed, changed):\n"
            "    cli.fusion_solve = lambda n, depth: element\n"
            "    report = cli.run_suite(cli.SuiteConfig(suite='fusion', depth=1, nu=(1,)))\n"
            "    witness = report['witnesses'][0]\n"
            "    print(element.structure_ok(), witness['structure_ok'],\n"
            "          element.residual_zero(), witness['residual_zero'], report['verdict'])\n"
        )
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False False False False fail",
            "True True False False fail",
        ]

    def test_compatibility_default(self):
        report = run_suite(SuiteConfig(suite="compatibility"))
        _schema_check(report, "compatibility")
        assert report["verdict"] == "pass"
        checks = [w["check"] for w in report["witnesses"]]
        # sl2 has one level, so no pair of distinct levels to exchange
        assert checks.count("exchange") == 0
        assert checks.count("derivative-intertwining") == 2
        report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(1, 0)))
        assert report["verdict"] == "pass"
        exchange = [w for w in report["witnesses"] if w["check"] == "exchange"]
        assert [(w["k"], w["l"]) for w in exchange] == [(1, 2)]

    def test_exchange_row_catches_a_shift_along_the_wrong_coweight(self, monkeypatch):
        # with every kappa shift along omega_1, K_1(lam + kap omega_2) is built
        # at the wrong parameter and the (1, 2) exchange row must fail
        from kzdyn import dyn

        shift = dyn._kappa_shift
        monkeypatch.setattr(
            dyn, "_kappa_shift", lambda pairings, level, kap: shift(pairings, 1, kap)
        )
        report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(1, 1)))
        assert report["verdict"] == "fail"
        exchange = [w for w in report["witnesses"] if w["check"] == "exchange"]
        assert [(w["k"], w["l"], w["passed"]) for w in exchange] == [(1, 2, False)]
        witness = exchange[0]["witness"]
        assert set(witness) == {"row", "col", "lhs", "rhs"}
        assert witness["lhs"] != witness["rhs"]

    def test_derivative_rows_name_the_failing_part(self, monkeypatch):
        # formal z exponents of level 1 at every level: the exchange row
        # cannot see it, and every derivative row at k = 2 fails its exponents
        from kzdyn import dyn

        formal = dyn.formal_z_exponents
        monkeypatch.setattr(dyn, "formal_z_exponents", lambda space, k: formal(space, 1))
        report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(1, 1)))
        assert report["verdict"] == "fail"
        failed = [w for w in report["witnesses"] if not w["passed"]]
        assert [(w["check"], w["j"], w["k"]) for w in failed] == [
            ("derivative-intertwining", 1, 2),
            ("derivative-intertwining", 2, 2),
        ]
        assert all(w["checked"] == 36 for w in failed)
        for w in failed:
            witness = dict(w["witness"])
            assert witness.pop("lhs") != witness.pop("rhs")
            assert witness.pop("part") == "exponents"
            assert set(witness) == {"row", "col"}

    def test_rank3_compatibility_takes_no_general_gcd(self, monkeypatch):
        # the poles of the one-root series stay linear factors, so the
        # operators of this suite combine without a gcd of whole denominators
        from kzdyn import symexpr

        calls = []
        ring = symexpr._ring_gcd_cofactors

        def counted(p, q):
            calls.append((p, q))
            return ring(p, q)

        monkeypatch.setattr(symexpr, "_ring_gcd_cofactors", counted)
        report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(2, 0)))
        assert report["verdict"] == "pass"
        assert calls == []

    def test_appendix_b_default(self):
        report = run_suite(SuiteConfig(suite="appendix-b"))
        _schema_check(report, "appendix-b")
        assert report["verdict"] == "pass"
        assert [w["position"] for w in report["witnesses"]] == [1, 2]
        assert all(w["checked"] >= 1 for w in report["witnesses"])

    def test_appendix_c_small_table(self):
        report = run_suite(SuiteConfig(suite="appendix-c", max_ab=1))
        _schema_check(report, "appendix-c")
        assert report["verdict"] == "pass"
        kinds = [w["check"] for w in report["witnesses"]]
        assert kinds.count("fusion-double-sum") == 3  # (0,1), (1,0), (1,1)
        assert kinds.count("inverse-form-double-sum") == 1  # (1,1)


class TestNumericSuites:
    def test_selberg_suite(self):
        report = run_suite(SuiteConfig(suite="selberg"))
        _schema_check(report, "selberg")
        assert report["verdict"] == "pass"
        kinds = [w["check"] for w in report["witnesses"]]
        assert kinds.count("difference-relation") == 10
        assert kinds.count("quadrature-vs-closed") == 10
        assert all(w["passed"] for w in report["witnesses"])

    def test_main_theorem_suite(self):
        # one exact identity per 0 <= m <= p <= 6, with no float and no tol
        report = run_suite(SuiteConfig(suite="main-theorem-sl2"))
        _schema_check(report, "main-theorem-sl2")
        assert report["verdict"] == "pass"
        assert report["params"] == {}
        assert report["witnesses"] == [
            {"p": p, "m": m, "equal": True} for p in range(7) for m in range(p + 1)
        ]

    @pytest.mark.parametrize("mutant", ["exponent", "entry"])
    def test_main_theorem_mutant_names_its_mismatch(self, monkeypatch, mutant):
        # K_1 with its formal z_1 exponent off by one, or with its entry
        # doubled, at p = 3, m = 1 only
        from kzdyn import cli as cli_module

        def at_p3_m1(space) -> bool:
            return (space.factors[0].p, space.nu0) == (3, (1,))

        if mutant == "exponent":
            def mutated(space, k):
                formal = formal_z_exponents(space, k)
                return (formal[0] + RF_ONE,) if at_p3_m1(space) else formal

            monkeypatch.setattr(cli_module, "formal_z_exponents", mutated)
        else:
            def mutated(space, k, pairings):
                op = K_operator(space, k, pairings)
                return op.scale(2) if at_p3_m1(space) else op

            monkeypatch.setattr(cli_module, "K_operator", mutated)
        report = run_suite(SuiteConfig(suite="main-theorem-sl2"))
        assert report["verdict"] == "fail"
        failed = [w for w in report["witnesses"] if not w["equal"]]
        assert [(w["p"], w["m"]) for w in failed] == [(3, 1)]
        lhs_entry, lhs_exponent = failed[0]["lhs"].split("; ")
        rhs_entry, rhs_exponent = failed[0]["rhs"].split("; ")
        assert rhs_exponent == "1"
        if mutant == "exponent":
            assert (lhs_entry, lhs_exponent) == (rhs_entry, "2")
        else:
            assert lhs_entry != rhs_entry and lhs_exponent == "1"

    def test_determinant_suite(self):
        # one exact identity per 0 <= m <= p <= 6, with no float and no tol
        report = run_suite(SuiteConfig(suite="determinant-sl2"))
        _schema_check(report, "determinant-sl2")
        assert report["verdict"] == "pass"
        assert report["params"] == {}
        assert report["witnesses"] == [
            {"p": p, "m": m, "equal": True} for p in range(7) for m in range(p + 1)
        ]

    @pytest.mark.parametrize("mutant", ["integer", "half"])
    def test_determinant_mutant_names_its_mismatch(self, monkeypatch, mutant):
        # the first gamma argument of det_ingredients, a numerator, shifted
        # by 1 or by 1/2, at p = 5, m = 2 only
        from kzdyn import cli as cli_module
        from kzdyn.dyn import DetIngredients, det_ingredients

        shifted = []

        def mutated(space, alpha):
            ingredients = det_ingredients(space, alpha)
            if (space.factors[0].p, space.nu0) != (5, (2,)):
                return ingredients
            first = next(iter(ingredients.gamma_ratio))
            assert ingredients.gamma_ratio[first] == 1
            shifted.append(first)
            step = RF_ONE if mutant == "integer" else parse("1/2")
            ratio = Counter()
            for arg, e in ingredients.gamma_ratio.items():
                ratio[arg + step if arg == first else arg] = e
            return DetIngredients(**{**vars(ingredients), "gamma_ratio": ratio})

        monkeypatch.setattr(cli_module, "det_ingredients", mutated)
        report = run_suite(SuiteConfig(suite="determinant-sl2"))
        assert report["verdict"] == "fail"
        failed = [w for w in report["witnesses"] if not w["equal"]]
        assert [(w["p"], w["m"]) for w in failed] == [(5, 2)]
        lhs_form, lhs_exponent = failed[0]["lhs"].split("; ")
        rhs_form, rhs_exponent = failed[0]["rhs"].split("; ")
        # the z_1 exponents are untouched, and both name l1
        assert lhs_exponent == rhs_exponent and "l1" in lhs_exponent
        assert rhs_form == "1"
        (x,) = shifted
        if mutant == "integer":
            # Gamma(x)/Gamma(x + 1) = 1/x: no gamma is left over
            assert lhs_form == str(RF_ONE / x)
        else:
            # x and x + 1/2 are in different classes: both are left over
            assert lhs_form == f"1 * Gamma({x})^1 * Gamma({x + parse('1/2')})^-1"


class TestGammaNormalForm:
    """`gamma.normal_form` against sympy, the tests' reference."""

    def test_empty_product(self):
        assert normal_form({}, {}) == (RF_ONE, {})

    def test_rising_factorials(self):
        x = parse("x")
        rf = sympy.rf(sympy.Symbol("x") - 2, 5)
        # Gamma(x + 3)/Gamma(x - 2) = (x - 2)_5, and its reciprocal
        for num, den, want in (
            ({x + 3: 1}, {x - 2: 1}, rf),
            ({x - 2: 1}, {x + 3: 1}, 1 / rf),
        ):
            prefactor, leftover = normal_form(num, den)
            assert leftover == {}
            got = sympy.sympify(str(prefactor).replace("^", "**"))
            assert sympy.simplify(got - want) == 0

    def test_classes_that_differ_by_a_half_or_by_symbol_stay_apart(self):
        x, y = parse("x"), parse("y")
        half = x + parse("1/2")
        assert normal_form({x: 1}, {half: 1}) == (RF_ONE, {x: 1, half: -1})
        assert normal_form({x: 1}, {y: 1}) == (RF_ONE, {x: 1, y: -1})

    def test_seeded_products_against_gammasimp(self):
        x, y, t = sympy.symbols("x y t")
        # five classes modulo Z: x and x + 1/2 differ by a half, y and
        # (x + y)/3 are in other symbols, and 1/3 is a constant, which
        # sympy's side carries as the symbol t, substituted at the end
        bases = [parse(text) for text in ("x", "x + 1/2", "y", "(x + y)/3", "1/3")]
        sympy_bases = [x, x + sympy.Rational(1, 2), y, (x + y) / 3, t]
        rng = random.Random(20240524)
        for _ in range(16):
            num, den = Counter(), Counter()
            totals = [0] * len(bases)
            want = sympy.Integer(1)
            for _ in range(rng.randint(2, 9)):
                k, shift = rng.randrange(len(bases)), rng.randint(-3, 3)
                e = rng.choice([-2, -1, 1, 2])
                if rng.random() < 0.5:
                    num[bases[k] + shift] += e
                else:
                    den[bases[k] + shift] += e
                    e = -e
                totals[k] += e
                want *= sympy.gamma(sympy_bases[k] + shift) ** e
            prefactor, leftover = normal_form(num, den)
            # one argument per class with a nonzero total, of that total
            classes = {}
            for arg, total in leftover.items():
                ((k, shift),) = [
                    (k, (arg - base).const_value())
                    for k, base in enumerate(bases)
                    if (arg - base).is_const()
                    and (arg - base).const_value().denominator == 1
                ]
                classes[k] = total
                want /= sympy.gamma(sympy_bases[k] + shift) ** total
            assert classes == {k: total for k, total in enumerate(totals) if total}
            got = sympy.sympify(
                str(prefactor).replace("^", "**"), locals={"x": x, "y": y}
            )
            want = sympy.gammasimp(sympy.expand_func(want)).subs(t, sympy.Rational(1, 3))
            assert sympy.simplify(want - got) == 0, (num, den)


class TestReportPlumbing:
    @staticmethod
    def _out_and_printed(tmp_path, capsys, monkeypatch, command: str) -> str:
        """Run ``command`` through main with ``--out``; check that the file
        holds the printed text and that nothing else was written."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "artifact.json"
        assert main([*command.split(), "--n", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == printed
        assert list(tmp_path.iterdir()) == [out]
        return printed

    def test_out_file_matches_stdout_payload(self, tmp_path, capsys, monkeypatch):
        # main writes every --out; run_suite writes nothing
        printed = self._out_and_printed(tmp_path, capsys, monkeypatch, "verify sigma-orders")
        report = run_suite(SuiteConfig(suite="sigma-orders", n=3))
        report["timings"] = json.loads(printed)["timings"]
        assert printed == report_text(report)
        assert "out" not in SuiteConfig.__annotations__

    def test_dump_out_file_matches_stdout_payload(self, tmp_path, capsys, monkeypatch):
        # dump_object writes nothing either
        printed = self._out_and_printed(tmp_path, capsys, monkeypatch, "dump fusion")
        assert printed == dump_object("fusion", {"n": 3})

    def test_determinism_modulo_timings(self):
        a = run_suite(SuiteConfig(suite="sigma-orders", n=4))
        b = run_suite(SuiteConfig(suite="sigma-orders", n=4))
        a.pop("timings")
        b.pop("timings")
        assert report_text(a) == report_text(b)

    def test_report_text_is_sorted_json(self):
        report = run_suite(SuiteConfig(suite="sigma-orders", n=3))
        text = report_text(report)
        assert text.endswith("\n")
        assert json.loads(text) == report
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_failed_check_drops_warnings(self, monkeypatch):
        def check(params):
            yield {"h": 1}, True
            yield {"h": 2}, False
            return {}, ["open question"]

        _swap_row(monkeypatch, "verify", check)
        report = run_suite(SuiteConfig(suite="sigma-orders"))
        assert report["verdict"] == "fail"
        assert report["warnings"] == []

    def test_first_row_clock_starts_once_the_check_returns(self, monkeypatch):
        # selberg imports numeric (and numpy) before it returns its rows
        from types import SimpleNamespace

        from kzdyn import cli as cli_module

        now = [0.0]

        def check(params):
            now[0] += 5.0

            def rows():
                now[0] += 1.0
                yield {"h": 1}, True
                return {}, []

            return rows()

        _swap_row(monkeypatch, "verify", check)
        monkeypatch.setattr(cli_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        timings = run_suite(SuiteConfig(suite="sigma-orders"))["timings"]
        assert timings == {"per_check_seconds": [1.0], "total_seconds": 6.0}

    def test_level_seconds_go_to_timings(self):
        levels = run_suite(SuiteConfig(suite="pbw-invariance", n=4, nu=(1, 1, 1)))
        assert [w["h"] for w in levels["witnesses"]] == [1, 2]
        # so do the checks of every suite at its defaults, one entry each
        for report in [levels, *(run_suite(SuiteConfig(suite=s)) for s in SUITES)]:
            witnesses, seconds = report["witnesses"], report["timings"]["per_check_seconds"]
            assert all("seconds" not in w for w in witnesses), report["suite"]
            assert len(seconds) == len(witnesses), report["suite"]
            assert all(s >= 0 for s in seconds), report["suite"]

    def test_compatibility_row_seconds_go_to_timings(self):
        # one exchange row, then the derivative rows (j, k) with j outer
        report = run_suite(SuiteConfig(suite="compatibility", n=3, nu=(1, 0)))
        assert all("seconds" not in w for w in report["witnesses"])
        labels = [(w.get("l"), w.get("j"), w["k"]) for w in report["witnesses"]]
        assert labels == [(2, None, 1)] + [(None, j, k) for j in (1, 2) for k in (1, 2)]
        seconds = report["timings"]["per_check_seconds"]
        assert len(seconds) == 5 and all(s >= 0 for s in seconds)

    def test_reports_match_pinned_fingerprints(self):
        # sha256 of each report's canonical text without `timings`, recorded
        # from the hand-written suite runners; run in a fresh interpreter, as
        # `kzdyn verify` is (the text does not depend on what ran before it)
        code = (
            "import contextlib, hashlib, io, json, sys\n"
            "from kzdyn.cli import main, report_text\n"
            "for line in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(['verify', *line.split()])\n"
            "    report = json.loads(out.getvalue())\n"
            "    del report['timings']\n"
            "    text = report_text(report).encode('utf-8')\n"
            "    print(code, hashlib.sha256(text).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *_PINNED_REPORTS],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        got = dict(zip(_PINNED_REPORTS, proc.stdout.splitlines()))
        assert got == {line: f"0 {digest}" for line, digest in _PINNED_REPORTS.items()}


_PINNED_REPORTS = {
    "pbw-invariance": "75a581354485863ca93db01a1850d02d71ab69e9aa00d266fb361ae6c2f13621",
    "additive-form": "1aa52cb4aa6e2a7b7b9250a31504b4e8b5053438edb11b1bd82a28ff08d35071",
    "fusion": "c2890afbc8e84da2a1d169ad2af11573b2ec31914f47988f21da889eb4fbd14d",
    "compatibility": "9b219f0736d9c7515189cf39975f8645c3f57810493f85f782dbc3ef860eed8c",
    "appendix-b": "24457da3a4c9a37ffc656e70cdf23662c9c062ef405f43a5ef52125611c7c946",
    "appendix-c": "61bacfc729863c9b1373832cf336b5988fe6881cb9ca56d67ed16d595e6c0082",
    "selberg": "6e8584f0802e5ef80362cc9d95f2681effc29b1ff66ab67319c51465f950087d",
    "main-theorem-sl2": "70fddf02c5318c511e0e24353652ef34949367cede9177840701e4d10309eb38",
    "determinant-sl2": "e1c83ebf60a9bab6fa1501a729073c6a74db7d0e461e50305874d3bb632ee259",
    "sigma-orders": "0ec2f2f8990bbc96149e8242e0cf310d7b2632b3ffcbc8ca944a6323310f7453",
    # verdict `flagged`
    "pbw-invariance --n 3 --nu 2,2 --factors verma,verma": (
        "54d321c5535008849df4bfef26218d1751a3e1b48a977cf7050632d0dcdb3470"
    ),
    # verdict `flagged`; at n = 4 a level step makes several reversals
    "pbw-invariance --n 4 --nu 1,2,2": (
        "886575b2f6f160490aaaeefc71bbe91c1597379e127237d272e8226a27f8a494"
    ),
    "pbw-invariance --n 4 --nu 2,2,2": (
        "6c2d2b4cff9c7dab01791148a9e91790101a922027912b5246de881a7929d6b2"
    ),
    "appendix-b --n 3 --nu 1,1 --factors verma,verma,verma": (
        "e746516300bf4dfd66e5f7f3078f39e2111efcf2ece1fc096137c0aab1d10e99"
    ),
    # with `compatibility --n 3 --nu 2,0`, `pbw-invariance --n 4 --nu 1,2,2`
    # and `appendix-b --n 3 --nu 2,1 --factors verma,verma,verma`: the four
    # configurations of perfbench's symbolic-rank3 workload
    "fusion --n 3 --nu 1,1": (
        "98fb8026218ce283565936e22601573b61f46a668ef1e41cae8d9db569cfda6c"
    ),
    "fusion --n 3 --nu 1,1 --depth 2": (
        "5ff867803419d33a118a19320f23d61d873fe7499e4403b3fc7e7ce575b6c5f7"
    ),
    # the contraction on three Verma factors
    "fusion --n 3 --nu 1,2 --factors verma,verma,verma": (
        "163d7ef09794e4b1a21600340f60eb482ddde8705490c17d900fd97c76aa61ab"
    ),
    "additive-form --n 3 --nu 1,1": (
        "da7a680fa1b996a5088a9dddceb42b2afd6e8fdea718b21a62f1a9eb54a77443"
    ),
    "appendix-c --max-ab 1": (
        "011f056434c4d82c55428d9d38db0f10a8425acc561c1aa09db3ad5d8f643e2a"
    ),
    "sigma-orders --n 4": (
        "1272aaf995d40c13bb2c69c37309d8ef0c1ac42323697f5fdab57848eb3ebf31"
    ),
    # a tolerance other than the default
    "selberg --tol 1e-8": (
        "627af2e8aa419a3ff6e20dd0c6afe2f3c38a940c135b1a0c491e61765ee6dfa7"
    ),
    # an exchange row (k, l) = (1, 2): the defaults have one level and none
    "compatibility --n 3 --nu 2,0": (
        "8b634a3c95929053a209e7b79db48dc477130246bfc2da6511cf1a99cbca0c6d"
    ),
    # the sparse elimination and the projected coupling at dims 27 and 56
    "appendix-b --n 3 --nu 2,1 --factors verma,verma,verma": (
        "90c987abcb4996c173c3e17f457f4bfa0d21806108ffc59877782a751d6fcbf4"
    ),
    "appendix-b --n 3 --nu 1,2 --factors verma,verma,verma,verma": (
        "61bd89cb46a06cb48dc1f0a1834260d5c5b859ee3e2534205baf5854af3b8939"
    ),
    # ∇K rows, which build the Casimir root terms: at cap scale, and on three
    # Verma factors
    "compatibility --n 3 --nu 2,1": (
        "b2f70b986539ab0360b4051bd11ffe5e132e8b6971ee8f01a0d251400194e17c"
    ),
    "compatibility --n 3 --nu 1,1 --factors verma,verma,verma": (
        "21bae157fd465900dde0631d265db3e8cabab967d7503f5004c4dcbd9581bd79"
    ),
    # the most gcd proofs of any pinned run: 186 and 219 (the others make at
    # most 13)
    "appendix-c --max-ab 3": (
        "94dcee6a85f506dd77ad8f84f01ba2015c5dab3be814bdbb5c4e679678982e09"
    ),
    "additive-form --n 3 --nu 2,2": (
        "4b49605af5d2de594da93ceea5b005288d4f864daff3ca8259e2f6a2b362016f"
    ),
    # sl4: three one-level operators
    "additive-form --n 4 --nu 1,1,1": (
        "21d2a99811de432568a66fdcfa30eb9342576613a9060c78906daf531c732e4c"
    ),
}


class TestDumps:
    def test_order_contract_example(self):
        assert dump_object("order", {"n": 3, "h": 1}) == "a(1,2),a(1,3),a(2,3)"
        for params in ({"n": 3, "h": 1, "depth": 9}, {"n": 9, "h": 1}):
            with pytest.raises(CapabilityExceeded):
                dump_object("order", params)

    def test_order_default_level_is_standard(self):
        first = dump_object("order", {"n": 3})
        assert first == serialize_order(special_order(3, 2))
        assert dump_object("order", {"n": 3, "h": 2, "k": None}) == first

    def test_sigma_dump_structure(self):
        data = json.loads(dump_object("sigma", {"n": 3, "h": 2}))
        assert data["orders"][0] == serialize_order(special_order(3, 2))
        assert data["orders"][-1] == serialize_order(special_order(3, 1))
        kinds = {t["kind"] for t in data["transforms"]}
        assert kinds <= {"A1A1", "A2"}
        a2 = [t for t in data["transforms"] if t["kind"] == "A2"]
        assert [t["label"] for t in a2] == [[1, 3]]

    def test_operator_dump_cross_check(self):
        params = {"n": 2, "nu": [1], "factors": ["verma", "verma"], "k": 1}
        data = json.loads(dump_object("operator", params))
        space = enumerate_basis(
            [verma_symbolic(2, 1), verma_symbolic(2, 2)], (1,)
        )
        K = K_operator(space, 1, lambda_pairing_symbols(2))
        assert data["dim"] == space.dim == 2
        for key, text in data["entries"].items():
            r, c = map(int, key.split(","))
            assert (parse(text) - K.entry(r, c)).is_zero()
        assert data["formal_z_exponents"] == [
            str(e) for e in formal_z_exponents(space, 1)
        ]

    def test_fusion_dump_cross_check(self):
        data = json.loads(dump_object("fusion", {"n": 2, "depth": 2}))
        fus = fusion_solve(2, 2)
        assert set(data["components"]) == {"0", "1", "2"}
        for mu_text, rows in data["components"].items():
            mu = tuple(int(x) for x in mu_text.split(","))
            want = [
                [list(lo), list(hi), str(c)] for lo, hi, c in fus.triples(mu)
            ]
            assert rows == want

    def test_phi_vector_dump(self):
        data = json.loads(
            dump_object("phi-vector", {"n": 2, "nu": [1], "factors": ["verma"]})
        )
        assert data["flavor"] == {"h": 1, "switched": []}
        assert len(data["terms"]) == 1
        value = parse(data["terms"][0]["value"])
        assert (value - parse("1/(t:1:1 - z:1)")).is_zero()

    def test_forest_dump(self):
        data = json.loads(
            dump_object(
                "forest",
                {"n": 3, "nu": [1, 1], "factors": ["verma"], "h": 1, "index": 0},
            )
        )
        assert data["n"] == 3
        assert data["index"] == 0
        assert data["trees"] and data["trees"][0]["strings"]

    @pytest.mark.parametrize(
        "kind, extra",
        [("phi-vector", {}), ("forest", {"index": 1})],
        ids=["phi-vector", "forest"],
    )
    def test_standard_names_the_top_level(self, kind, extra):
        # one flavor object: `standard` resolves to level n-1
        params = {"n": 3, "nu": [1, 1], "factors": ["verma", "verma"], **extra}
        standard = dump_object(kind, {**params, "h": "standard"})
        assert standard == dump_object(kind, {**params, "h": 2})
        assert json.loads(standard)["flavor"] == {"h": 2, "switched": []}

    def test_forest_index_out_of_range(self):
        with pytest.raises(CapabilityExceeded):
            dump_object("forest", {"n": 2, "nu": [1], "index": 5})

    @pytest.mark.parametrize(
        "kind, h",
        [
            ("phi-vector", "7"),
            ("forest", "7"),
            ("order", "standard"),
            ("phi-vector", "0"),
            ("forest", "-1"),
        ],
    )
    def test_level_out_of_range_exits_two(self, capsys, kind, h):
        assert main(["dump", kind, "--n", "3", "--h", h]) == 2
        assert capsys.readouterr().err == f"error: h must be in 1..2, got {h}\n"

    @pytest.mark.parametrize("n, k", [(2, 0), (2, 3), (3, 3)])
    def test_operator_direction_out_of_range_exits_two(self, capsys, n, k):
        assert main(["dump", "operator", "--n", str(n), "--k", str(k)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: k must be in 1..{n - 1}, got {k}\n"

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            dump_object("bogus", {})

    def test_dump_determinism(self):
        first = dump_object("fusion", {"n": 2, "depth": 3})
        second = dump_object("fusion", {"n": 2, "depth": 3})
        assert first == second

    def test_dumps_match_pinned_fingerprints(self):
        # sha256 of `kzdyn dump` stdout, recorded from the hand-written dump
        # runners; every dump in one fresh interpreter, and one dump alone in
        # another: the text depends only on the command, not on what the
        # process built before it
        assert _dump_digests(_PINNED_DUMPS) == {
            line: f"0 {digest}" for line, digest in _PINNED_DUMPS.items()
        }
        alone = "operator --n 2 --nu 1 --factors verma,verma --k 1"
        assert _dump_digests([alone]) == {alone: f"0 {_PINNED_DUMPS[alone]}"}


def _dump_digests(lines) -> dict[str, str]:
    """``exit code, sha256 of stdout`` of each `kzdyn dump` command line, run
    in order in one fresh interpreter."""
    code = (
        "import contextlib, hashlib, io, sys\n"
        "from kzdyn.cli import main\n"
        "for line in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['dump', *line.split()])\n"
        "    print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *lines], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return dict(zip(lines, proc.stdout.splitlines()))


_PINNED_DUMPS = {
    "order": "998570874e7a5936db66877776ddfcb22e299acbec8969b92099d96ad05ae23a",
    "sigma": "f6d81cf3a2288a1d426628afb18daac3301e453426fc1d299cc8b317b090a468",
    "operator": "82cce72467fef85857d6ab7d28c92231c8605ea204726e27490266bc496d8c9c",
    "fusion": "49225d9bb8f2a9bfab6e71fe9b57e46298436146e5c6f7651dfa5924e399a5e3",
    "phi-vector": "448ce6fdaf8fdde8087e606bbfcf8b06d271d5ac7295f199deb9cdf0dcfa34be",
    "forest": "fbefefc4d96c2a9923de2d861c2a8d8f2d4c89ff244ae2b7e2e70f5f3943f863",
    "order --n 4 --h 2": (
        "1d863920835acbf9175db883fc74644083e9ba7a0315131cc24c4704e2d4070b"
    ),
    "sigma --n 3 --h 2": (
        "f6d81cf3a2288a1d426628afb18daac3301e453426fc1d299cc8b317b090a468"
    ),
    "operator --n 2 --nu 1 --factors verma,verma --k 1": (
        "08b28f95407ff13df846cdf6d184272889a5f495b318ea2dd65cfba45262672e"
    ),
    "fusion --n 2 --depth 3": (
        "4cb65328847eb3e9962c182dddcc5b2cb379bc7f2048269ff9a0701ae2ae3593"
    ),
    "phi-vector --n 2 --nu 1": (
        "448ce6fdaf8fdde8087e606bbfcf8b06d271d5ac7295f199deb9cdf0dcfa34be"
    ),
    "forest --n 3 --nu 1,1 --h 1 --index 0": (
        "84ed2b4d97ee6cc3eefda5d529f91c3361620b96b32566788ab8ba188c371375"
    ),
    # two factors at a level: a second variable copy and a signed ground
    "phi-vector --n 3 --nu 1,1 --factors verma,verma --h 1": (
        "3d7fb34f380ba1433bbb47dd5955a291620fdb1c3a1576a2aa0757a2e1e5e8a6"
    ),
    # rank 3: the fusion coefficients and the level-2 K entries
    "fusion --n 3 --depth 4": (
        "5c6b7d12641a2ae4d03bdfdb5fe54f97f0a284a2cbe7411869991e6e49cdc94c"
    ),
    "operator --n 3 --nu 2,1 --factors verma,verma --k 2": (
        "e95bd55e9a954cee55d49da565855a9166abca0d3a51dc6c201c94dcc2ea9b54"
    ),
}


class TestMainEntry:
    def test_verify_pass_exit_zero(self, capsys):
        code = main(["verify", "sigma-orders", "--n", "4"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["verdict"] == "pass"

    def test_verify_unknown_suite_exit_two(self, capsys):
        code = main(["verify", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown suite" in captured.err

    def test_pbw_invariance_needs_a_level_below_the_top(self, capsys):
        # at n = 2 the only level is the standard arrangement itself
        assert main(["verify", "pbw-invariance", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite pbw-invariance supports 3 <= n <= 4\n"

    def test_verify_capability_exit_two(self, capsys):
        code = main(["verify", "pbw-invariance", "--n", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_malformed_nu_exit_two(self, capsys):
        code = main(["verify", "additive-form", "--nu", "1,x"])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed" in captured.err

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "selberg", "--jobs", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_grid_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "selberg", "--grid", "default"])
        assert info.value.code == 2
        assert "unrecognized arguments: --grid default" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "pbw-invariance", "--h", "1"], ["verify", "selberg", "--to", "1e-3"]],
        ids=["h-is-not-help", "to-is-not-tol"],
    )
    def test_abbreviated_flag_exits_two(self, capsys, argv):
        # argparse would read a unique prefix of a long flag as that flag:
        # --h as verify's --help, which prints usage and exits 0
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in captured.err

    def test_dump_still_reads_its_own_h_flag(self, capsys):
        level = ["--n", "3", "--nu", "1,1", "--factors", "verma,verma", "--h", "1"]
        assert main(["dump", "phi-vector", *level]) == 0
        assert capsys.readouterr().out

    def test_verify_flagged_exits_zero_with_warning(self, capsys, monkeypatch):
        def check(params):
            yield {"h": 1}, True
            return {}, ["open question"]

        _swap_row(monkeypatch, "verify", check)
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: open question" in captured.err
        assert json.loads(captured.out)["verdict"] == "flagged"

    def test_verify_fail_exits_one(self, capsys, monkeypatch):
        def check(params):
            yield {"bad": True}, False
            return {}, []

        _swap_row(monkeypatch, "verify", check)
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["verdict"] == "fail"

    @pytest.mark.parametrize(
        "error",
        [
            InexactDivision("inexact polynomial division"),
            PoleHit("denominator vanishes"),
            DivisionByZero("evaluation hit a pole"),
            QuadratureNotConverged(1e-8, 3e-7),
            ParseError("unexpected token"),
            KeyError("missing key"),
            AssertionError("broken invariant"),
            # a defect, such as const_value() of a symbol, not a bad flag
            ValueError("not a constant expression"),
            # raised by the work, not by the --out probe or write
            OSError(13, "Permission denied"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_internal_error_exits_three(self, capsys, monkeypatch, error):
        def raise_error(p):
            raise error

        _swap_row(monkeypatch, "verify", raise_error)
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: {type(error).__name__}: ")
        assert str(error) in captured.err
        unexpected = not isinstance(error, (ArithmeticError, ParseError))
        assert ("Traceback (most recent call last)" in captured.err) == unexpected

    def test_gcd_give_up_exits_three(self, capsys, monkeypatch):
        from kzdyn import symexpr

        monkeypatch.setattr(symexpr, "GCDHEU_POINTS", 0)
        # the default run meets no nonlinear gcd; inverting the rank-3 Gram
        # matrices still scales rows by nonconstant pivots
        code = main(["verify", "fusion", "--n", "3", "--nu", "1,1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: HeuristicGcdFailed: no proven gcd")

    def test_dump_order_contract_example(self, capsys):
        code = main(["dump", "order", "--n", "3", "--h", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "a(1,2),a(1,3),a(2,3)\n"

    def test_dump_unknown_kind_exit_two(self, capsys):
        code = main(["dump", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown dump kind" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "sigma-orders"], ["dump", "order"]],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        ran = []
        _swap_row(monkeypatch, argv[0], lambda params: ran.append(params))
        for out, reason in [
            (tmp_path / "missing" / "artifact", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ]:
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == f"error: cannot write --out {out}: {reason}\n"
            # found before any work, with nothing on stdout and nothing left behind
            assert ran == [] and captured.out == ""
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "dump"])
    def test_out_file_is_untouched_when_the_work_raises(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def raise_error(params):
            raise PoleHit("denominator vanishes")

        _swap_row(monkeypatch, command, raise_error)
        out = tmp_path / "artifact"
        out.write_bytes(b"an earlier artifact\n")
        kind = "sigma-orders" if command == "verify" else "order"
        # an existing file keeps its bytes; a file the probe created is removed
        for path in (out, tmp_path / "fresh"):
            code = main([command, kind, "--out", str(path)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert out.read_bytes() == b"an earlier artifact\n"
            assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    @pytest.mark.parametrize("command", ["verify", "dump"])
    def test_os_error_of_the_work_is_not_an_out_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def raise_error(params):
            raise FileNotFoundError(2, "No such file or directory", "table.json")

        _swap_row(monkeypatch, command, raise_error)
        out = tmp_path / "artifact"
        out.write_bytes(b"an earlier artifact\n")
        kind = "sigma-orders" if command == "verify" else "order"
        code = main([command, kind, "--out", str(out)])
        captured = capsys.readouterr()
        # a defect of the run, with its traceback; the --out path was writable
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("internal error: FileNotFoundError: ")
        assert "Traceback (most recent call last)" in captured.err
        assert "--out" not in captured.err
        assert out.read_bytes() == b"an earlier artifact\n"

    def test_out_writes_through_a_symlink(self, tmp_path, capsys):
        target = tmp_path / "artifact"
        target.write_bytes(b"an earlier artifact\n")
        target.chmod(0o640)
        link = tmp_path / "link"
        link.symlink_to(target)
        code = main(["dump", "order", "--n", "3", "--h", "1", "--out", str(link)])
        capsys.readouterr()
        assert code == 0
        # the file the link names is rewritten in place; the link and the mode stay
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text(encoding="utf-8") == "a(1,2),a(1,3),a(2,3)\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "link"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_out_dev_null(self, tmp_path, capsys):
        # through a link, so that a regression that renames a file onto the
        # path replaces the link, not the device node
        link = tmp_path / "null"
        link.symlink_to("/dev/null")
        code = main(["dump", "order", "--n", "3", "--h", "1", "--out", str(link)])
        assert code == 0
        assert capsys.readouterr().out == "a(1,2),a(1,3),a(2,3)\n"
        assert link.is_symlink() and stat.S_ISCHR(os.stat(link).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["null"]

    @pytest.mark.parametrize("command", ["verify", "dump"])
    def test_empty_out_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        kind = "sigma-orders" if command == "verify" else "order"
        code = main([command, kind, "--n", "3", "--out", ""])
        assert code == 0 and capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_dump_out_file(self, tmp_path, capsys):
        out = tmp_path / "artifact.txt"
        code = main(["dump", "order", "--n", "3", "--h", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_text(encoding="utf-8") == "a(1,2),a(1,3),a(2,3)\n"

    def test_verify_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "sigma-orders", "--n", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.read_text(encoding="utf-8") == captured.out

    def test_numpy_loads_only_for_the_selberg_suite(self):
        def loaded_after(code: str) -> list[set[str]]:
            # a fresh interpreter, whose last line of output lists the modules
            # loaded at each point the code recorded in `loaded`
            proc = subprocess.run(
                [sys.executable, "-c", code + "\nprint(json.dumps(loaded))"],
                capture_output=True,
                text=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr
            return [set(names) for names in json.loads(proc.stdout.splitlines()[-1])]

        def scipy_modules(loaded: set[str]) -> set[str]:
            return {name for name in loaded if name.partition(".")[0] == "scipy"}

        # numeric imports numpy with itself, not at its first quadrature, so
        # that callers looping over quad_chamber pay the import once, outside
        # their loops.  Beyond kzdyn's own modules it loads nothing that numpy
        # and _record do not load, and no scipy module
        (floor,) = loaded_after("import json, sys, numpy, kzdyn._record\nloaded = [list(sys.modules)]")
        (loaded,) = loaded_after("import json, sys, kzdyn.numeric\nloaded = [list(sys.modules)]")
        assert "numpy.linalg" in loaded
        assert {name for name in loaded - floor if not name.startswith("kzdyn.")} == set()
        assert scipy_modules(loaded) == set()
        # of kzdyn, numeric reads only _record: it imports symexpr's PoleHit
        # where it raises it, so no exact layer loads with it
        kzdyn_loaded = {name for name in loaded if name.startswith("kzdyn.")}
        assert kzdyn_loaded == {"kzdyn._record", "kzdyn.numeric"}
        # the lemma checks are the tests' alone: the weighted-function layer
        # does not import them, so no run compiles them
        (loaded,) = loaded_after("import json, sys, kzdyn.hyper\nloaded = [list(sys.modules)]")
        assert "kzdyn.hyper" in loaded and "kzdyn.lemmas" not in loaded
        # every run in one interpreter, selberg last, so that no run before it
        # finds kzdyn.numeric or numpy loaded; kzdyn.hyper is dropped after
        # each run, from sys.modules and from its package, so that each run
        # that reads it loads it anew
        runs = [
            *(["verify", suite] for suite in SUITES if suite != "selberg"),
            ["verify", "fusion", "--n", "3", "--nu", "1,1"],
            *(["dump", kind] for kind in DUMP_KINDS),
            ["verify", "selberg"],
        ]
        after_import, *after_runs = loaded_after(
            "import contextlib, io, json, sys\n"
            "from kzdyn.cli import main\n"
            "loaded = [list(sys.modules)]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    loaded.append(list(sys.modules))\n"
            "    sys.modules.pop('kzdyn.hyper', None)\n"
            "    vars(sys.modules['kzdyn']).pop('hyper', None)\n"
        )
        # kzdyn's records are not dataclasses: nothing loads dataclasses, and
        # nothing but numpy, with the selberg suite, the inspect it imports
        assert after_import.isdisjoint(
            {
                "kzdyn.hyper",
                "kzdyn.lemmas",
                "kzdyn.numeric",
                "numpy",
                "sympy",
                "dataclasses",
                "inspect",
                "hashlib",
            }
        )
        for argv, loaded in zip(runs, after_runs):
            # the float layer is selberg's alone, and it needs no scipy
            assert scipy_modules(loaded) == set(), argv
            for heavy in ("kzdyn.numeric", "numpy", "inspect"):
                assert (heavy in loaded) == (argv == ["verify", "selberg"]), (argv, heavy)
            # the weighted-function layer only where it is read
            reads_hyper = argv[1] in ("pbw-invariance", "phi-vector", "forest")
            assert ("kzdyn.hyper" in loaded) == reads_hyper, argv
            assert "kzdyn.lemmas" not in loaded, argv
            # sympy is a test-only dependency: no run loads it; the exact
            # layers take blake2b from _blake2, and numpy needs no hashlib
            for absent in ("sympy", "dataclasses", "hashlib"):
                assert absent not in loaded, (argv, absent)
        # the selberg run, the last, adds only kzdyn modules to what numpy
        # and _record load
        added = after_runs[-1] - after_runs[-2]
        assert {name for name in added - floor if not name.startswith("kzdyn.")} == set()

    def test_selberg_without_numpy_is_a_configuration_error(self):
        # in a fresh interpreter, where no earlier import of kzdyn.numeric
        # can have loaded numpy; an import of numpy now raises
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from kzdyn.cli import main\n"
            "sys.exit(main(['verify', 'selberg']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: the selberg suite needs numpy: "), line

    def test_selberg_runs_without_scipy(self):
        # scipy is the tests' cross-check of the quadrature rules, not a
        # runtime dependency: with every scipy import failing, the suite passes
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from kzdyn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sys.exit(main(['verify', 'selberg']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_selberg_runs_one_blas_thread_unless_the_caller_says(self, preset):
        # in a fresh interpreter, so that main sets the variable before
        # numpy's OpenBLAS starts its threads; a caller's value is kept
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS starts no second thread on one CPU")
        import numpy as np

        blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        if "openblas" not in str(blas.get("name", "")):
            pytest.skip("numpy is not built on OpenBLAS")
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = (
            "import contextlib, io, os\n"
            "from kzdyn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', 'selberg']) == 0\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split()
        if preset is None:
            assert (value, threads) == ("1", "1")
        else:
            assert value == preset and int(threads) > 1

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["verify", "sigma-orders", "--n", "2"], 0),
            (["verify", "sigma-orders", "--n", "9"], 2),
            (["verify", "sigma-orders", "--bogus"], 2),
        ],
        ids=["pass", "bad-value", "bad-flag"],
    )
    def test_process_entry_freezes_the_collector_at_exit(self, argv, status):
        # the entry of `python -m kzdyn.cli` and of the kzdyn script, in a
        # fresh interpreter: an atexit hook, which runs after it, reads how
        # many objects the interpreter's last collections skip
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['kzdyn', *{argv!r}]\n"
            "runpy.run_module('kzdyn.cli', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == status, proc.stderr
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0

    def test_main_leaves_the_collector_alone(self, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["verify", "sigma-orders", "--n", "2"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    def test_main_leaves_a_closed_stdout_pipe_in_place(self):
        # in-process, main reports the closed pipe and returns 2, but fd 1
        # stays the caller's pipe: only the process entry points it at
        # os.devnull
        code = (
            "import os, stat, sys\n"
            "from kzdyn.cli import main\n"
            "status = main(['verify', 'sigma-orders', '--n', '3'])\n"
            "print(status, stat.S_ISFIFO(os.fstat(1).st_mode), file=sys.stderr)\n"
            "os._exit(0)\n"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                check=False,
            )
        finally:
            os.close(write_end)
        assert proc.stderr.splitlines() == ["error: cannot write stdout: Broken pipe", "2 True"]

    @pytest.mark.parametrize("unbuffered",[False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["verify", "dump"])
    def test_closed_stdout_pipe_exits_two(self, tmp_path, command, unbuffered):
        # stdout is a pipe whose reader is gone; the dump also writes --out,
        # which is complete before stdout is written
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = tmp_path / "artifact"
        if command == "verify":
            argv = ["verify", "sigma-orders", "--n", "3"]
        else:
            argv = ["dump", "order", "--n", "3", "--h", "1", "--out", str(out)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kzdyn.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                check=False,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == ["error: cannot write stdout: Broken pipe"]
        if command == "dump":
            assert out.read_text(encoding="utf-8") == "a(1,2),a(1,3),a(2,3)\n"
        else:
            assert list(tmp_path.iterdir()) == []

    def test_module_is_executable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kzdyn.cli", "dump", "order", "--n", "3", "--h", "1"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == "a(1,2),a(1,3),a(2,3)\n"


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(kzdyn.__path__))
)
def test_public_names_are_defined(name):
    # perfbench's tracer wraps exactly the names in __all__ and reports a
    # missing one only as "absent"
    module = importlib.import_module(f"kzdyn.{name}")
    for public in module.__all__:
        assert not public.startswith("_"), public
        assert public in vars(module), public
