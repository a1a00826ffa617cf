"""Tests for the command-line harness: configuration validation, suite
reports and their schema, deterministic dumps, and exit codes."""

import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
from kzdyn.dyn import DynOperator, K_operator, PoleHit, ResonantWeight, fusion_solve
from kzdyn.numeric import QuadratureNotConverged
from kzdyn.rep import WeightSpaceOperator, enumerate_basis, verma_symbolic
from kzdyn.roots import serialize_order, special_order
from kzdyn.symexpr import RF_ONE, DivisionByZero, InexactDivision, ParseError, parse


# a flag the suite does not read, given explicitly: (suite, flag, value, field)
_UNREAD = [
    ("compatibility", "--depth", "4", {"depth": 4}),
    ("selberg", "--n", "3", {"n": 3}),
    ("sigma-orders", "--nu", "1", {"nu": (1,)}),
    ("appendix-c", "--factors", "verma", {"factors": ("verma",)}),
    ("additive-form", "--tol", "1e-9", {"tol": 1e-9}),
    ("fusion", "--max-ab", "1", {"max_ab": 1}),
    ("main-theorem-sl2", "--tol", "1e-9", {"tol": 1e-9}),
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
            run_suite(SuiteConfig(suite="additive-form", n=4))

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

    def test_tol_caps(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="selberg", tol=1e-20))

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_tol_exits_two(self, capsys, value):
        assert main(["verify", "determinant-sl2", f"--tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite determinant-sl2 needs a finite tol\n"

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
        report = run_suite(SuiteConfig(suite="pbw-invariance", n=2, nu=(1,)))
        _schema_check(report, "pbw-invariance")
        assert report["verdict"] == "pass"
        witness = report["witnesses"][0]
        assert witness["h"] == 1
        assert witness["raw_equal"] and witness["symmetrized_equal"]
        assert "seconds" not in witness  # timing lives in the timings section

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
        assert by_level[2]["symmetrized_equal"]

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

        def broken_q_dagger(space, pairings, fusion):
            op = true_q_dagger(space, pairings, fusion)
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
        # component; the verdict must not rest on `assert`, which -O strips
        code = (
            "from kzdyn import cli\n"
            "from kzdyn.dyn import FusionElement\n"
            "from kzdyn.symexpr import RF_ONE\n"
            "malformed = FusionElement(\n"
            "    2, 1, {(0,): {((0,), (0,)): RF_ONE}, (1,): {((2,), (1,)): RF_ONE}}\n"
            ")\n"
            "cli.fusion_solve = lambda n, depth: malformed\n"
            "report = cli.run_suite(cli.SuiteConfig(suite='fusion', depth=1, nu=(1,)))\n"
            "witness = report['witnesses'][0]\n"
            "print(malformed.structure_ok(), witness['structure_ok'], report['verdict'])\n"
        )
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "fail"]

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

        def mutated(space, k):
            op = K_operator(space, k)
            if (space.factors[0].p, space.nu0) != (3, (1,)):
                return op
            if mutant == "exponent":
                return DynOperator(op.op, (op.formal_z_exponents[0] + RF_ONE,))
            return DynOperator(op.op.scale(2), op.formal_z_exponents)

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
        report = run_suite(SuiteConfig(suite="determinant-sl2"))
        _schema_check(report, "determinant-sl2")
        assert report["verdict"] == "pass"
        assert all(
            w["rel_error"] <= 1e-9 and w["periodicity_error"] <= 1e-9
            for w in report["witnesses"]
        )


class TestReportPlumbing:
    def test_out_file_matches_stdout_payload(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_suite(SuiteConfig(suite="sigma-orders", n=3, out=str(out)))
        assert out.read_text(encoding="utf-8") == report_text(report)

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
        from kzdyn import cli as cli_module

        monkeypatch.setattr(
            cli_module._SUITE_TABLE["sigma-orders"],
            "check",
            lambda p: ([({"h": 1}, True), ({"h": 2}, False)], {}, ["open question"]),
        )
        report = run_suite(SuiteConfig(suite="sigma-orders"))
        assert report["verdict"] == "fail"
        assert report["warnings"] == []

    def test_level_seconds_go_to_timings(self):
        report = run_suite(SuiteConfig(suite="pbw-invariance", n=3, nu=(1, 1)))
        assert [w["h"] for w in report["witnesses"]] == [1, 2]
        assert all("seconds" not in w for w in report["witnesses"])
        seconds = report["timings"]["per_level_seconds"]
        assert len(seconds) == 2 and all(s >= 0 for s in seconds)

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
    "pbw-invariance": "63fb56e19e8dccef3f1b58ce14d47459fdde00105ec3ad092145e18205bdbb1c",
    "additive-form": "1aa52cb4aa6e2a7b7b9250a31504b4e8b5053438edb11b1bd82a28ff08d35071",
    "fusion": "c2890afbc8e84da2a1d169ad2af11573b2ec31914f47988f21da889eb4fbd14d",
    "compatibility": "9b219f0736d9c7515189cf39975f8645c3f57810493f85f782dbc3ef860eed8c",
    "appendix-b": "24457da3a4c9a37ffc656e70cdf23662c9c062ef405f43a5ef52125611c7c946",
    "appendix-c": "61bacfc729863c9b1373832cf336b5988fe6881cb9ca56d67ed16d595e6c0082",
    "selberg": "df2ef44596db0474e67b77251ae697b0ad52c8729e222a3c68b1b9c6831489b7",
    "main-theorem-sl2": "70fddf02c5318c511e0e24353652ef34949367cede9177840701e4d10309eb38",
    "determinant-sl2": "04b90c050a50a73b404acd5cbc3fe6ef12f6200a1a886de4ded7db264eed74b8",
    "sigma-orders": "0ec2f2f8990bbc96149e8242e0cf310d7b2632b3ffcbc8ca944a6323310f7453",
    # verdict `flagged`
    "pbw-invariance --n 3 --nu 2,2 --factors verma,verma": (
        "db10f2ee2aac24cf65d545a74b6956f0e8c29c2e9c12e00d5575541e08b97376"
    ),
    # verdict `flagged`; at n = 4 a level step makes several reversals
    "pbw-invariance --n 4 --nu 1,2,2": (
        "86310583f3fdc9a616f87d95839ed029ba9c848d2b8b5485cb2c3d414ee24844"
    ),
    "pbw-invariance --n 4 --nu 2,2,2": (
        "cbdacc75e6b09dc9eb5cd4ec8606641754eb2f81ebfc892b8b4ffcedc788593e"
    ),
    "appendix-b --n 3 --nu 1,1 --factors verma,verma,verma": (
        "e746516300bf4dfd66e5f7f3078f39e2111efcf2ece1fc096137c0aab1d10e99"
    ),
    "fusion --n 3 --nu 1,1 --depth 2": (
        "5ff867803419d33a118a19320f23d61d873fe7499e4403b3fc7e7ce575b6c5f7"
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
    "determinant-sl2 --tol 1e-8": (
        "d351495cbe34eca1e751490e20d795173840da88221a8760d3d5c08507aa287a"
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
        Kd = K_operator(space, 1)
        assert data["dim"] == space.dim == 2
        for key, text in data["entries"].items():
            r, c = map(int, key.split(","))
            assert (parse(text) - Kd.op.entry(r, c)).is_zero()
        assert data["formal_z_exponents"] == [
            str(e) for e in Kd.formal_z_exponents
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
        assert data["flavor"]["kind"] == "standard"
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

    def test_forest_index_out_of_range(self):
        with pytest.raises(CapabilityExceeded):
            dump_object("forest", {"n": 2, "nu": [1], "index": 5})

    @pytest.mark.parametrize(
        "kind, h", [("phi-vector", "7"), ("forest", "7"), ("order", "standard")]
    )
    def test_level_out_of_range_exits_two(self, capsys, kind, h):
        assert main(["dump", kind, "--n", "3", "--h", h]) == 2
        assert capsys.readouterr().err == f"error: h must be in 1..2, got {h}\n"

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
    "phi-vector": "931bfc081847808b0d9da3533ce2b51d450f4772f36b6c81daed696561b89dc0",
    "forest": "cc7d0ff573e7b253057086b63007cae3e7bf65e28ae5aa9ef3fc20b9269e0b7a",
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
        "931bfc081847808b0d9da3533ce2b51d450f4772f36b6c81daed696561b89dc0"
    ),
    "forest --n 3 --nu 1,1 --h 1 --index 0": (
        "225fa539763ace29c5fb7d158e5c6a26fa518512221bfdc1cfe500de35a62397"
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

    def test_verify_flagged_exits_zero_with_warning(self, capsys, monkeypatch):
        from kzdyn import cli as cli_module

        monkeypatch.setattr(
            cli_module._SUITE_TABLE["sigma-orders"],
            "check",
            lambda p: ([({"h": 1}, True)], {}, ["open question"]),
        )
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: open question" in captured.err
        assert json.loads(captured.out)["verdict"] == "flagged"

    def test_verify_fail_exits_one(self, capsys, monkeypatch):
        from kzdyn import cli as cli_module

        monkeypatch.setattr(
            cli_module._SUITE_TABLE["sigma-orders"],
            "check",
            lambda p: ([({"bad": True}, False)], {}, []),
        )
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["verdict"] == "fail"

    @pytest.mark.parametrize(
        "error",
        [
            InexactDivision("inexact polynomial division"),
            PoleHit("denominator vanishes"),
            ResonantWeight("vanishing dividing scalar"),
            DivisionByZero("evaluation hit a pole"),
            QuadratureNotConverged(1e-8, 3e-7),
            ParseError("unexpected token"),
            KeyError("missing key"),
            AssertionError("broken invariant"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_internal_error_exits_three(self, capsys, monkeypatch, error):
        from kzdyn import cli as cli_module

        def raise_error(p):
            raise error

        monkeypatch.setattr(
            cli_module._SUITE_TABLE["sigma-orders"], "check", raise_error
        )
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
        code = main(["verify", "fusion"])
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
    def test_unwritable_out_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "artifact"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write --out {out}: No such file or directory\n"

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

    def test_scipy_loads_only_for_the_selberg_suite(self):
        def loaded_after(code: str) -> set[str]:
            # a fresh interpreter, whose last line of output lists its modules
            proc = subprocess.run(
                [sys.executable, "-c", code + "\nprint(*sys.modules)"],
                capture_output=True,
                text=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr
            return set(proc.stdout.splitlines()[-1].split())

        loaded = loaded_after("import sys, kzdyn.cli")
        assert loaded.isdisjoint(
            {"kzdyn.numeric", "kzdyn.closed_forms", "scipy", "numpy", "sympy"}
        )
        # numeric imports scipy, scipy.linalg included, with itself, not at its
        # first quadrature, so that callers looping over quad_chamber pay the
        # import once, outside their loops
        assert {"scipy", "scipy.linalg"} <= loaded_after("import sys, kzdyn.numeric")
        for suite in SUITES:
            loaded = loaded_after(
                "import sys\n"
                "from kzdyn.cli import main\n"
                f"assert main(['verify', {suite!r}]) == 0\n"
            )
            for heavy in ("scipy", "numpy"):
                assert (heavy in loaded) == (suite == "selberg"), (suite, heavy)
            if suite == "main-theorem-sl2":
                # exact: no float module at all
                assert loaded.isdisjoint({"kzdyn.closed_forms", "kzdyn.numeric"})
            # sympy is a test-only dependency: no verify run loads it
            assert "sympy" not in loaded, suite
        loaded = loaded_after(
            "import sys\n"
            "from kzdyn.cli import main\n"
            "assert main(['verify', 'fusion', '--n', '3', '--nu', '1,1']) == 0\n"
        )
        assert "sympy" not in loaded

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
