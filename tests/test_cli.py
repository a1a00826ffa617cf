"""Tests for the command-line harness: configuration validation, suite
reports and their schema, deterministic dumps, caching, and exit codes."""

import json
import subprocess
import sys

import pytest

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
from kzdyn.dyn import K_operator, PoleHit, ResonantWeight, fusion_solve
from kzdyn.rep import enumerate_basis, verma_symbolic
from kzdyn.roots import serialize_order, special_order
from kzdyn.symexpr import DivisionByZero, InexactDivision, ParseError, parse


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

    def test_jobs_grid_tol_caps(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="selberg", jobs=0))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="selberg", grid="huge"))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="selberg", tol=1e-20))

    def test_depth_and_table_caps(self):
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="fusion", depth=9))
        with pytest.raises(CapabilityExceeded):
            run_suite(SuiteConfig(suite="appendix-c", max_ab=5))

    def test_registry_is_complete(self):
        assert len(SUITES) == 10
        assert len(DUMP_KINDS) == 6


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

    def test_compatibility_default(self):
        report = run_suite(SuiteConfig(suite="compatibility"))
        _schema_check(report, "compatibility")
        assert report["verdict"] == "pass"
        checks = [w["check"] for w in report["witnesses"]]
        assert checks.count("exchange") == 1
        assert checks.count("derivative-intertwining") == 2

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

    def test_selberg_suite_parallel_matches_serial(self):
        serial = run_suite(SuiteConfig(suite="selberg"))
        parallel = run_suite(SuiteConfig(suite="selberg", jobs=3))
        assert serial["witnesses"] == parallel["witnesses"]

    def test_main_theorem_suite(self):
        report = run_suite(SuiteConfig(suite="main-theorem-sl2"))
        _schema_check(report, "main-theorem-sl2")
        assert report["verdict"] == "pass"
        assert len(report["witnesses"]) == 6
        assert all(w["rel_error"] <= 1e-9 for w in report["witnesses"])

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


class TestDumps:
    def test_order_contract_example(self):
        assert dump_object("order", {"n": 3, "h": 1}) == "a(1,2),a(1,3),a(2,3)"

    def test_order_default_level_is_standard(self):
        assert dump_object("order", {"n": 3}) == serialize_order(special_order(3, 2))

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

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            dump_object("bogus", {})

    def test_dump_determinism(self):
        first = dump_object("fusion", {"n": 2, "depth": 3})
        second = dump_object("fusion", {"n": 2, "depth": 3})
        assert first == second

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KZDYN_CACHE", str(tmp_path))
        first = dump_object("order", {"n": 4, "h": 2})
        cached = list(tmp_path.glob("order-*.txt"))
        assert len(cached) == 1
        assert cached[0].read_text(encoding="utf-8") == first
        assert dump_object("order", {"n": 4, "h": 2}) == first

    def test_cache_is_read_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KZDYN_CACHE", str(tmp_path))
        dump_object("order", {"n": 3, "h": 1})
        marker = "cached-sentinel"
        for path in tmp_path.glob("order-*.txt"):
            path.write_text(marker, encoding="utf-8")
        assert dump_object("order", {"n": 3, "h": 1}) == marker

    def test_cache_misses_after_schema_change(self, tmp_path, monkeypatch):
        from kzdyn import cli as cli_module

        monkeypatch.setenv("KZDYN_CACHE", str(tmp_path))
        first = dump_object("order", {"n": 3, "h": 1})
        for path in tmp_path.glob("order-*.txt"):
            path.write_text("stale", encoding="utf-8")
        monkeypatch.setattr(cli_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert dump_object("order", {"n": 3, "h": 1}) == first
        assert len(list(tmp_path.glob("order-*.txt"))) == 2
        # every file is a finished artifact: no temporary file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in tmp_path.glob("order-*.txt")
        )


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

    def test_verify_flagged_exits_zero_with_warning(self, capsys, monkeypatch):
        from kzdyn import cli as cli_module

        monkeypatch.setitem(
            cli_module._SUITE_RUNNERS,
            "sigma-orders",
            lambda cfg: ({}, "flagged", [], ["open question"], {}),
        )
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: open question" in captured.err
        assert json.loads(captured.out)["verdict"] == "flagged"

    def test_verify_fail_exits_one(self, capsys, monkeypatch):
        from kzdyn import cli as cli_module

        monkeypatch.setitem(
            cli_module._SUITE_RUNNERS,
            "sigma-orders",
            lambda cfg: ({}, "fail", [{"bad": True}], [], {}),
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
            ParseError("unexpected token"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_internal_error_exits_three(self, capsys, monkeypatch, error):
        from kzdyn import cli as cli_module

        def raise_error(cfg):
            raise error

        monkeypatch.setitem(cli_module._SUITE_RUNNERS, "sigma-orders", raise_error)
        code = main(["verify", "sigma-orders"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert str(error) in captured.err

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

    def test_module_is_executable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kzdyn.cli", "dump", "order", "--n", "3", "--h", "1"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == "a(1,2),a(1,3),a(2,3)\n"
