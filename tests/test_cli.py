import json

from dilcalc.cli import main
from dilcalc.suites import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_jeval_json(self, capsys):
        code, out, _ = run(capsys, "jeval", "Id", "--gamma", "w", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "w*3"
        assert payload["verb"] == "jeval"

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "omega[Id]", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"] == {"type": "Omega"}

    def test_compare(self, capsys):
        code, out, _ = run(capsys, "compare", "w^2+1", "w*3")
        assert code == 0 and out.strip() == "greater"

    def test_enum(self, capsys):
        code, out, _ = run(capsys, "enum", "omega[Id]", "--x", "1", "--prefix", "3")
        assert code == 0
        assert out.splitlines() == ["0", "w^{x0}", "w^{x0}*2"]

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "omega[Id]")
        assert code == 0 and out.strip() == "[1, omega_head(0;Id)]"

    def test_sep(self, capsys):
        code, out, _ = run(capsys, "sep", "Id+Id", "--gamma", "w")
        assert code == 0 and out.strip() == "Id+Const(w)"

    def test_psi_otp(self, capsys):
        code, out, _ = run(capsys, "psi-otp", "Id", "--gamma", "w")
        assert code == 0 and out.strip() == "w^2"

    def test_psi_enum(self, capsys):
        code, out, _ = run(capsys, "psi-enum", "Const(3)", "--gamma", "0", "--depth", "2")
        assert code == 0
        assert out.splitlines() == ["c[0]", "c[1]", "c[2]"]

    def test_jeval_audit(self, capsys):
        code, out, _ = run(
            capsys, "jeval", "Id", "--gamma", "w", "--audit", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["guardAudit"]["identical"] is True
        assert payload["guardAudit"]["rankViolations"] == []


class TestExitCodes:
    def test_fragment_error_is_two(self, capsys):
        code, _, err = run(capsys, "jplus", "Id", "--gamma", "w")
        assert code == 2
        assert "fragment" in err

    def test_parse_error_is_three(self, capsys):
        code, _, err = run(capsys, "jeval", "Id+", "--gamma", "w")
        assert code == 3
        assert "parse" in err

    def test_usage_error_is_three(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 3

    def test_unknown_suite_is_three(self, capsys):
        code, _, err = run(capsys, "check", "does-not-exist")
        assert code == 3
        assert "unknown check suite" in err

    def test_failed_check_is_one(self, capsys, monkeypatch):
        def broken(**_opts):
            rep = CheckReport("broken")
            rep.failed("planted violation")
            return rep

        monkeypatch.setattr("dilcalc.suites.CHECKS", {"broken": broken})
        code, out, _ = run(capsys, "check", "broken")
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL broken:")
        assert "  violation: planted violation" in out.splitlines()

    def test_unreadable_run_file_is_three(self, tmp_path, capsys):
        code, out, err = run(capsys, "run", "--file", str(tmp_path / "missing.commands"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "check", "j-exact", "--format", "json")
        _, out2, _ = run(capsys, "check", "j-exact", "--format", "json")
        assert out1 == out2

    def test_enum_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "enum", "omega[Id*2]", "--x", "2", "--prefix", "25", "--format", "json")
        _, out2, _ = run(capsys, "enum", "omega[Id*2]", "--x", "2", "--prefix", "25", "--format", "json")
        assert out1 == out2


class TestScenario:
    def test_run_file_aggregates_worst_exit(self, tmp_path, capsys):
        scenario = tmp_path / "demo.commands"
        scenario.write_text(
            "# demo scenario\n"
            "jeval Id --gamma w\n"
            "compare w w\n"
            "jplus Id --gamma w\n"
        )
        code, out, _ = run(capsys, "run", "--file", str(scenario))
        assert code == 2
        assert "w*3" in out

    def test_run_file_all_green(self, tmp_path, capsys):
        scenario = tmp_path / "ok.commands"
        scenario.write_text("compare 1 w\npsi-otp Id --gamma w\n")
        code, out, _ = run(capsys, "run", "--file", str(scenario))
        assert code == 0
        assert "less" in out and "w^2" in out
