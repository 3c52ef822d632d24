import json
import shlex
import sys

import pytest

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


# One command per verb with its whole JSON line, as printed before the verbs
# shared one output path; ``inputs`` echoes only the listed arguments.
JSON_LINES = [
    ("classify Id+1",
     '{"inputs": {"expr": "Id+1"}, "result": {"pred": "Id", "type": "1"}, "verb": "classify"}'),
    ("decompose Id*w --samples 2",
     '{"inputs": {"expr": "Id*w"}, "result": {"kind": "limit", "partials": ["0", "Id"]}, '
     '"verb": "decompose"}'),
    ("enum omega_head(Id;Id) --x 1 --prefix 4",
     '{"inputs": {"expr": "omega_head(Id;Id)", "prefix": 4, "x": 1}, "result": '
     '["w^{r:x0}", "w^{r:x0}+w^{l:x0}", "w^{r:x0}+w^{l:x0}*2", "w^{r:x0}+w^{l:x0}*3"], '
     '"verb": "enum"}'),
    ("compare w^2+1 w*3",
     '{"inputs": {"left": "w^2+1", "right": "w*3"}, "result": "greater", "verb": "compare"}'),
    ("jeval Id --gamma w --audit --steps",
     '{"eta": "w*3+1", "guardAudit": {"enlargedEta": "w*4", "identical": true, '
     '"rankViolations": [], "stepsChecked": 2, "unranked": 0}, "inputs": {"expr": "Id", '
     '"gamma": "w"}, "steps": [{"clause": "constant", "expr": "0", "value": "w"}, '
     '{"clause": "constant", "expr": "Const(w)", "value": "w*2"}, {"clause": "separation", '
     '"expr": "Id", "value": "w*3"}], "value": "w*3", "verb": "jeval", "xi": "w^(w*3+1)+1"}'),
    ("jprime Id --gamma w",
     '{"eta": "w*5+1", "inputs": {"expr": "Id", "gamma": "w"}, "value": "w*5", '
     '"verb": "jprime", "xi": "w^(w*5+1)+1"}'),
    ("jplus 1 --gamma w",
     '{"eta": "w^2+1", "inputs": {"expr": "1", "gamma": "w"}, "value": "w^2", '
     '"verb": "jplus", "xi": "w^2+1"}'),
    ("psi-enum Const(3) --gamma 0 --depth 2 --prefix 2",
     '{"inputs": {"depth": 2, "expr": "Const(3)", "gamma": "0"}, "result": ["c[0]", "c[1]"], '
     '"verb": "psi-enum"}'),
    ("psi-otp Id --gamma w",
     '{"inputs": {"expr": "Id", "gamma": "w"}, "value": "w^2", "verb": "psi-otp"}'),
    ("otp omega[Id] --arg w",
     '{"inputs": {"arg": "w", "expr": "omega[Id]"}, "value": "w^w", "verb": "otp"}'),
    ("sep Id+Id --gamma w",
     '{"inputs": {"expr": "Id+Id", "gamma": "w"}, "value": "Id+Const(w)", "verb": "sep"}'),
    ("check j-laws",
     '{"inputs": {"depth": 30, "name": "j-laws", "prefix": 200, "seed": 2024, '
     '"trials": 10000}, "result": [{"ok": true, "passed": 6, "skipped": 12, '
     '"suite": "j-laws", "violations": []}], "verb": "check"}'),
]


class TestJsonLines:
    def test_every_verb_is_pinned(self):
        verbs = {line.split()[0] for line, _ in JSON_LINES}
        assert verbs == {"classify", "decompose", "enum", "compare", "jeval", "jprime",
                         "jplus", "psi-enum", "psi-otp", "otp", "sep", "check"}

    @pytest.mark.parametrize("line,expected", JSON_LINES, ids=[v for v, _ in JSON_LINES])
    def test_json_line(self, capsys, line, expected):
        code, out, err = run(capsys, *shlex.split(line), "--format", "json")
        assert (code, out, err) == (0, expected + "\n", "")


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

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("omega[", "]")])
    def test_deep_nesting_is_three(self, capsys, opener, closer):
        code, out, err = run(capsys, "classify", opener * 12000 + "Id" + closer * 12000)
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ")
        assert "Traceback" not in err

    def test_unreadable_run_file_is_three(self, tmp_path, capsys):
        code, out, err = run(capsys, "run", "--file", str(tmp_path / "missing.commands"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")


class TestRecursionLimit:
    @pytest.mark.parametrize(
        "argv",
        [["compare", "1", "2"], ["jeval", "Id+", "--gamma", "w"], ["nonsense"]],
        ids=["answer", "parse-error", "usage-error"],
    )
    def test_main_restores_the_limit(self, capsys, argv):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1500)
        try:
            run(capsys, *argv)
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(old)


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
