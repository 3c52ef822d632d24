import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dilcalc
from dilcalc.cli import main
from dilcalc.errors import DepthExceeded
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

    def test_decompose_zero(self, capsys):
        code, out, _ = run(capsys, "decompose", "0")
        assert code == 0 and out == "[]\n"

    def test_decompose_over_a_limit_prefix(self, capsys):
        # components refuses the transfinite prefix, so the verb names the
        # successor view's prefix and top
        code, out, _ = run(capsys, "decompose", "Const(w)+Id")
        assert code == 0 and out.splitlines() == ["prefix Const(w)", "top Id"]

    def test_decompose_separation_at_a_limit_cut(self, capsys):
        # its parts are the separations at the cuts below, each its own ambient
        code, out, _ = run(capsys, "decompose", "sep@(omega_head(Id;Id);w;w)")
        assert code == 0 and out.splitlines() == [
            "limit; partial sums: 0, sep(omega_head(Id;Id),1), sep(omega_head(Id;Id),2)"]

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
    ("classify 0",
     '{"inputs": {"expr": "0"}, "result": {"type": "0"}, "verb": "classify"}'),
    ("classify 1*w",
     '{"inputs": {"expr": "1*w"}, "result": {"type": "omega"}, "verb": "classify"}'),
    ("decompose 0",
     '{"inputs": {"expr": "0"}, "result": {"components": [], "kind": "zero"}, "verb": "decompose"}'),
    ("decompose Const(w)+Id",
     '{"inputs": {"expr": "Const(w)+Id"}, "result": {"kind": "successor", "prefix": "Const(w)", '
     '"top": "Id"}, "verb": "decompose"}'),
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


class TestLimitStepLog:
    """The step log of a B*w limit: gamma and the iterates of J(B, .), one
    separation of Id each, then the limit with B as its child."""

    ARGV = ["jeval", "Id*w", "--gamma", "w", "--steps", "--audit"]
    TEXT = [
        "value w^2",
        "guards eta=w^2+1 xi=w^(w^2+2)+1",
        "audit identical=True ranks_ok=True",
        "  [constant] 0 -> w",
        "  [constant] Const(w) -> w*2",
        "  [separation] Id -> w*3",
    ] + [
        line
        for k in range(1, 7)
        for line in (f"  [constant] 0 -> w*{3 ** k}",
                     f"  [constant] Const(w*{3 ** k}) -> w*{2 * 3 ** k}",
                     f"  [separation] Id -> w*{3 ** (k + 1)}")
    ] + ["  [limit] Id*w -> w^2"]

    def test_text(self, capsys):
        code, out, err = run(capsys, *self.ARGV)
        assert (code, err) == (0, "")
        assert out.splitlines() == self.TEXT
        assert len(self.TEXT) == 3 + 22

    def test_json(self, capsys):
        code, out, err = run(capsys, *self.ARGV, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == "3b64170b6d3d00c1a29e7db614850a7988e2723a"
        payload = json.loads(out)
        assert payload["guardAudit"] == {"enlargedEta": "w^2+w", "identical": True,
                                         "rankViolations": [], "stepsChecked": 16,
                                         "unranked": 0}
        steps = [f"  [{s['clause']}] {s['expr']} -> {s['value']}" for s in payload["steps"]]
        assert steps == self.TEXT[3:]


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

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            # a sum is walked in a loop; nesting of another kind still runs
            # out of stack
            (["otp", "Id" + "*w" * 12000, "--arg", "w"], "refused: RecursionError: "),
            (["psi-enum", "omega[Id]", "--gamma", "1"],
             "refused: BudgetExceeded: formal-sum budget overflow\n"),
            # the 12th *w level (2^12 elements) is refused before it is
            # built, not after 2^24 elements are
            (["psi-enum", "Id" + "*w" * 24, "--gamma", "1", "--depth", "1", "--prefix", "3"],
             "refused: BudgetExceeded: 4096 elements exceed cap 4000\n"),
        ],
        ids=["recursion", "budget", "repetition"],
    )
    def test_refusal_is_two(self, capsys, argv, refusal):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(refusal)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_long_sum_answers(self, capsys):
        code, out, err = run(capsys, "classify", "Id*12000")
        assert (code, out, err) == (0, "type Omega\n", "")

    def test_depth_refusal_is_two(self, capsys, monkeypatch):
        def exhausted(*_args):
            raise DepthExceeded("collapse recursion exceeded its step budget")

        monkeypatch.setattr("dilcalc.cli.psi_clause_otp", exhausted)
        code, out, err = run(capsys, "psi-otp", "Id", "--gamma", "w")
        assert (code, out) == (2, "")
        assert err == "refused: DepthExceeded: collapse recursion exceeded its step budget\n"

    @pytest.mark.parametrize(
        "text",
        ["band(omega[Id];0;1;1)", "band(Id+Id;0;1;1)", "sep@(omega[Id];1;1)", "sep@(Id*2;1;1)"],
    )
    def test_internal_form_over_a_compound_base_is_three(self, capsys, text):
        # band and sep@ cut a connected atom; any other base is refused on parse
        code, out, err = run(capsys, "classify", text)
        assert (code, out) == (3, "")
        assert err.startswith("parse error: ") and "is not a connected atom" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "sep@(omega_head(Id;Id);w;1)"],
            ["otp", "band(omega_head(Id;Id);0;w;1)", "--arg", "1"],
        ],
    )
    def test_internal_cut_above_its_ambient_is_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("parse error: ") and "exceeds its ambient" in err

    @pytest.mark.parametrize("multiplier", ["1000000000", "1" * 5000])
    def test_huge_multiplier_is_three(self, capsys, multiplier):
        code, out, err = run(capsys, "classify", "Id*" + multiplier)
        assert (code, out) == (3, "")
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "line",
        [
            "enum Id --x -2 --prefix 3",
            "enum Id --prefix -1",
            "psi-enum Const(3) --gamma 0 --prefix -1",
            "psi-enum Const(3) --gamma 0 --depth -1",
            "decompose Id*w --samples -1",
            "check coherence --prefix -1",
            "check wellfounded-fuzz --trials -1",
            "check wellfounded-fuzz --depth -1",
        ],
    )
    def test_negative_count_is_three(self, capsys, line):
        code, out, err = run(capsys, *shlex.split(line))
        assert (code, out) == (3, "")
        assert "expected a non-negative integer" in err

    def test_unreadable_run_file_is_three(self, tmp_path, capsys):
        code, out, err = run(capsys, "run", "--file", str(tmp_path / "missing.commands"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text", ["sep@(omega_head(Id;Id);w^w;w^w)", "band(omega_head(Id;Id);0;w^w;w^w)"]
    )
    def test_deep_order_type_fold_ends_within_seconds(self, text):
        # each nested limit cut multiplies the fold's work about sevenfold,
        # so at the cut w^w only the fold budget ends it
        src = Path(dilcalc.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "dilcalc.cli", "otp", text, "--arg", "0"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode in (0, 2)
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv,code,out,err",
        [
            (["otp", "Const(w^(100000000000000000000))", "--arg", "w"], 0,
             "w^100000000000000000000\n", ""),
            (["otp", "Id*99999", "--arg", "w"], 0, "w*99999\n", ""),
            (["otp", "omega_head(Id;Id)+Id*5000", "--arg", "w"], 0, "w^(w*2)+w*5000\n", ""),
            (["jeval", "Id*99999", "--gamma", "w"], 2, "",
             "refused: DepthExceeded: evaluation exceeded 10000 steps\n"),
            (["jeval", "+".join(["Id+Const(w)+Id*w+1"] * 1250), "--gamma", "w"], 2, "",
             "refused: DepthExceeded: evaluation exceeded 10000 steps\n"),
            (["jeval", "omega_head(Id;Id)+Id*5000", "--gamma", "w"], 2, "",
             "outside supported fragment: OutOfNotation: iterates escalate beyond the "
             "epsilon_0 fragment\n"),
            (["psi-otp", "Const(w^(100000000000000000000))", "--gamma", "w"], 0,
             "w^100000000000000000000\n", ""),
            (["psi-otp", "omega_head(Id;Id)+Id*5000", "--gamma", "w"], 2, "",
             "outside supported fragment: OutOfNotation: iterates escalate beyond the "
             "epsilon_0 fragment\n"),
            (["psi-otp", "+".join(["Id+Const(w)+Id*w+1"] * 1250), "--gamma", "w"], 0,
             "w^(w*1250)+1\n", ""),
        ],
        ids=["huge-exponent", "otp-long-sum", "otp-head-sum", "jeval-long-sum",
             "jeval-mixed-sum", "jeval-head-sum", "psi-huge-exponent", "psi-head-sum",
             "psi-mixed-sum"],
    )
    def test_robustness_probe(self, capsys, argv, code, out, err):
        # huge and long inputs answer or refuse with their exit code, in
        # about two seconds or less each
        assert run(capsys, *argv) == (code, out, err)

    def test_enum_prints_nothing(self, capsys):
        assert run(capsys, "enum", "Id", "--x", "2", "--prefix", "0") == (0, "", "")
        code, out, _ = run(capsys, "enum", "Id", "--x", "2", "--prefix", "0", "--format", "json")
        assert (code, json.loads(out)["result"]) == (0, [])
        # a repetition whose base has no element over no point
        assert run(capsys, "enum", "Id*w", "--x", "0") == (0, "", "")

    def test_enum_charges_one_pull_per_element(self, capsys):
        # a head with a low part reaches the default cap of 200,000 pulls no
        # sooner than one without: the lead, the least low exponent, then
        # one pull for each sum
        code, out, err = run(capsys, "enum", "omega_head(Id;Id)", "--x", "1", "--prefix", "100000")
        lines = out.splitlines()
        assert (code, len(lines), err) == (0, 100000, "")
        assert lines[:2] == ["w^{r:x0}", "w^{r:x0}+w^{l:x0}"]
        assert lines[-1] == "w^{r:x0}+w^{l:x0}*99999"
        code, _, err = run(capsys, "enum", "omega_head(Id;Id)", "--x", "1", "--prefix", "200000")
        assert (code, err) == (2, "refused: BudgetExceeded: stream pull budget exhausted\n")

    def test_coherence_passes(self, capsys):
        code, out, _ = run(capsys, "check", "coherence", "--prefix", "0")
        assert (code, out.splitlines()[0]) == (0, "PASS coherence: 145 checks, 0 skips, 0 violations")


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
    def test_lemma_suite_output_is_pinned(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "lemma_suite.commands"
        code, out, _ = run(capsys, "run", "--file", str(path))
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "544997e43f54e2c6b52e98d0a275dc0383882f92"

    def test_check_all_output_is_pinned(self, capsys, monkeypatch):
        # both formats render the reports of one run
        import dilcalc.suites as suites

        reports = suites.run_check("all")
        monkeypatch.setattr(suites, "run_check", lambda name, **_opts: reports)
        digests = []
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "check", "all", "--format", fmt)
            assert (code, err) == (0, "")
            digests.append(hashlib.sha1(out.encode()).hexdigest())
        assert digests == ["b2b407eb5029028c5a56fef7babc41b82a790ec8",
                           "d84d38a16c3e380a47018d989df7fba12488778e"]

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


class TestImportSurface:
    @staticmethod
    def loaded(*argv):
        """The modules a fresh process has loaded after ``dilcalc.cli.main(argv)``
        (after the bare import when argv is empty)."""
        src = Path(dilcalc.__file__).resolve().parents[1]
        probe = ("import sys, dilcalc.cli\n"
                 "if sys.argv[1:]: assert dilcalc.cli.main(sys.argv[1:]) == 0\n"
                 "print(*sorted(sys.modules), file=sys.stderr)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return done.stderr.split()

    def test_cli_loads_neither_suites_nor_coherence(self):
        # a cold CLI process is mostly import; only `check` needs the suites
        loaded = self.loaded()
        assert "dilcalc.cli" in loaded
        assert "dilcalc.suites" not in loaded and "dilcalc.coherence" not in loaded

    @pytest.mark.parametrize("argv", [(), ("check", "j-exact")], ids=["import", "check"])
    def test_cli_loads_neither_dataclasses_nor_inspect(self, argv):
        # the kernel's records are plain classes: dataclasses generates code
        # at import and brings in inspect, which every cold process would pay
        loaded = self.loaded(*argv)
        assert "dilcalc.cli" in loaded and ("dilcalc.suites" in loaded) == bool(argv)
        assert "dataclasses" not in loaded and "inspect" not in loaded

    def test_public_names(self):
        # adding or retiring a public name is an edit here
        assert sorted(dilcalc.__all__) == [
            "BudgetExceeded", "DepthExceeded", "Dil", "DilcalcError", "EnumBudget",
            "GuardViolation", "JResult", "LimitPattern", "MalformedElement", "NoUniqueIndex",
            "NotConnected", "NotTypeOmega", "Ord", "OutOfNotation", "ParseError", "PsiOrder",
            "UnsupportedDecomposition", "UnsupportedLimit", "UnsupportedOtp",
            "ambient_stream", "chain_search", "classify", "compare_elements",
            "components", "decompose", "detect_limit_pattern", "enum_elements",
            "important_index", "j_eval", "j_guard_report", "jplus_eval",
            "jprime_eval", "ll_relation", "ord_add", "ord_cmp", "ord_is_principal",
            "ord_mul_nat", "ord_mul_omega", "ord_omega_pow", "ord_str",
            "ord_sup_solve", "otp_symbolic", "parse_dil", "parse_ord",
            "prefix_elements", "psi_clause_otp", "psi_enum", "sep",
            "sep_signed", "sep_signed_iter", "support_of", "to_str",
        ]
