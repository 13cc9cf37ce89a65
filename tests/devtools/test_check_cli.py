"""`atcd check` CLI contract: output modes, baseline flags, exit codes.

Exit codes follow the CLI001 contract the analyzer itself enforces:
0 = clean, 1 = findings (the negative domain answer), 2 = user error.
"""

import json
import os

import pytest

from repro.cli import main

BAD_KERNEL = (
    "import time\n"
    "def f():\n"
    "    return time.time()\n"
)

GOOD_KERNEL = (
    "import time\n"
    "def f():\n"
    "    return time.perf_counter()\n"
)


@pytest.fixture
def kernel_dir(tmp_path):
    """A fake checkout containing one violating kernel module."""
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "bad.py").write_text(BAD_KERNEL)
    return tmp_path


class TestExitCodes:
    def test_findings_exit_1(self, kernel_dir, capsys):
        assert main(["check", str(kernel_dir)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:3:" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "good.py").write_text(GOOD_KERNEL)
        assert main(["check", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_unknown_rule_exit_2(self, kernel_dir, capsys):
        assert main(["check", str(kernel_dir), "--rule", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("atcd: ") and "unknown rule" in err

    def test_missing_path_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["check", str(bad)]) == 2
        assert "does not parse" in capsys.readouterr().err


class TestRuleSelection:
    def test_rule_filter_restricts(self, kernel_dir, capsys):
        # The violation is DET001; running only EXC001 must come up clean.
        assert main(["check", str(kernel_dir), "--rule", "EXC001"]) == 0
        assert main(["check", str(kernel_dir), "--rule", "DET001"]) == 1

    def test_rule_filter_is_case_insensitive(self, kernel_dir):
        assert main(["check", str(kernel_dir), "--rule", "det001"]) == 1


class TestJsonOutput:
    def test_json_document_shape(self, kernel_dir, capsys):
        assert main(["check", str(kernel_dir), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["files_checked"] == 1
        assert len(document["rules_run"]) == 7
        assert document["grandfathered"] == 0
        (finding,) = document["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"].endswith("bad.py")
        assert finding["line"] == 3

    def test_json_clean_exit_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []


class TestBaseline:
    def test_write_then_apply_grandfathers(self, kernel_dir, capsys):
        baseline = kernel_dir / "baseline.json"
        assert main([
            "check", str(kernel_dir), "--write-baseline", str(baseline),
        ]) == 0
        assert "1 grandfathered finding(s)" in capsys.readouterr().out
        assert main([
            "check", str(kernel_dir), "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 1 grandfathered" in out

    def test_new_violation_escapes_baseline(self, kernel_dir, capsys):
        baseline = kernel_dir / "baseline.json"
        main(["check", str(kernel_dir), "--write-baseline", str(baseline)])
        worse = kernel_dir / "repro" / "core" / "worse.py"
        worse.write_text("import uuid\n\ndef g():\n    return uuid.uuid4()\n")
        assert main([
            "check", str(kernel_dir), "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "worse.py" in out

    def test_stale_entries_reported(self, kernel_dir, capsys):
        baseline = kernel_dir / "baseline.json"
        main(["check", str(kernel_dir), "--write-baseline", str(baseline)])
        capsys.readouterr()
        (kernel_dir / "repro" / "core" / "bad.py").write_text(GOOD_KERNEL)
        assert main([
            "check", str(kernel_dir), "--baseline", str(baseline),
        ]) == 0
        assert "stale baseline entry" in capsys.readouterr().err

    def test_malformed_baseline_exit_2(self, kernel_dir, tmp_path, capsys):
        baseline = tmp_path / "garbage.json"
        baseline.write_text("{\"version\": 99}\n")
        assert main([
            "check", str(kernel_dir), "--baseline", str(baseline),
        ]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_default_baseline_picked_up_from_cwd(
        self, kernel_dir, monkeypatch, capsys
    ):
        # The committed staticcheck-baseline.json is found without flags.
        monkeypatch.chdir(kernel_dir)
        main(["check", os.curdir, "--write-baseline",
              "staticcheck-baseline.json"])
        capsys.readouterr()
        assert main(["check", os.curdir]) == 0
        assert "1 grandfathered" in capsys.readouterr().out


class TestRepoIsClean:
    def test_shipped_package_has_no_findings(self, capsys):
        """The acceptance gate: `atcd check` on the real package is clean
        even without the baseline (which is committed empty)."""
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        assert main(["check", package_dir]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
