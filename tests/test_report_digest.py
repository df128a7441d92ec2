"""Smoke test of ``tools/report_digest.py`` on one benchmark workload."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_prints_one_line_per_job(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["--seed", "101", "checks_mix"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    jobs = tool._load("perfbench/workloads.py").build("checks_mix", 101, str(tmp_path))
    reports = [name for name, _, _ in lines if not name.endswith(".csv")]
    assert reports == [f"checks_mix/{job.name}" for job in jobs]
    for name, code, digest in lines:
        assert code in {"0", "1", "2", "3"}
        assert len(digest) == 64 or digest == "-"
    # every sidecar line follows its report's line
    names = [name for name, _, _ in lines]
    for i, name in enumerate(names):
        if name.endswith(".csv"):
            assert names[i - 1] == name[: -len(".csv")]
