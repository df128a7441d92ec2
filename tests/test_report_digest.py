"""Tests of ``tools/report_digest.py`` on one benchmark workload: the digest,
and the kept trees with their tolerance comparison."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """Reports, CSV sidecars and exit codes of checks_mix at seed 101."""
    tree = tmp_path_factory.mktemp("kept") / "tree"
    assert load_tool().main(["--seed", "101", "--keep", str(tree), "checks_mix"]) == 0
    return tree


def first_value(obj, kind, path=()):
    """Key path of the first value of exactly ``kind`` in a parsed report."""
    if type(obj) is kind:
        return path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = first_value(value, kind, (*path, key))
        if found is not None:
            return found
    return None


def edited_copy(kept, tmp_path, kind, edit):
    """Copy of the kept tree with the first ``kind`` value of one report edited;
    returns the copy and the report's path relative to the tree."""
    copy = tmp_path / "copy"
    shutil.copytree(kept, copy)
    for report in sorted(copy.rglob("*.json")):
        if report.name == "exit_codes.json":
            continue
        data = json.loads(report.read_text())
        path = first_value(data, kind)
        if path is not None and path[0] != "generated_at":
            *parents, last = path
            holder = data
            for key in parents:
                holder = holder[key]
            holder[last] = edit(holder[last])
            report.write_text(json.dumps(data))
            return copy, report.relative_to(copy)
    raise AssertionError(f"no {kind.__name__} value in any report")


def test_kept_tree_holds_reports_sidecars_and_exit_codes(kept):
    codes = json.loads((kept / "exit_codes.json").read_text())
    assert codes and all(code in {0, 1, 2, 3} for code in codes.values())
    assert all(name.startswith("checks_mix/") for name in codes)
    assert any(kept.rglob("*.csv"))


def test_tree_compared_with_itself_passes(kept, capsys):
    assert load_tool().main(["--compare", str(kept), str(kept)]) == 0
    assert "same" in capsys.readouterr().out


def test_float_within_tolerance_passes(kept, tmp_path, capsys):
    copy, rel = edited_copy(kept, tmp_path, float, lambda x: x * (1 + 1e-11) + 1e-14)
    assert load_tool().main(["--compare", str(kept), str(copy)]) == 0
    # the one edited float is the largest deviation, named by its file and key path
    keys = first_value(json.loads((kept / rel).read_text()), float)
    where = "/".join(map(str, (rel, *keys)))
    assert capsys.readouterr().out.splitlines()[-1].endswith(f" at {where}")


def test_float_beyond_tolerance_fails(kept, tmp_path, capsys):
    copy, rel = edited_copy(kept, tmp_path, float, lambda x: x * (1 + 1e-7) + 1e-10)
    assert load_tool().main(["--compare", str(kept), str(copy)]) == 1
    assert str(rel) in capsys.readouterr().out


def test_flipped_bool_fails(kept, tmp_path, capsys):
    copy, rel = edited_copy(kept, tmp_path, bool, lambda b: not b)
    assert load_tool().main(["--compare", str(kept), str(copy)]) == 1
    assert str(rel) in capsys.readouterr().out


def test_csv_cell_and_missing_file_fail(kept, tmp_path, capsys):
    tool = load_tool()
    copy = tmp_path / "copy"
    shutil.copytree(kept, copy)
    sidecar = sorted(copy.rglob("*.csv"))[0]
    rows = sidecar.read_text().splitlines()
    cells = rows[1].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.001 + 1.0)
    sidecar.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
    assert tool.main(["--compare", str(kept), str(copy)]) == 1
    assert str(sidecar.relative_to(copy)) in capsys.readouterr().out
    sidecar.unlink()
    assert tool.main(["--compare", str(kept), str(copy)]) == 1
    assert str(sidecar.relative_to(copy)) in capsys.readouterr().out
