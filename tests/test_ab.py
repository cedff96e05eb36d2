"""Self-test of ``tools/ab.py`` on criterion 8's tiny world: a base
revision exported by ``git archive`` and this checkout run side by side
under two package names."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def base_repo(tmp_path_factory):
    """A git repository whose one commit holds this checkout's package."""
    repo = tmp_path_factory.mktemp("ab-base")
    shutil.copytree(
        ROOT / "src" / "regionsim",
        repo / "src" / "regionsim",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@localhost",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    return repo


@pytest.mark.parametrize("function", ["distill", "encode"])
def test_alternates_both_trees(base_repo, capsys, function):
    tool = _load_tool()
    argv = ["HEAD", function, "--small", "--alternations", "2", "--repo", str(base_repo)]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["1", "2"]
    assert all("ratio" in line and line.split()[-1] in ("base", "change") for line in lines[:2])
    assert lines[2].startswith(f"{function} seed 0: median ratio ")
    assert lines[2].endswith("outputs identical")
    # The base side ran the exported tree, the change side this checkout.
    change_pkg = Path(sys.modules["ab_change.trainer"].__file__).parent
    assert change_pkg == ROOT / "src" / "regionsim"
    assert not sys.modules["ab_base.trainer"].__file__.startswith(str(ROOT))


def test_unknown_revision_exits_2(base_repo, capsys):
    tool = _load_tool()
    assert tool.main(["no-such-rev", "encode", "--small", "--repo", str(base_repo)]) == 2
    assert "cannot export no-such-rev" in capsys.readouterr().err
