"""The demos, and the toy corpus they read."""

import importlib.util
import sys
from pathlib import Path

import pytest

from clirun import files, run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_the_toy_data_regenerates_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written in the repo
    spec = importlib.util.spec_from_file_location("make_toy_data", DEMOS / "data/make_toy_data.py")
    make_toy_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_toy_data)
    monkeypatch.setattr(make_toy_data, "HERE", tmp_path)
    make_toy_data.main()
    assert files(tmp_path) == {path: text for path, text in files(DEMOS / "data").items()
                               if path.startswith(("toy_brat/", "toy_links.tsv"))}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_a_demo_prints_the_same_under_two_hash_seeds(demo):
    runs = [run_python(DEMOS / demo, hash_seed=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
