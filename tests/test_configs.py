"""The shipped configs: each loads, README names each, and the ladder studies
reproduce their pinned outputs at their shipped size."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from mixdetect.cli import load_experiment, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.name for p in (ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_loads(name):
    path = ROOT / "configs" / name
    exp = load_experiment(str(path))
    assert (exp.run is not None) is ("montecarlo" in json.loads(path.read_text()))


def test_readme_and_configs_agree():
    """Every configs/ path README names exists, and README names every config."""
    named = set(re.findall(r"configs/([\w.-]+\.json)", (ROOT / "README.md").read_text()))
    assert named == set(CONFIGS)


# SHA-256 of stdout and of every file simulate writes, run from the work dir.
# delay_ladder.json's digests were recorded before the two geometric ladders
# were added beside it, and match with AVX-512 on and off.
LADDER_DIGESTS = {
    "delay_ladder.json": {
        "stdout": "0ae2f23842fcd1b0eef7e09e0940cc8ec1f31ff9f6245dbdc0a090f33454444f",
        "ladder_report.json": "b55fee84cd2169c7e3d565c38845e87e5b655f36a340a8203104d162086df7ad",
        "ladders/ms_ladder_theta1.csv":
            "6b6075ce034e3ac8dd6520d2dbda5238c766171e20e3bfb9e0a7730da7feb780",
    },
    "delay_ladder_ms_geometric.json": {
        "stdout": "45c73020dae44ba1828983421374a6cc0800e1bfb5918a6ec2072add471ff62b",
        "ladder_ms_geometric_report.json":
            "6ee636f847bf9f878604b5812504021da527901b8fff2a61ed9cdea390f52a26",
        "ladders/ms_geometric_ladder_theta1.csv":
            "b318862ce7e92fd96738ead8e732fb662043fbc2230ec720617c949a2cca2650",
    },
    "delay_ladder_msr_geometric.json": {
        "stdout": "7c341ea9b08000ca3c0e85e71ec109cee3e059f2fc838c1ed90da472b53cc29d",
        "ladder_msr_geometric_report.json":
            "934fc871beb5d81fe2c55979e763f88b165c264d8f748f4a83916845ee193c04",
        "ladders/msr_geometric_ladder_theta1.csv":
            "611a44200d4b30f65048df9e172c9179b83a40ac9f2191043fe14780c2576981",
    },
}


@pytest.mark.parametrize("name", sorted(LADDER_DIGESTS))
def test_ladder_study_outputs_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(ROOT / "configs" / name)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            got[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    assert got == LADDER_DIGESTS[name]


def test_ladder_studies_write_distinct_files():
    """Each ladder config names its own report and CSV (the pins above list
    every file a run writes), so the three can run in one directory."""
    files = [f for digests in LADDER_DIGESTS.values() for f in digests if f != "stdout"]
    assert len(files) == len(set(files))
