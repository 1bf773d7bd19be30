"""Determinism digests: the sha256 of 18 fixed-seed CLI outputs.

Every output is made in-process through ``cli.main`` at ``--seed 1``: for
each preset, ``run --s 300 --m 5`` and ``levels --s 300`` on the preset
file, and ``reproduce --table T --s 300 --m 5 --baseline-m 1000``.  A
change that keeps the draws and decisions keeps every digest.  The
digests hold for the numpy and scipy versions recorded in
``digests.json``; other versions skip.  To record new digests on purpose,
run ``PYTHONPATH=src python tests/test_digests.py [NAME ...]``: it
re-records the named digests (all of them when none is named) and prints
the name of each one that changed.
"""

import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy
import pytest
import scipy

from raresplit.cli import TABLES, main

DIGESTS = Path(__file__).with_name("digests.json")
ARGS = {
    "run": ("--s", "300", "--m", "5"),
    "levels": ("--s", "300"),
}


def _outputs() -> dict:
    """Output name -> argv, one per digest."""
    out = {}
    for table, stem in sorted(TABLES.items(), key=lambda kv: kv[1]):
        preset = str(resources.files("raresplit").joinpath("presets", f"{stem}.json"))
        for command, flags in ARGS.items():
            out[f"{command}-{stem}"] = [command, "--scenario", preset, *flags]
        out[f"reproduce-{stem}"] = ["reproduce", "--table", table, "--s", "300",
                                    "--m", "5", "--baseline-m", "1000"]
    return out


def digest(argv, out_dir) -> str:
    path = Path(out_dir) / "out"
    assert main([*argv, "--seed", "1", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


OUTPUTS = _outputs()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_digest(name, tmp_path):
    record = json.loads(DIGESTS.read_text())
    if (numpy.__version__, scipy.__version__) != (record["numpy"], record["scipy"]):
        pytest.skip(f"digests were recorded with numpy {record['numpy']} "
                    f"and scipy {record['scipy']}")
    got = digest(OUTPUTS[name], tmp_path)
    assert got == record["digests"][name], f"{name}: new digest {got}"


def rerecord(names) -> list:
    """Re-record the digests of ``names`` (every output when empty); returns
    the names whose digest changed.  Naming a part of the record keeps the
    rest, so the record's versions must be the running ones."""
    unknown = sorted(set(names) - OUTPUTS.keys())
    if unknown:
        raise SystemExit(f"unknown digests {unknown}; choose from {sorted(OUTPUTS)}")
    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"digests": {}}
    if names and {k: record.get(k) for k in versions} != versions:
        raise SystemExit(f"digests.json was recorded with other versions than {versions}; "
                         "re-record every digest")
    with tempfile.TemporaryDirectory() as tmp:
        new = {name: digest(OUTPUTS[name], tmp) for name in sorted(names or OUTPUTS)}
    changed = [name for name, value in new.items() if record["digests"].get(name) != value]
    record = {**versions, "digests": dict(sorted({**record["digests"], **new}.items()))}
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n")
    return changed


if __name__ == "__main__":
    for name in rerecord(sys.argv[1:]):
        print(name)
