"""Golden equation archives: derivation and expansion output must not drift.

Each case re-derives and completes one model and compares the serialized
archive byte for byte with the file committed under ``tests/golden/``.  A
refactor of the algebra, the equations of motion, the cumulant expansion or
completion that changes any of these bytes changes the exact symbolic
output, which is the contract.

Regenerate the files only for an intended change of that output:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import sys

import pytest

from cqf import FILTER_PHASE, complete, filter_by_name, meanfield_derive
from cqf.cli import parse_model, serialize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
MODELS = ("laser", "three_level", "optomech")


def _model_file_archive(name: str) -> str:
    with open(os.path.join(ROOT, "models", f"{name}.cqm"), encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    opts = parsed.options
    filt = None if opts.filter_name == "none" else filter_by_name(opts.filter_name)
    eqs = meanfield_derive(opts.track, parsed.model, opts.order, filt)
    return serialize(complete(eqs))


def _tavis5_archive() -> str:
    from conftest import make_tavis

    tavis = make_tavis(5)
    eqs = meanfield_derive([tavis.s(2, 2, k) for k in range(5)], tavis.model,
                           2, FILTER_PHASE)
    return serialize(complete(eqs))


CASES = {**{m: (lambda m=m: _model_file_archive(m)) for m in MODELS},
         "tavis5": _tavis5_archive}


@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.eqs.json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert CASES[name]() == expected


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(GOLDEN, exist_ok=True)
    for case, derive in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, f"{case}.eqs.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(derive())
