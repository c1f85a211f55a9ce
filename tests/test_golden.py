"""Golden equation archives: derivation and expansion output must not drift.

Each case re-derives and completes one model and compares the serialized
archive byte for byte with the file committed under ``tests/golden/``.  A
refactor of the algebra, the equations of motion, the cumulant expansion or
completion that changes any of these bytes changes the exact symbolic
output, which is the contract.

Regenerate the files only for an intended change of that output:
``PYTHONPATH=src python tests/test_golden.py``.

Larger Tavis–Cummings sets are pinned by the sha256 of their archive
instead of a committed file: N=20 here, and N=50 in acceptance criterion 2,
which completes that set anyway.  So are the laser's high-order sets, whose
over-order products are long and full of repeated factors: its archives at
orders 6 and 8, and the rendered order-8 <a'(t+tau) a(t)> delay system.
Delay systems in which the single-time averages are co-evolved, and the
optomechanical one whose coherent drive adds delay-constant <B(t)> rows,
are pinned by digest as well, and so are printed forms: LaTeX of two
completed sets and the model-file printout of each ``models/*.cqm``.
"""

import hashlib
import os
import sys
import threading

import pytest

from cqf import (FILTER_PHASE, build_correlation_system, complete,
                 filter_by_name, meanfield_derive)
from cqf.algebra.render import render_average
from cqf.cli import parse_model, pretty_print, serialize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
MODELS = ("laser", "three_level", "optomech")


def _parse_model_file(name: str):
    with open(os.path.join(ROOT, "models", f"{name}.cqm"), encoding="utf-8") as fh:
        return parse_model(fh.read())


def _model_file_archive(name: str) -> str:
    parsed = _parse_model_file(name)
    opts = parsed.options
    filt = None if opts.filter_name == "none" else filter_by_name(opts.filter_name)
    eqs = meanfield_derive(opts.track, parsed.model, opts.order, filt)
    return serialize(complete(eqs))


def _tavis_closed(tavis):
    """Tavis at order 2 with the phase filter, seeded with every
    excited-state population."""
    seeds = [tavis.s(2, 2, k) for k in range(tavis.n_atoms)]
    return complete(meanfield_derive(seeds, tavis.model, 2, FILTER_PHASE))


def _tavis_archive(n_atoms: int) -> str:
    from conftest import make_tavis

    return serialize(_tavis_closed(make_tavis(n_atoms)))


def _laser_closed(order: int):
    parsed = _parse_model_file("laser")
    return complete(meanfield_derive(parsed.options.track, parsed.model, order,
                                     FILTER_PHASE))


def _correlation_text(A, B, closed, steady=True) -> str:
    """A rendered <A(t+tau) B(t)> delay system: equations, then constants."""
    cs = build_correlation_system(A, B, closed, steady=steady)
    lines = [eq.render() for eq in cs.equations]
    lines += [render_average(sym) for sym in cs.constants]
    return "\n".join(lines)


def _laser_correlation_text(order: int, steady=True) -> str:
    """The laser's <a'(t+tau) a(t)> delay system."""
    a_expr, b_expr = _parse_model_file("laser").options.correlation
    return _correlation_text(a_expr, b_expr, _laser_closed(order), steady)


def _optomech_correlation_text(steady: bool) -> str:
    """models/optomech.cqm's <b'(t+tau) b(t)> delay system."""
    parsed = _parse_model_file("optomech")
    b = dict(parsed.model.operators)["b"]
    closed = complete(meanfield_derive(parsed.options.track, parsed.model,
                                       parsed.options.order))
    return _correlation_text(b.dag(), b, closed, steady)


def _tavis_correlation_text(steady: bool) -> str:
    """Tavis N=5's <a'(t+tau) a(t)> delay system (order 2, phase filter)."""
    from conftest import make_tavis

    tavis = make_tavis(5)
    return _correlation_text(tavis.ad, tavis.a, _tavis_closed(tavis), steady)


def _tavis5_latex() -> str:
    from conftest import make_tavis

    return _tavis_closed(make_tavis(5)).latex()


CASES = {**{m: (lambda m=m: _model_file_archive(m)) for m in MODELS},
         "tavis5": lambda: _tavis_archive(5)}

# sha256 of ``serialize(complete(...))`` of Tavis N atoms at order 2 with
# the phase filter, seeded with every excited-state population.
TAVIS_DIGESTS = {
    20: "b6f0869d91b39e6fb7d44bf65d417de1ee1af50ade52150f22c4a54361f156d5",
    50: "2b3892693c03e04b896d525dc60164af08f01b444895debecc7798c826026ed6",
}


# sha256 of the laser (models/laser.cqm, phase filter) completed at each
# order, and of its rendered order-8 correlation system.
LASER_DIGESTS = {
    6: "aa795788247e60f8c6c6f9fa87da66bca13e6e6f1bb4caa8b6f5e747ddd7d94e",
    8: "d36b728e4229793f5031a6092ad540edc1c1c607f37e68782ec3078b20d51a27",
}
LASER_CORRELATION_DIGEST = (
    "ea26ac56e4f059c7b0d410e8a7ee27a1cb2a18eca0f77a528a25948535e9e061")

# sha256 of further rendered delay systems, steady and co-evolved.
CORRELATION_DIGESTS = {
    "laser4-coevolved": (
        lambda: _laser_correlation_text(4, steady=False),
        "fb848be8d176987587a85a84d3e169485317613e6a9b0c51d81660c8db31848d"),
    "optomech-steady": (
        lambda: _optomech_correlation_text(True),
        "e1b70e71e053245e9b4754ef50834d754a10325abed7af87e0b50f1cd575d8de"),
    "optomech-coevolved": (
        lambda: _optomech_correlation_text(False),
        "b745d39f37f71336ef2af26a37164aef26a4714e473f97f7219ddbf3d925c24c"),
    "tavis5-steady": (
        lambda: _tavis_correlation_text(True),
        "a8929b0214c765dda74192a38a356e693473fd8e33cd87a6f2a2cba8d5586382"),
    "tavis5-coevolved": (
        lambda: _tavis_correlation_text(False),
        "a4f4a69a6cb86ede6f54e26629ca74b7a329ee65ba3a310be7beb36d58ba1e0d"),
}


# sha256 of printed forms: the LaTeX of the laser completed at order 4 and
# of Tavis N=5, and the model-file printout of each models/*.cqm.
PRINTED_DIGESTS = {
    "laser4-latex": (
        lambda: _laser_closed(4).latex(),
        "89c3ac1848cde6eda4fc08db0a217f4acaf53f775ebe6f424e0e512e07e7ec56"),
    "tavis5-latex": (
        _tavis5_latex,
        "fae1e46755ca120c51ba7c8c227b04c8d7cfd0622e6c1d43a459cba56bced2e4"),
    "laser-pretty": (
        lambda: pretty_print(_parse_model_file("laser")),
        "7efbbc584642838ba640c622488db9f53e82300847854307465020381db45754"),
    "optomech-pretty": (
        lambda: pretty_print(_parse_model_file("optomech")),
        "9f5a129920120cc4354910814bfcbfb32bdb26a107f6d61725fcc010b6278aab"),
    "three_level-pretty": (
        lambda: pretty_print(_parse_model_file("three_level")),
        "1668ed006b124cd264ad564680f8e596fa2a6b2fcfb0eb1661c7224c77e8aa64"),
}


def archive_digest(archive: str) -> str:
    return hashlib.sha256(archive.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.eqs.json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert CASES[name]() == expected


def test_tavis20_archive_matches_digest():
    assert archive_digest(_tavis_archive(20)) == TAVIS_DIGESTS[20]


@pytest.mark.parametrize("order", sorted(LASER_DIGESTS))
def test_laser_archive_matches_digest(order):
    assert archive_digest(serialize(_laser_closed(order))) == \
        LASER_DIGESTS[order]


def test_laser_correlation_system_matches_digest():
    assert archive_digest(_laser_correlation_text(8)) == \
        LASER_CORRELATION_DIGEST


@pytest.mark.parametrize("name", sorted(CORRELATION_DIGESTS))
def test_correlation_system_matches_digest(name):
    text, digest = CORRELATION_DIGESTS[name]
    assert archive_digest(text()) == digest


@pytest.mark.parametrize("name", sorted(PRINTED_DIGESTS))
def test_printed_form_matches_digest(name):
    text, digest = PRINTED_DIGESTS[name]
    assert archive_digest(text()) == digest


def test_derivation_holds_no_shared_state_across_threads():
    """Four threads complete two models at once, with very short time
    slices so that they interleave inside the expansion; each archive must
    equal the serial one."""
    jobs = [lambda: serialize(_laser_closed(6)),
            lambda: _model_file_archive("three_level")] * 2
    serial = [job() for job in jobs]
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(k):
        start.wait(timeout=60)
        results[k] = jobs[k]()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(GOLDEN, exist_ok=True)
    for case, derive in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, f"{case}.eqs.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(derive())
