"""The `--json` reports, byte for byte, against the files in tests/golden/.

The files pin `check --suite all` on the ten shipped algebras, `check-tilted`
on h5 with tilting_h5, and the three shipped `check-module` pairs.  d4 is the
small fixture that runs part (v) of the no-inj-to-proj suite, so the dual
(left-hand) construction is covered; kron, tilted4, tilted5, h5 and the
tilted check carry the reports that the minimal approximations write.
a4_rad2 is the one that Fails the main check, with the two routes agreeing.

A change that means to alter a report regenerates the files, from the
repository root:

    for f in a2 a3 loop2 d4 sq kron tilted4 tilted5 h5 a4_rad2; do
        PYTHONPATH=src python -m repherd.cli check fixtures/$f.json --suite all \\
            --json tests/golden/check_${f}_suite_all.json
    done
    for pair in kron:kron_regular kron:kron_preproj tilted5:tilted5_tauinv4p1; do
        a=${pair%%:*}; m=${pair##*:}
        PYTHONPATH=src python -m repherd.cli check-module fixtures/$a.json fixtures/$m.json \\
            --json tests/golden/check_module_${a}_${m}.json
    done
    PYTHONPATH=src python -m repherd.cli check-tilted fixtures/h5.json fixtures/tilting_h5.json \\
        --json tests/golden/check_tilted_h5_tilting_h5.json
"""
import os

import pytest

from repherd.cli import main

from tests.conftest import ROOT, fixture_path

GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = [
    ("check_%s_suite_all.json" % name, ["check", fixture_path(name + ".json"), "--suite", "all"], code)
    for name, code in (
        ("a2", 2), ("a3", 0), ("loop2", 0), ("d4", 0), ("sq", 0),
        ("kron", 3), ("tilted4", 0), ("tilted5", 0), ("h5", 0), ("a4_rad2", 1),
    )
] + [
    (
        "check_module_%s_%s.json" % (alg, mod),
        ["check-module", fixture_path(alg + ".json"), fixture_path(mod + ".json")],
        code,
    )
    for alg, mod, code in (("kron", "kron_regular", 0), ("kron", "kron_preproj", 0), ("tilted5", "tilted5_tauinv4p1", 2))
] + [
    (
        "check_tilted_h5_tilting_h5.json",
        ["check-tilted", fixture_path("h5.json"), fixture_path("tilting_h5.json")],
        1,
    )
]


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0][: -len(".json")] for c in CASES])
def test_report_matches_golden(golden, argv, code, tmp_path, capsys):
    out = tmp_path / golden
    assert main(argv + ["--json", str(out)]) == code
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()
