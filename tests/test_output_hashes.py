"""The outputs of the fast shipped configs are byte-identical to the checked-in
hashes (tests/data/output_hashes.txt, written by scripts/output_hashes.py)."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "output_hashes", os.path.join(ROOT, "scripts", "output_hashes.py"))
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_fast_config_outputs_match_the_checked_in_hashes(tmp_path, monkeypatch):
    head, expected = output_hashes.read(output_hashes.HASHES)
    here = output_hashes.fingerprint()
    if head != here:
        pytest.skip("the hashes were written on another platform: "
                    + "; ".join(sorted(set(head) ^ set(here))))
    monkeypatch.setenv("MAXSURF_OUT", str(tmp_path))
    output_hashes.write_outputs(output_hashes.FAST_CONFIGS)
    actual = output_hashes.hashes(str(tmp_path))
    # every fast config writes its files, the convergence study its table
    assert {p.split(os.sep)[1] for p in actual} == {
        "ac3_stationary_disk", "ac4_disk_relaxation", "ac6_probe_cylinder",
        "ac6_probe_translator", "ac8_pseudosphere", "trumpet_condition", "ac1_converge"}
    assert output_hashes.compare(expected, actual, every=False) == []
