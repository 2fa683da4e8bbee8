"""Byte-level regression test of the emitted CSV files.

The sha256 digests below were recorded from the package before the solvers
were moved onto the shared stepping driver, and pin every byte that a small
fixed sweep writes: one configuration per kernel path (exponential
downstream, constant downstream, exponential upstream).  Any change to the
solvers, the diagnostics or the CSV writers that alters a single float shows
up here.  The digests depend on the floating-point behaviour of numpy and
scipy (recorded with numpy 2.4, scipy 1.17 on x86-64).

The upstream case pins only the nonlocal solve the sweep runs at each eta,
through the snapshot and TV files the harness writers make of it; the
upstream sweep as a whole is checked against the downstream one by mirror
symmetry in ``tests/test_harness.py``.
"""

import hashlib
import json

import pytest

import nonlocal_limit.cli as cli
from nonlocal_limit import harness

BASE_DOC = {"grid": {"n_cells": 64}, "eta_list": [0.5, 0.3], "t_end": 4.0,
            "reference_refinement": 4}

CASES = {
    "exp_down": {},
    "const_down": {"kernel": {"family": "constant"}},
    "exp_up": {"kernel": {"orientation": "upstream"},
               "velocity": {"name": "linear_increasing"}},
}

REFERENCE_DIGESTS = {
    "reference/snapshots.csv": "ace111ea9e908bc081c3539ba14b64eed9c4e5a94093da71d14fddd8e79213c4",
    "reference/tv_series.csv": "c679493953d4188675f0c41564d1abc81c2394b2a89623b7546176728196b6ef",
}

GOLDEN = {
    "exp_down": {
        **REFERENCE_DIGESTS,
        "eta_0.3/diagnostics.csv": "16b5b82506cd60b6391f42879d9723d9d0eb00dcf2a1f134d444b0e24209ec1e",
        "eta_0.3/snapshots.csv": "72e7c98cb6ed84af1f41e7a746f802b1c7ade1d3e149389e894c1edd4ee997cd",
        "eta_0.3/tv_series.csv": "a23670f78a44844d2b8bb786ac960fa1aa26f4c275cfca26044d61c24aa89bc1",
        "eta_0.5/diagnostics.csv": "78fe2a3b718ab9bff165835e9f0b4cff92a0fcbaff3753542f050e5945d40b01",
        "eta_0.5/snapshots.csv": "ee79f2af92be98bb15937dfdb0706a3fbfb68f7862699fe91413d5b710c3ce35",
        "eta_0.5/tv_series.csv": "6ec5c6a218e5acf02d2869dbde976b29d349aec4f83db40a591b3a6dcf23b507",
        "sweep.csv": "2548066915c98b3699ea3de13204b2c5ff76bef9e4f771a7ba8901d5e1888e0a",
    },
    "const_down": {
        **REFERENCE_DIGESTS,
        "eta_0.3/diagnostics.csv": "d054b7a9ae825f475c062fdf930c59180e89dad4c6a8222ac168a5c2dbd304b7",
        "eta_0.3/snapshots.csv": "c4236fed4a88ffbabddbce162e63bf265c61e71f97253aba2435b517e8a8fb01",
        "eta_0.3/tv_series.csv": "09577e1c2d743d19f1ab74c88d8d613e9d5baa6a1a6b4473df2e97cc9a86d93c",
        "eta_0.5/diagnostics.csv": "73657a0acc916e51353ce4ef4f7d6f1b2f76693b518e20b3f243ab34d66e7333",
        "eta_0.5/snapshots.csv": "7a73f3dbc7251e83d921b616b361092d42bd77bc6dcc450e4e64f04d1ef64117",
        "eta_0.5/tv_series.csv": "ac24ff2ee357891bb819140e131a19cefc16c8ba43cdb554e833537f67b9fd57",
        "sweep.csv": "17252de1a2fb3e9a94a588053ba4b8a191ee472af70c14d53132d502ef188298",
    },
    "exp_up": {
        "eta_0.3/snapshots.csv": "0117e0d90e3b0d404625fa096369a0bf8ec4c0d36c419738c10c8080006f6eb9",
        "eta_0.3/tv_series.csv": "eaab317eb6d851305d3c8e3009925e35b08aa6afdf6377456a67b6025dc62ed6",
        "eta_0.5/snapshots.csv": "1aa12f969f1a7cef5fc2e7a283d83c4115d49dec1990bb1084924684b64b4215",
        "eta_0.5/tv_series.csv": "ef915080b90aea6179aca0c094a023043c34f5ec0e1cf50a1b388f87002fcb06",
    },
}


def _write_case(name, tmp_path):
    doc = {**BASE_DOC, **CASES[name]}
    out = tmp_path / "out"
    if name == "exp_up":
        cfg = harness.config_from_dict(doc)
        for eta in cfg.eta_list:
            scheme = harness._scheme_for_eta(cfg, eta)
            report, _ = harness._solve_for_eta(cfg, scheme, harness.sweep_cells_for_eta(cfg, eta))
            run_dir = out / harness.eta_dirname(eta)
            harness._write_snapshots_csv(run_dir / "snapshots.csv", report)
            harness._write_tv_series_csv(run_dir / "tv_series.csv", report)
        return out
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_recorded_digests(name, tmp_path):
    out = _write_case(name, tmp_path)
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }
    assert digests == GOLDEN[name]
