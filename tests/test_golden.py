"""Byte-level regression test of the emitted CSV files.

The sha256 digests below were recorded from the package before the solvers
were moved onto the shared stepping driver, and pin every byte that a small
fixed sweep writes: one configuration per kernel path (exponential
downstream, constant downstream, exponential upstream).  Any change to the
solvers, the diagnostics or the CSV writers that alters a single float shows
up here.  The digests depend on the floating-point behaviour of numpy and
scipy (recorded with numpy 2.4, scipy 1.17 on x86-64).

The upstream case first pinned only its per-eta snapshot and TV files.
Its five other digests (reference, diagnostics, sweep.csv) were added
later, recorded from ``sweep`` at a commit whose upstream output matched
the four digests already pinned.

The ``snapshots.csv`` digests were derived when the file was cut down to
the configured snapshot times, from the files the package wrote before that
change (which also held the residual band): for each run, take the times of
the snapshots that answer a configured ``snapshot_times`` request (snapshot
i of the report answers request i of ``merged_snapshot_times``), keep the
header and the rows whose time column is one of those times, and hash that.
Apart from those five later upstream digests, no digest was taken from
the new writer's output; every other digest is unchanged.
"""

import hashlib
import json

import pytest

import nonlocal_limit.cli as cli

BASE_DOC = {"grid": {"n_cells": 64}, "eta_list": [0.5, 0.3], "t_end": 4.0,
            "reference_refinement": 4}

CASES = {
    "exp_down": {},
    "const_down": {"kernel": {"family": "constant"}},
    "exp_up": {"kernel": {"orientation": "upstream"},
               "velocity": {"name": "linear_increasing"}},
}

REFERENCE_DIGESTS = {
    "reference/snapshots.csv": "ed12adff86f088117fc3e7a13d3266e79cee52fa818e33137c51331ec1f3ac39",
    "reference/tv_series.csv": "c679493953d4188675f0c41564d1abc81c2394b2a89623b7546176728196b6ef",
}

GOLDEN = {
    "exp_down": {
        **REFERENCE_DIGESTS,
        "eta_0.3/diagnostics.csv": "16b5b82506cd60b6391f42879d9723d9d0eb00dcf2a1f134d444b0e24209ec1e",
        "eta_0.3/snapshots.csv": "3b15f24c2dfe8ea42a3e860a57c60b38f14f91f076acbffe006dedbf5a2e1707",
        "eta_0.3/tv_series.csv": "a23670f78a44844d2b8bb786ac960fa1aa26f4c275cfca26044d61c24aa89bc1",
        "eta_0.5/diagnostics.csv": "78fe2a3b718ab9bff165835e9f0b4cff92a0fcbaff3753542f050e5945d40b01",
        "eta_0.5/snapshots.csv": "4ea46fd6a0ce567bbfcaf22eb6c7e6911c03eb744a17b8db29b8ca251729b76f",
        "eta_0.5/tv_series.csv": "6ec5c6a218e5acf02d2869dbde976b29d349aec4f83db40a591b3a6dcf23b507",
        "sweep.csv": "2548066915c98b3699ea3de13204b2c5ff76bef9e4f771a7ba8901d5e1888e0a",
    },
    "const_down": {
        **REFERENCE_DIGESTS,
        "eta_0.3/diagnostics.csv": "d054b7a9ae825f475c062fdf930c59180e89dad4c6a8222ac168a5c2dbd304b7",
        "eta_0.3/snapshots.csv": "16206cfb44ed41dac612ce9361ad30f5c3cb2fa5589cb25518a1a35d27412ded",
        "eta_0.3/tv_series.csv": "09577e1c2d743d19f1ab74c88d8d613e9d5baa6a1a6b4473df2e97cc9a86d93c",
        "eta_0.5/diagnostics.csv": "73657a0acc916e51353ce4ef4f7d6f1b2f76693b518e20b3f243ab34d66e7333",
        "eta_0.5/snapshots.csv": "470fc176b704f7bb6471f50243ac6ff66b57600dfa1668939af03a1aadbe6def",
        "eta_0.5/tv_series.csv": "ac24ff2ee357891bb819140e131a19cefc16c8ba43cdb554e833537f67b9fd57",
        "sweep.csv": "17252de1a2fb3e9a94a588053ba4b8a191ee472af70c14d53132d502ef188298",
    },
    "exp_up": {
        "eta_0.3/diagnostics.csv": "daf5e4eedfa6116cee24046c900f824d2a8620628da46da0131b5370bd65438b",
        "eta_0.3/snapshots.csv": "214ceb50b3abd1e5655bba662ef7944b5adc4ba682094e41730c19f2e07da9b8",
        "eta_0.3/tv_series.csv": "eaab317eb6d851305d3c8e3009925e35b08aa6afdf6377456a67b6025dc62ed6",
        "eta_0.5/diagnostics.csv": "86e01d168711f14e1005e45bbcd418323d9ebeaf72311e66ee014208d287819c",
        "eta_0.5/snapshots.csv": "9e36300b8c7d0435e024ff70bd10b288783ddff38323a32db3ac2a739ada6c7a",
        "eta_0.5/tv_series.csv": "ef915080b90aea6179aca0c094a023043c34f5ec0e1cf50a1b388f87002fcb06",
        "reference/snapshots.csv": "21984a78f20c9a61b23d6d22273234f3f1be5a5c535608e7a0bb023710e8dfe6",
        "reference/tv_series.csv": "b11bde6f800edf0a71076a6bf8d8ad841a17a38b60ba7dd975f88d240b08e97c",
        "sweep.csv": "341c2014598097be3a852d76899b05856b21faa016f8a64103700726fad195bd",
    },
}


def _write_case(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_DOC, **CASES[name]}), encoding="utf-8")
    out = tmp_path / "out"
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
