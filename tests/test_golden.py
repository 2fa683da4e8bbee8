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

The CLI cases below were recorded before the float text moved from
Python's '%' operator to ``floatfmt.format_g17``, so they pin that the new
formatter writes the old bytes: a sweep of the benchmark's sweep_cli config
(512- and 1024-cell nonlocal grids, a 1024-cell reference whose W column is
``nan``), a default-datum ``run`` whose snapshots are 17% exact zeros and
24% nonzero values below 1e-10, and a ``stability`` probe.  They pin the
step library's ``nl_rows``, which later replaced ``format_g17``, the same way.
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


# perfbench/workloads.py SWEEP_DOC with seeded_profile(47)
SWEEP_CLI_DOC = {
    "grid": {"n_cells": 256}, "eta_list": [0.1, 0.05, 0.03], "reference_refinement": 4,
    "profile": {
        "breakpoints": [-0.34631622954502883, -0.1042900389881869, 0.9483596398559733],
        "levels": [0.560811387635242, 0.2570422568467829, 0.5209426377904226,
                   0.37317390216886165],
    },
}
DEFAULT_DATUM_DOC = {"grid": {"n_cells": 1024}, "eta_list": [0.01]}

CLI_CASES = {
    "sweep_cli": (SWEEP_CLI_DOC, ["sweep"], {
        "eta_0.03/diagnostics.csv": "685d2de986e0a41c4e551d80c17471df64dab0d4fd4cbf86f1c63528eeefc944",
        "eta_0.03/snapshots.csv": "aa04af8b454910185e73505be7f9cc0c161699d5e324d38d576d834ac3321e88",
        "eta_0.03/tv_series.csv": "584e875f4f76b6b86a64c91e11b52545b01688c8ab7b3c9a01d1e76a30b3bb0a",
        "eta_0.05/diagnostics.csv": "4f8763c821ae13d014c4533ec853aa76f2c637dca1b967ed67816bf6833d2345",
        "eta_0.05/snapshots.csv": "77be433dcead5b3d3b5af9a5b30a75a183b95d270dba862f7f816a2980fedac3",
        "eta_0.05/tv_series.csv": "5e8cca05a531ef63fd21bf823185e404d213c320c6984e6a1c1cc3c8c93a7e4f",
        "eta_0.1/diagnostics.csv": "5b170a5e3ea698713d62ec11947a952bad689917c7b5ee1ea095c159ba8e9185",
        "eta_0.1/snapshots.csv": "bb044afa7055b90e492524a5e256d9ca71f2faf8362b86cb9f3ceb58ddc80c24",
        "eta_0.1/tv_series.csv": "abd4bea127d86b3209f723b851e446b23a05fdd1b93e85aa89162f9947025898",
        "reference/snapshots.csv": "4bb46294308ffb5bc6c7f025904f8762105c25bcf00fa66e9d89a2e58c479554",
        "reference/tv_series.csv": "c8fe6e827102ebbc75b3bb98a77da543f1bf0b0342445f997ea9460d90c8bdf6",
        "sweep.csv": "9e04e576a03778048a514048e68ad40cef0cea781d2e8c1eef2cb327d21ca4b9",
    }),
    "run_default_datum": (DEFAULT_DATUM_DOC, ["run", "--eta", "0.01"], {
        "eta_0.01/diagnostics.csv": "05273c5b502122ff1e9f65dc83ebdd94a35ac3fac3cbd0a9406bacc4ae0776d0",
        "eta_0.01/snapshots.csv": "db8d53e7aca6960dfe6ebae68311b6e39d5f42ce9bddd2380dd6839295aa51f2",
        "eta_0.01/tv_series.csv": "cd58d723d76294f1d355c55b01fec8859f7ed6afb1e252fbebb9402560d31534",
    }),
    "stability_probe": (DEFAULT_DATUM_DOC, ["stability", "--delta", "0.01"], {
        "probe.csv": "0f3dc41d641a60132a4f7a8baa7665b4356b28c752848a4f14ca52ac5a4230e5",
    }),
}


def _digests(out):
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_recorded_digests(name, tmp_path):
    assert _digests(_write_case(name, tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_bytes_match_recorded_digests(name, tmp_path):
    doc, command, expected = CLI_CASES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(command + ["--config", str(config), "--out", str(out)]) == 0
    assert _digests(out) == expected
