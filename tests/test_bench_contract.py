"""The package surface the benchmark in ``perfbench/`` uses.

The benchmark reads config and report attributes by name, so a rename in
the package makes it crash while every other test passes.  These tests
drive the benchmark's own set-up, gate and gate self-test (imported, not
copied) on a small scale.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import run
    import workloads

    nl, _ = run.import_package()
    run_sweep = nl.cli.run_sweep
    try:
        yield nl, workloads, gate
    finally:
        nl.cli.run_sweep = run_sweep  # the SweepCli constructor replaces it
        for name in ("gate", "run", "tracing", "workloads"):
            sys.modules.pop(name, None)


def test_tracer_misses_only_the_known_stale_targets(bench):
    # a wrapped attribute the package lacks makes its layer metric read 0
    # with no error, so a rename must show up here instead
    nl, _, _ = bench
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(nl, tracer)
        assert tracer.missing == {
            "nonlocal_limit.nonlocal_solver.nonlocal_term",
            "nonlocal_limit.nonlocal_solver.total_variation_of",
            "nonlocal_limit.local_reference.total_variation_of",
            # the harness takes both from weak_and_entropy_residuals' one pass
            "nonlocal_limit.harness.weak_residual",
            "nonlocal_limit.harness.entropy_residual",
        }
    finally:
        tracer.uninstall()


def test_every_workload_sets_up(bench, tmp_path):
    nl, workloads, _ = bench
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload(nl, 1, workdir).setup()


def test_nonlocal_mix_unit_passes_the_gate(bench, tmp_path):
    nl, workloads, gate = bench
    workload = workloads.NonlocalMix(nl, 1, tmp_path)
    workload.setup()
    datum_max = max(workloads.seeded_profile(1)["levels"])
    assert gate.check_unit(nl, workload.unit(tmp_path), datum_max, None) == []


def test_convergence_study_unit_passes_the_gate(bench, tmp_path):
    # the only benchmark path that calls weak_residual in local mode and
    # entropy_residual itself
    nl, workloads, gate = bench
    workload = workloads.ConvergenceStudy(nl, 1, tmp_path)
    workload.setup()
    datum_max = max(workloads.seeded_profile(1)["levels"])
    outcome = workload.unit(tmp_path)
    assert gate.check_unit(nl, outcome, datum_max, None) == []
    assert any(key.startswith("weak_residual[") for key in outcome.values)
    assert any(key.startswith("entropy_residual_min[") for key in outcome.values)


def test_gate_self_test(bench):
    nl, workloads, gate = bench
    assert gate.self_test(nl, workloads.seeded_profile(1)) == []


def test_sweep_cli_units_pass_the_gate(bench, tmp_path):
    # the CLI path: exit code, one sweep.csv row per eta, and the second
    # unit's compared CSVs byte-identical to the first's
    nl, workloads, gate = bench
    workload = workloads.SweepCli(nl, 1, tmp_path)
    workload.setup()
    datum_max = max(workloads.seeded_profile(1)["levels"])
    first = workload.unit(tmp_path / "unit_0")
    assert gate.check_unit(nl, first, datum_max, None) == []
    digest = gate.output_digest(first)
    assert "sweep.csv" in digest
    second = workload.unit(tmp_path / "unit_1")
    assert gate.check_unit(nl, second, datum_max, digest) == []
