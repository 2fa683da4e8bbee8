#!/usr/bin/env python3
"""Render heatmaps, profiles and total-variation curves from the run CSVs.

``nonlocal-limit plot`` writes this module's source, followed by one call of
``main`` with the CSV files it found, into the output directory; regeneration
is deterministic.  The script needs matplotlib, imported by ``main`` only, so
this module imports with the standard library alone.
"""
import csv
import pathlib


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_snapshots(path):
    """{time: {"x": [...], "q": [...], "W": [...]}} in time order."""
    data = {}
    for row in read_csv(path):
        columns = data.setdefault(float(row["time"]), {"x": [], "q": [], "W": []})
        columns["x"].append(float(row["x_center"]))
        columns["q"].append(float(row["q"]))
        columns["W"].append(float(row["W"]))
    return dict(sorted(data.items()))


def nearest_time(data, target):
    return min(data, key=lambda t: abs(t - target))


def save(plt, fig, path):
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)


def plot_heatmap(plt, here, label, rel):
    data = read_snapshots(here / rel)
    times = list(data)
    if not times:  # no snapshot_times configured: a header-only file
        return data
    x = data[times[0]]["x"]
    grid = [data[t]["q"] for t in times]
    fig, ax = plt.subplots(figsize=(6, 4))
    mesh = ax.pcolormesh(x, times, grid, shading="nearest", vmin=0.0, cmap="viridis")
    fig.colorbar(mesh, ax=ax, label="q")
    ax.set_xlabel("x")
    ax.set_ylabel("t")
    ax.set_title(f"density, {label}")
    save(plt, fig, here / f"heatmap_{label}.png")
    return data


def main(runs, reference_tv, reference_snapshots, sweep, probe, profile_time):
    """Draw the figures next to this script.  ``runs`` lists (label,
    snapshots, tv series, diagnostics) paths per eta; the other paths are
    None when the file is absent.  Paths are relative to the script."""
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    here = pathlib.Path(__file__).resolve().parent
    profile_fig, profile_ax = plt.subplots(figsize=(7, 4))
    tv_fig, tv_ax = plt.subplots(figsize=(7, 4))
    for label, snapshots_rel, tv_rel, diagnostics_rel in runs:
        data = plot_heatmap(plt, here, label, snapshots_rel)
        if data:
            t_show = nearest_time(data, profile_time)
            profile_ax.plot(data[t_show]["x"], data[t_show]["q"], label=f"q, {label}")
            profile_ax.plot(data[t_show]["x"], data[t_show]["W"], "--", label=f"W, {label}")
        tv_rows = read_csv(here / tv_rel)
        times = [float(r["time"]) for r in tv_rows]
        tv_ax.plot(times, [float(r["tv_q"]) for r in tv_rows], label=f"TV(q), {label}")
        tv_ax.plot(times, [float(r["tv_W"]) for r in tv_rows], ":", label=f"TV(W), {label}")
        print(f"--- diagnostics, {label} ---")
        for row in read_csv(here / diagnostics_rel):
            print(f"{row['name']}: {row['value']}")
    if reference_tv is not None:
        ref_rows = read_csv(here / reference_tv)
        tv_ax.plot([float(r["time"]) for r in ref_rows],
                   [float(r["tv_q"]) for r in ref_rows],
                   "k-.", label="TV(q), local reference")
    ref_data = read_snapshots(here / reference_snapshots) if reference_snapshots else {}
    if ref_data:
        t_show = nearest_time(ref_data, profile_time)
        profile_ax.plot(ref_data[t_show]["x"], ref_data[t_show]["q"],
                        "k-.", label="q, local reference")
    profile_ax.set_xlabel("x")
    profile_ax.set_ylabel("value")
    profile_ax.set_title(f"profiles near t = {profile_time}")
    profile_ax.legend(fontsize=7)
    save(plt, profile_fig, here / "profiles.png")
    tv_ax.set_xlabel("t")
    tv_ax.set_ylabel("total variation")
    tv_ax.set_title("total variation vs time")
    tv_ax.legend(fontsize=7)
    save(plt, tv_fig, here / "tv_curves.png")
    if sweep is not None:
        rows = read_csv(here / sweep)
        fig, ax = plt.subplots(figsize=(5, 4))
        etas = [float(r["eta"]) for r in rows]
        ax.loglog(etas, [float(r["sup_time_l1_q_vs_ref"]) for r in rows], "o-",
                  label="q vs reference")
        ax.loglog(etas, [float(r["sup_time_l1_W_vs_ref"]) for r in rows], "s--",
                  label="W vs reference")
        ax.set_xlabel("eta")
        ax.set_ylabel("sup-in-time L1 error")
        ax.legend()
        save(plt, fig, here / "sweep_errors.png")
    if probe is not None:
        rows = read_csv(here / probe)
        fig, ax = plt.subplots(figsize=(5, 4))
        ax.loglog([float(r["delta"]) for r in rows],
                  [float(r["sup_time_l1"]) for r in rows], "o-")
        ax.set_xlabel("delta")
        ax.set_ylabel("sup-in-time L1 distance")
        save(plt, fig, here / "stability_probe.png")
