"""File-based workflow: panel CSV in, cluster membership and a
sector-by-cluster share matrix out.

Builds a labeled synthetic panel shaped like a stock-returns panel (series
tagged by sector), writes it to CSV, reloads it through the public loader,
clusters it, and prints how each sector distributes over the clusters.
The same flow is available from the shell:

    factorclust cluster panel.csv --labels labels.csv --out results/
"""

import csv
import tempfile
from pathlib import Path

from factorclust import (
    ScenarioSpec,
    cluster_pipeline,
    generate_scenario,
    label_distribution,
    load_labels,
    load_panel,
)

spec = ScenarioSpec(n=400, d=4, p1=20, p_extra=8, r0=1, r_per_cluster=2, seed=4)
panel, truth = generate_scenario(spec)
sectors = ["unaffiliated", "energy", "finance", "health", "tech"]

ids = [f"s{i:03d}" for i in range(panel.p)]
with tempfile.TemporaryDirectory() as workdir:
    panel_path = Path(workdir) / "panel.csv"
    labels_path = Path(workdir) / "labels.csv"
    with open(panel_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ids)
        for t in range(panel.n):
            writer.writerow([f"{v:.12g}" for v in panel.values[:, t]])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "label"])
        for i, sid in enumerate(ids):
            writer.writerow([sid, sectors[truth.membership[i]]])
    print(f"wrote {panel_path} and {labels_path}")
    loaded = load_panel(panel_path, labels=load_labels(labels_path))

result = cluster_pipeline(loaded, k0=5, seed=0)
print(f"clustered into d = {result.d_used} groups "
      f"(upper bound {result.d_hat}); "
      f"{len(result.no_cluster_indices)} series left unclustered")

categories, shares = label_distribution(
    result.assignments,
    [loaded.labels[i] for i in result.retained_indices],
    result.d_used,
)
header = " ".join(f"c{j + 1:>6}" for j in range(result.d_used))
print(f"\n{'sector':>14} {header}   (each row sums to 1)")
for cat, row in zip(categories, shares):
    cells = " ".join(f"{v:>7.2f}" for v in row)
    print(f"{cat:>14} {cells}")
