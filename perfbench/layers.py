"""Each layer's share of traced time, from a span dump of a traced run.

    python3 perfbench/layers.py perfbench/out/spans-<workload>-seed<n>-trace1.npz

A span's self time is its duration minus the durations of its child spans;
a layer's time is the self time of every span whose name starts with the
layer's module.  Shares are of the time inside top-level spans, so time
the benchmark itself spends outside the library is not counted.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np


def layer_times(path) -> tuple[dict[str, float], float]:
    data = np.load(path)
    names = data["names"]
    name, parent = data["name"], data["parent"]
    dur = data["end"] - data["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    per_layer: dict[str, float] = defaultdict(float)
    for i, t in zip(name, self_time):
        per_layer[str(names[i]).split(".")[0]] += float(t)
    return dict(per_layer), float(dur[~has_parent].sum())


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    per_layer, total = layer_times(argv[0])
    print(f"time inside top-level spans: {total:.3f} s")
    for layer, t in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {t:9.3f} s  {100 * t / total:5.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
