"""Set-up probe: import everything the workloads use and push one small
instance through every library layer once.

``run.py`` times ``python3 perfbench/probe.py`` from spawn to exit, several
times per run, for ``setup_s``; it also calls ``warm_up()`` in its own
process before the first timed instance.  Run it with ``src`` on
``PYTHONPATH``.
"""

import aabscreen.cli  # noqa: F401  (applies AAB_THREADS before numpy loads)
import aabscreen.fileio  # noqa: F401
import numpy as np  # noqa: F401
import scipy.linalg  # noqa: F401

from aabscreen.aabstats import AABConfig, ir_aab, naive_aab
from aabscreen.evaluation import label_edges, location_errors, roc_auc
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component
from aabscreen.solvers import align_similarity, solve_irls_lud, solve_ls_spectral
from aabscreen.synthetic import UCParams, generate_uc


def warm_up() -> None:
    g, gt = generate_uc(UCParams(n=40, p=0.5, q=0.2, sigma=0.05, seed=1))
    cfg = AABConfig(s=50, T=10, seed=1)
    naive_aab(g, cfg)
    stats = ir_aab(g, cfg)
    policy = ScreeningPolicy()
    pruned = solvable_component(filter_edges(g, stats, policy), policy.min_degree)
    solve_ls_spectral(pruned)
    est = solve_irls_lud(pruned)
    roc_auc(stats, label_edges(g, gt, 0.05))
    _, _, aligned = align_similarity(est, gt.locations)
    location_errors(aligned, gt.locations)


if __name__ == "__main__":
    warm_up()
