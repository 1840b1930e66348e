"""Seeded benchmark inputs.  The program only ever sees what these build.

Every run name, run seed and document is a pure function of the
benchmark seed, so the same ``--seed`` always yields the same corpora.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.scale.workloads import make_workload
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import all_real_workflows
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

#: Varied execution knobs: default parameters would make every run of a
#: specification identical (all distances 0).
PARAMS = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)

#: The scale-harness pipeline family every corpus draws members from: its
#: specification is fixed by this seed, whatever the benchmark seed.
PIPELINE_FAMILY_SEED = 20090329
PIPELINE_POPULATION = 5000

#: Pool size per kept run in :func:`spec_runs`.
POOL_FACTOR = 3


def sub_seed(seed: int, *parts) -> int:
    """A stable 63-bit seed derived from the benchmark seed and a tag."""
    text = "|".join(str(part) for part in (seed,) + parts)
    return int.from_bytes(
        hashlib.sha256(text.encode("utf8")).digest()[:8], "big"
    ) >> 1


def rng(seed: int, *parts) -> random.Random:
    return random.Random(sub_seed(seed, *parts))


def spec_runs(
    spec: WorkflowSpecification, seed: int, prefix: str, count: int
) -> List[WorkflowRun]:
    """``count`` seeded runs named ``<prefix>000``..., size-stratified.

    Run size (and with it DP cost) varies widely between random runs,
    so iid draws would make the corpus' total work -- and every rate
    measured over it -- depend on the seed.  Instead a pool of
    ``POOL_FACTOR * count`` runs is drawn, ordered by size, and every
    ``POOL_FACTOR``-th one kept: the kept runs sit at fixed quantiles of
    the size distribution.  Their names are assigned in seeded order.
    """
    seeds = [
        sub_seed(seed, spec.name, prefix, index)
        for index in range(POOL_FACTOR * count)
    ]
    sized = []
    for run_seed in seeds:
        graph = execute_workflow(spec, PARAMS, seed=run_seed).graph
        sized.append((graph.num_edges, graph.num_nodes, run_seed))
    sized.sort()
    kept = [run_seed for _e, _n, run_seed in sized[POOL_FACTOR // 2::POOL_FACTOR]]
    rng(seed, spec.name, prefix, "names").shuffle(kept)
    return [
        execute_workflow(spec, PARAMS, seed=run_seed, name=f"{prefix}{index:03d}")
        for index, run_seed in enumerate(kept[:count])
    ]


def table_one(
    seed: int, matrix_runs: int, extra_runs: int
) -> Dict[str, Tuple[WorkflowSpecification, List[WorkflowRun], List[WorkflowRun]]]:
    """The six Table-I workflows, each with ``matrix_runs`` runs named
    ``r###`` and ``extra_runs`` runs named ``x###``."""
    return {
        name: (
            spec,
            spec_runs(spec, seed, "r", matrix_runs),
            spec_runs(spec, seed, "x", extra_runs),
        )
        for name, spec in all_real_workflows().items()
    }


def unordered_pairs(names: List[str]) -> List[Tuple[str, str]]:
    return [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
    ]


def pipeline_documents(seed: int, count: int) -> list:
    """``count`` scale-harness pipeline documents of one fixed family.

    The family's specification is fixed (its own seed), and one
    granularity tier keeps run sizes comparable; the benchmark seed
    picks which member runs enter the corpus.
    """
    family = make_workload(
        "pipeline",
        "pipe",
        seed=PIPELINE_FAMILY_SEED,
        runs=PIPELINE_POPULATION,
        tiers=("standard",),
    )
    indices = sorted(
        rng(seed, "pipe-members").sample(range(PIPELINE_POPULATION), count)
    )
    return [family.document(index) for index in indices]
