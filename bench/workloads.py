"""The benchmark's workloads: corpus shape and size, and what one pass runs.

Sizes are the raw doctor rows before cleaning. They were chosen so that one
pass takes two to five seconds on a shared 2-core machine, which lets a
36-second run take the median of several passes.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``cli``: the six commands in subprocesses; ``library``: one worker process
    kind: str
    shape: str
    doctors: int
    similarity_mode: str
    #: (generator method, stress seeds) in the order they run
    stress: tuple[tuple[str, tuple[int, ...]], ...]
    #: the stages one pass times, in order
    stages: tuple[str, ...]
    #: set-ups timed in one ``setup_s`` sample, so that a sample lasts long
    #: enough (about half a second) for scheduler noise to be a small share
    setup_repeats: int
    why: str

    @property
    def builds_in_setup(self) -> bool:
        """The network is built once in set-up and the passes start from it."""
        return "build" not in self.stages


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cli-paper", kind="cli", shape="paper", doctors=1300,
        similarity_mode="intersection_count",
        stress=(("dirichlet", (11, 12)),),
        stages=("build", "trust", "score", "eval", "stress", "report"), setup_repeats=16,
        why="The six CLI commands on a paper-funnel corpus: what users run. Artifact "
            "writes and reloads dominate."),
    Workload(
        name="lib-scale-jaccard", kind="library", shape="paper", doctors=2600,
        similarity_mode="jaccard",
        stress=(),
        stages=("build", "trust", "score"), setup_repeats=8,
        why="Library build, trust and score on a 2x larger corpus with Jaccard: no I/O, "
            "so the pairwise builder and propagation are the whole run."),
    Workload(
        name="stress-dense", kind="library", shape="dense", doctors=2400,
        similarity_mode="intersection_count",
        stress=(("identity", (1,)), ("dirichlet", (1, 2)), ("bootstrap", (1, 2))),
        stages=("trust", "score", "eval", "stress"), setup_repeats=1,
        why="Eval and stress on a dense network built in setup: per-edge stress loops "
            "dominate, and dense blocks are where a sparse format can lose."),
)}

#: the run config every workload shares (the demo config's settings)
CONFIG_SEED = 7
EPSILON = 0.001
MAX_ITERATIONS = 1000
RESIDUAL = 0.2
KS = 3
SCENARIOS = ("uniform", "normal", "skewed")
