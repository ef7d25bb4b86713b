"""Seeded inputs for the three benchmark workloads.

Every input is a model document or a divisor string handed to the CLI; the
program under test never sees the workload seed.  The same seed always gives
the same inputs, byte for byte.

Atlas workloads use a fixed pool of ``random_configuration`` graphs (graph
seeds 0..k-1 at each curve count, none skipped or replaced); the workload
seed draws the curve names of each model and the op order.  Curve order is
kept: the cost of the Weyl atlas depends on it through the Fourier-Motzkin
elimination order (one n=7 graph takes 0.3 s or more than 8 s depending on
the labelling), and drawing labellings or graphs from the seed spread the
median and tail latency between seeds by 0.13 to 0.48 of their value, more
than any usable bound.  README.md has the figures.  For the same reason the
pointwise workload queries a fixed pool of random configurations, and the
seed draws the divisors, the model each one goes to and the op order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# workload -> (edge density, {curve count: pool graphs at that count}).
# The doubled counts put the median op inside a cluster of similar ops
# (n=8 on sparse, n=6 on dense) instead of the gap between two clusters,
# where it moved 0.27 of its value between seeds.  Dense keeps 15 n=7
# graphs so that fewer than ten of its ops fail (8 at n=7, 1 at n=6) and
# its tail stays on an op that completes.
ATLAS = {
    "atlas-sparse": (0.2, {6: 6, 7: 6, 8: 12, 9: 6}),
    "atlas-dense": (0.5, {6: 30, 7: 15}),
}
POINTWISE = "pointwise"
WORKLOADS = tuple(ATLAS) + (POINTWISE,)

# pointwise: decompose queries per pass, random configurations they spread
# over (graph seeds 0..5, n = 6..9, density 0.2), and the plot ops (gallery
# models plus the first of those configurations)
DECOMPOSE_OPS = 500
DECOMPOSE_MODELS = 6
DECOMPOSE_DENSITY = 0.2
PLOT_MODELS = ("quartic", "double-cover", "random")
PLOT_RESOLUTIONS = (200, 400)

# per-op wall deadline in seconds, by subcommand
DEADLINE_S = {"chambers": 3.0, "decompose": 1.0, "plot": 30.0}
# exit codes a correct run of each subcommand may return
EXPECTED_EXIT = {"chambers": {0}, "decompose": {0, 3}, "plot": {0}}


@dataclass
class Op:
    """One CLI invocation.  ``argv`` holds paths relative to the work
    directory; ``meta`` identifies the input when the op fails."""

    kind: str
    label: str
    argv: list[str]
    meta: dict
    model: str
    divisor: object = None
    svg: str | None = None
    samples: int = 0


@dataclass
class Inputs:
    ops: list[Op]
    documents: dict[str, dict] = field(default_factory=dict)  # by file name


def rename(doc: dict, perm: list[int]) -> dict:
    """The same document with curve i named C<perm[i] + 1>."""
    return dict(doc, curves=[{"name": "C%d" % (p + 1)} for p in perm])


def _add_model(inputs: Inputs, name: str, doc: dict) -> str:
    path = name + ".json"
    inputs.documents[path] = doc
    return path


def atlas_inputs(workload: str, seed: int, gallery, model) -> Inputs:
    density, pool = ATLAS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    inputs = Inputs([])
    for n, graphs in pool.items():
        for base in range(graphs):
            doc = model.model_to_document(gallery.random_configuration(base, n, density))
            perm = rng.sample(range(n), n)
            path = _add_model(inputs, "n%d-g%02d" % (n, base), rename(doc, perm))
            meta = {
                "workload": workload,
                "seed": seed,
                "n": n,
                "density": density,
                "graph_seed": base,
                "names": perm,
            }
            inputs.ops.append(
                Op("chambers", "chambers %s" % path, ["chambers", path], meta, path)
            )
    rng.shuffle(inputs.ops)
    return inputs


def _random_divisor(rng: random.Random, doc: dict) -> object:
    if doc["mode"] == "full_lattice":
        return [rng.randint(-3, 9) for _ in doc["gram"]]
    return {"t": rng.randint(1, 3), "a": [rng.randint(-1, 4) for _ in doc["curves"]]}


def pointwise_inputs(seed: int, gallery, model) -> Inputs:
    rng = random.Random("%s:%d" % (POINTWISE, seed))
    inputs = Inputs([])
    quartic = _add_model(
        inputs, "quartic", model.model_to_document(gallery.quartic_example().model)
    )
    double_cover = _add_model(
        inputs, "double-cover", model.model_to_document(gallery.double_cover_example().model)
    )
    targets = [quartic]
    for graph_seed in range(DECOMPOSE_MODELS):
        config = gallery.random_configuration(graph_seed, 6 + graph_seed % 4, DECOMPOSE_DENSITY)
        targets.append(_add_model(inputs, "config-%d" % graph_seed, model.model_to_document(config)))
    plot_random = targets[1]

    decompose = []
    for i in range(DECOMPOSE_OPS):
        # half the queries go to the full-lattice quartic
        path = quartic if i % 2 == 0 else rng.choice(targets[1:])
        divisor = _random_divisor(rng, inputs.documents[path])
        text = json.dumps(divisor, separators=(",", ":"))
        meta = {"workload": POINTWISE, "seed": seed, "model": path, "divisor": text}
        decompose.append(
            Op("decompose", "decompose %s %s" % (path, text),
               ["decompose", path, text], meta, path, divisor=divisor)
        )

    plots = []
    for name, path in zip(PLOT_MODELS, (quartic, double_cover, plot_random)):
        for res in PLOT_RESOLUTIONS:
            svg = "plot-%s-%d.svg" % (name, res)
            meta = {"workload": POINTWISE, "seed": seed, "model": path, "res": res}
            if name == "random":
                meta.update(n=6, density=DECOMPOSE_DENSITY, graph_seed=0)
            plots.append(
                Op("plot", "plot %s --res %d" % (path, res),
                   ["plot", path, "--res", str(res), "-o", svg], meta, path,
                   svg=svg, samples=res * res)
            )
    rng.shuffle(plots)
    # spread the plot ops evenly through the decompose stream
    step = len(decompose) // len(plots)
    for k, op in enumerate(plots):
        decompose.insert(k * (step + 1) + step // 2, op)
    inputs.ops = decompose
    return inputs


def make_inputs(workload: str, seed: int, gallery, model) -> Inputs:
    if workload in ATLAS:
        return atlas_inputs(workload, seed, gallery, model)
    if workload == POINTWISE:
        return pointwise_inputs(seed, gallery, model)
    raise ValueError("unknown workload %r" % workload)
