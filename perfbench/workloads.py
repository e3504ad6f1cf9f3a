"""The benchmark's workloads: one fixed pipeline size per named workload.

Each workload runs prior -> dataio round trip -> train -> checkpoint round
trip -> guided sampling -> evaluation, single-process (``workers=1``).
They differ in which layers dominate:

* ``scm-toy``: a cheap linear-SCM prior and a toy-width model trained for
  many steps, so training and sampling are bound by Python overhead in the
  autodiff tape and the ODE loop.  The prior costs milliseconds, so this is
  the no-change control for work on the GRN simulator.
* ``grn-200``: the SERGIO-style GRN prior at 200 cells and a short training
  run, so the SDE burn-in and the metric suite (Sinkhorn above all) dominate
  and the transformer does little.
* ``scm-paper``: the same transformer layers at ``paper_config`` width, a
  few training steps and a few sampled conditions, so forward and backward
  are bound by BLAS.  A toy-width gain that costs paper width shows here.
  It is not in ``BENCHMARK.json`` (the run budget holds two workloads at a
  steady length); run it by hand when changing the transformer.

The evaluation time of a held-out condition depends strongly on its data
(Sinkhorn iteration counts), and so does the Sinkhorn ratio of the model to
no change.  Four held-out conditions per pipeline steady that ratio, while
the stages of fixed cost (the training of scm-toy, the GRN prior of
grn-200) still make up most of a pipeline's time.  The ratio also varies
with how far the model has trained, so grn-200 trains 120 steps rather than
a few: on one seed it read 2.78 after 60 steps and 1.13 after 120, because
the less-trained model missed every held-out condition.

The EMA decay matches each run length: at the library default (0.999) a
short run samples from near-initial weights, whose zero readout makes the
flow trivial and leaves the ODE layer with nothing to do.
"""

from __future__ import annotations

from dataclasses import dataclass

from pertmap.model import ModelConfig, paper_config, toy_config

# Fixed across workloads: the guidance weight, the SCM edge probability,
# interventional context experiments per bundle, rows per observational /
# context / target batch in a bundle, rows of every batch (and of the
# samples) that the metrics compare, and conditions held out, sampled and
# scored per pipeline.
OMEGA = 2.0
EDGE_PROB = 0.5
K_CONTEXT = 3
TOKENS = 32
EVAL_CELLS = 32
HELD_OUT = 4


@dataclass(frozen=True)
class Workload:
    name: str
    prior: str  # "scm" or "grn"
    genes: int
    contexts: int
    cells: int  # rows per generated batch
    model: ModelConfig
    steps: int
    batch_size: int
    peak_lr: float
    ema_decay: float
    m: int  # cells sampled per held-out condition


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scm-toy",
            prior="scm",
            genes=6,
            contexts=16,
            cells=64,
            model=toy_config(max_genes=6, max_context=4),
            steps=100,
            batch_size=12,
            peak_lr=3e-3,
            ema_decay=0.9,
            m=64,
        ),
        Workload(
            name="grn-200",
            prior="grn",
            genes=10,
            contexts=3,
            cells=200,
            model=toy_config(max_genes=10, max_context=4),
            steps=120,
            batch_size=4,
            peak_lr=3e-3,
            ema_decay=0.9,
            m=32,
        ),
        Workload(
            name="scm-paper",
            prior="scm",
            genes=20,
            contexts=4,
            cells=64,
            model=paper_config(max_genes=20, max_context=4),
            steps=14,
            batch_size=2,
            peak_lr=1e-3,
            ema_decay=0.5,
            m=32,
        ),
    )
}
