"""Golden per-epoch signatures of the virtual-clock executor.

Recorded at the commit *before* the executor/worker block-runner refactor
and checked in unchanged: every virtual-clock number the simulated
backend reports (`epoch_time_s`, `bytes_sent`, `utilization`,
`num_tasks`, the barrier list, the traffic-event list) for three epochs
of each strategy, one faulted run (crash + drops + straggler in one
plan) and one traced run (span count per category, exact attribution).
The numbers are functions of block sizes, byte counts and the cost
model only, so a refactor that keeps the executor bit-identical keeps
this file green without edits.

Regenerate (only when a change *means* to move the virtual clock)::

    PYTHONPATH=src python tests/test_epoch_golden.py
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.apps import (
    GBTHyper,
    LDAHyper,
    MFHyper,
    SLRHyper,
    build_gbt,
    build_lda,
    build_sgd_mf,
    build_slr,
)
from repro.data import (
    lda_corpus,
    netflix_like,
    regression_table,
    sparse_classification,
)
from repro.faults import FaultPlan, MessageDrops, Straggler, WorkerCrash
from repro.obs import Observability, attribute_epochs
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

EPOCHS = 3


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _signature(result) -> dict:
    return {
        "epoch_time_s": result.epoch_time_s,
        "bytes_sent": result.bytes_sent,
        "utilization": result.utilization,
        "num_tasks": result.num_tasks,
        "num_barriers": len(result.barriers),
        "barriers": _digest([tuple(b) for b in result.barriers]),
        "num_events": len(result.events),
        "events": _digest([tuple(e) for e in result.events]),
        "aborted": result.fault is not None,
    }


def _cluster() -> ClusterSpec:
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _mf_data():
    return netflix_like(num_rows=40, num_cols=32, num_ratings=900, seed=11)


def _build(case: str, options=None):
    if case in ("mf_unordered", "mf_ordered"):
        return build_sgd_mf(
            _mf_data(), cluster=_cluster(),
            hyper=MFHyper(rank=4, step_size=0.05), seed=7,
            options=(options or LoopOptions()).merged_with(
                ordered=case == "mf_ordered"
            ),
        )
    if case == "slr":
        data = sparse_classification(
            num_samples=150, num_features=80, nnz_per_sample=5, seed=19
        )
        return build_slr(
            data, cluster=_cluster(), hyper=SLRHyper(step_size=0.2), seed=3,
            options=options,
        )
    if case == "lda":
        data = lda_corpus(
            num_docs=40, vocab_size=60, num_topics=4, doc_length=20, seed=17
        )
        return build_lda(
            data, cluster=_cluster(), hyper=LDAHyper(num_topics=4), seed=3,
            options=options,
        )
    if case == "gbt":
        data = regression_table(num_samples=200, num_features=4, seed=23)
        return build_gbt(
            data, cluster=_cluster(), hyper=GBTHyper(), seed=3,
            options=options,
        )
    raise AssertionError(case)


def _run_plain(case: str) -> list:
    """One signature per EpochResult (GBT: several loops per round)."""
    program = _build(case)
    return [
        _signature(result)
        for _ in range(EPOCHS)
        for result in program.epoch_fn()
    ]


def _run_faulted() -> list:
    plan = FaultPlan(
        crashes=(WorkerCrash(worker=1, epoch=2, frac=0.4),),
        drops=MessageDrops(probability=0.2, seed=3),
        stragglers=(Straggler(worker=0, slowdown=3.0, epoch=1),),
    )
    program = _build("mf_unordered", LoopOptions(faults=plan))
    signatures = [
        _signature(result) for result in program.train_loop.run(EPOCHS)
    ]
    signatures.append({"clock": program.ctx.now})
    return signatures


def _run_traced() -> dict:
    obs = Observability.enabled()
    program = _build("mf_unordered", LoopOptions(obs=obs))
    results = program.train_loop.run(EPOCHS)
    attributions = attribute_epochs(obs.tracer, "orion")
    problems = [p for a in attributions for p in a.verify_exact()]
    return {
        "epochs": [_signature(result) for result in results],
        "spans": dict(sorted(Counter(s.cat for s in obs.tracer.spans).items())),
        "attributed_epochs": len(attributions),
        "attribution_problems": problems,
        "makespans": [a.makespan for a in attributions],
    }


CASES = {
    "mf_unordered": lambda: _run_plain("mf_unordered"),
    "mf_ordered": lambda: _run_plain("mf_ordered"),
    "slr": lambda: _run_plain("slr"),
    "lda": lambda: _run_plain("lda"),
    "gbt": lambda: _run_plain("gbt"),
    "faulted": _run_faulted,
    "traced": _run_traced,
}

GOLDEN = json.loads(r"""
{
 "faulted": [
  {"aborted": false, "barriers": "8f93dc0b2382c0d0", "bytes_sent": 4864.0, "epoch_time_s": 0.0024250319999999997, "events": "f55b1e2c9803ca32", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.13979196975545066},
  {"aborted": true, "barriers": "45659fe2868c01e3", "bytes_sent": 3968.0, "epoch_time_s": 0.0065930576000000005, "events": "8b0e6aa685ecd603", "num_barriers": 1, "num_events": 28, "num_tasks": 32, "utilization": 0.034126806354611544},
  {"aborted": false, "barriers": "96a9f7a1c435ac84", "bytes_sent": 4736.0, "epoch_time_s": 0.0023510576, "events": "9038069239c93253", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.14419042732087892},
  {"aborted": false, "barriers": "3c3a2c392150d6dd", "bytes_sent": 5120.0, "epoch_time_s": 0.0052890383999999995, "events": "9ac30f34bbac0d83", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.04254081422437773},
  {"aborted": false, "barriers": "9eca0a8229a2d79c", "bytes_sent": 4992.0, "epoch_time_s": 0.0022740575999999997, "events": "e3c45ba413054b37", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.09894208484428892},
  {"clock": 0.0389322432}
 ],
 "gbt": [
  {"aborted": false, "barriers": "419ee0c5b98d8239", "bytes_sent": 16000.0, "epoch_time_s": 0.0006508192, "events": "cb384f67e77ac51d", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2317079766546531},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "e2c1ced258888f38", "bytes_sent": 23808.0, "epoch_time_s": 0.00065128, "events": "e19ad1c1fadc830c", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2321434713180199},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "c29d08c95e04626e", "bytes_sent": 27840.0, "epoch_time_s": 0.0006514976, "events": "eb2f764af859258e", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.23237537636362743},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "eb1f1e7202273db8", "bytes_sent": 31424.0, "epoch_time_s": 0.0006517024, "events": "bd366f6aad97aaa7", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.23257732363729208},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "419ee0c5b98d8239", "bytes_sent": 16000.0, "epoch_time_s": 0.0006508192, "events": "cb384f67e77ac51d", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2317079766546531},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "e2c1ced258888f38", "bytes_sent": 23808.0, "epoch_time_s": 0.00065128, "events": "e19ad1c1fadc830c", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2321434713180199},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "f9a3d9d88fadd9c6", "bytes_sent": 28864.0, "epoch_time_s": 0.0006515744, "events": "cdba9d2b3bcaa6c5", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.23242656556181462},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "0cef0f7a540c63f3", "bytes_sent": 33600.0, "epoch_time_s": 0.0006518176, "events": "63ceecc8b0fdab59", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.232703136582995},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "419ee0c5b98d8239", "bytes_sent": 16000.0, "epoch_time_s": 0.0006508192, "events": "cb384f67e77ac51d", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2317079766546531},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "e2c1ced258888f38", "bytes_sent": 23808.0, "epoch_time_s": 0.00065128, "events": "e19ad1c1fadc830c", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.2321434713180199},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "8f6d2f6e5f140f9c", "bytes_sent": 30400.0, "epoch_time_s": 0.0006516128, "events": "011247a460fba0bb", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.23253072990585816},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909},
  {"aborted": false, "barriers": "a694e31490f49a5b", "bytes_sent": 32512.0, "epoch_time_s": 0.0006517408, "events": "44d38d9296c49b32", "num_barriers": 1, "num_events": 4, "num_tasks": 4, "utilization": 0.23264708914955148},
  {"aborted": false, "barriers": "f89893951397c4f1", "bytes_sent": 0, "epoch_time_s": 0.00055, "events": "4f53cda18c2baa0c", "num_barriers": 1, "num_events": 0, "num_tasks": 4, "utilization": 0.0909090909090909}
 ],
 "lda": [
  {"aborted": false, "barriers": "697c3841e80670b3", "bytes_sent": 8176.0, "epoch_time_s": 0.0022665536, "events": "05ceff5620b5c199", "num_barriers": 1, "num_events": 96, "num_tasks": 32, "utilization": 0.7642011201499934},
  {"aborted": false, "barriers": "7765cd7dc71be7b4", "bytes_sent": 8176.0, "epoch_time_s": 0.0022281536, "events": "ea5611725483880b", "num_barriers": 1, "num_events": 96, "num_tasks": 32, "utilization": 0.7637053388060859},
  {"aborted": false, "barriers": "7765cd7dc71be7b4", "bytes_sent": 8112.0, "epoch_time_s": 0.0022281536, "events": "dfb445d78d519d25", "num_barriers": 1, "num_events": 96, "num_tasks": 32, "utilization": 0.7637039026393873}
 ],
 "mf_ordered": [
  {"aborted": false, "barriers": "83085a793fe2f462", "bytes_sent": 4096.0, "epoch_time_s": 0.0069422816, "events": "89ec31f598dd9e46", "num_barriers": 11, "num_events": 32, "num_tasks": 32, "utilization": 0.032410094110846784},
  {"aborted": false, "barriers": "83085a793fe2f462", "bytes_sent": 4096.0, "epoch_time_s": 0.0069422816, "events": "89ec31f598dd9e46", "num_barriers": 11, "num_events": 32, "num_tasks": 32, "utilization": 0.032410094110846784},
  {"aborted": false, "barriers": "83085a793fe2f462", "bytes_sent": 4096.0, "epoch_time_s": 0.0069422816, "events": "89ec31f598dd9e46", "num_barriers": 11, "num_events": 32, "num_tasks": 32, "utilization": 0.032410094110846784}
 ],
 "mf_unordered": [
  {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964},
  {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964},
  {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964}
 ],
 "slr": [
  {"aborted": false, "barriers": "006c3ae8bc7435bb", "bytes_sent": 5064.0, "epoch_time_s": 0.0007496688, "events": "bc8b2b89fa0c14b5", "num_barriers": 1, "num_events": 8, "num_tasks": 4, "utilization": 0.3321509445237683},
  {"aborted": false, "barriers": "0733838033f7bcd6", "bytes_sent": 5064.0, "epoch_time_s": 0.0007382688, "events": "d568ef9fa434a238", "num_barriers": 1, "num_events": 8, "num_tasks": 4, "utilization": 0.32204151116774815},
  {"aborted": false, "barriers": "0733838033f7bcd6", "bytes_sent": 5064.0, "epoch_time_s": 0.0007382688, "events": "d568ef9fa434a238", "num_barriers": 1, "num_events": 8, "num_tasks": 4, "utilization": 0.32204151116774815}
 ],
 "traced": {
  "attributed_epochs": 3,
  "attribution_problems": [],
  "epochs": [
   {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964},
   {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964},
   {"aborted": false, "barriers": "3a5e707001beb2c7", "bytes_sent": 4096.0, "epoch_time_s": 0.0008930576, "events": "c879313e5f5933dd", "num_barriers": 1, "num_events": 32, "num_tasks": 32, "utilization": 0.25194343567536964}
  ],
  "makespans": [0.0008930576, 0.0008930576, 0.0008930575999999998],
  "spans": {"barrier": 3, "block": 96, "compute": 96, "epoch": 3, "rotation": 96}
 }
}
""")


@pytest.mark.parametrize("case", sorted(CASES))
def test_epoch_signature_matches_golden(case):
    # A JSON round trip is exact for floats (repr) and turns tuples into
    # the lists the stored golden holds.
    assert json.loads(json.dumps(CASES[case]())) == GOLDEN[case]


def test_traced_run_attributes_exactly():
    traced = GOLDEN["traced"]
    assert traced["attribution_problems"] == []
    assert traced["attributed_epochs"] == EPOCHS


if __name__ == "__main__":
    print(json.dumps({name: run() for name, run in CASES.items()},
                     indent=1, sort_keys=True))
