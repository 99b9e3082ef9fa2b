"""Golden hashes of whole engine runs, the gate for behaviour-preserving refactors.

Each case trains one engine on a standardized benchmark dataset (n=100,
two exploration passes) and hashes four byte strings with sha256:

* ``trace`` — the JSONL cycle trace written by ``Engine.train``;
* ``snapshot`` — ``Engine.to_json()`` after training;
* ``lattice`` — ``predict_batch`` labels on a step-0.1 lattice around the
  data (covered, tied and uncovered rows alike);
* ``exploit`` — the ``exploit_step`` reports of 40 fixed probe points.

The cases cross the three datasets, the four linear model kinds and two
engine-grid cells, one carving wrong points out (``exclude_points``) and
one retracting instead. Any change to activation, winner selection,
arbitration or their float arithmetic changes a hash.

The hashes hold for the numpy float results of the machine that recorded
them (x86-64, numpy 2.4); run ``python tests/test_golden.py`` to print the
current table.
"""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
import pytest

from cooptile import bench
from cooptile.agents import EngineConfig
from cooptile.engine import Engine
from cooptile.linear import LinearModelConfig

CELLS = {
    "retract": {"init_radius": 0.2, "overlap_threshold": 0.5, "exclude_points": False,
                "normalization": "sigmoid", "resize_factor": 0.1, "reward_weight": 1.0,
                "penalty_weight": 1.0},
    "exclude": {"init_radius": 0.2, "overlap_threshold": 0.2, "exclude_points": True,
                "normalization": "sigmoid", "resize_factor": 0.2, "reward_weight": 1.0,
                "penalty_weight": 0.5},
}

GOLDEN = {
    "moons/logit/retract": {"trace": "532549e3f6b6b5fe", "snapshot": "e0063a18b51068de", "lattice": "bb3acc7ef3b1b314", "exploit": "84fe1d0649769dda"},
    "moons/logit/exclude": {"trace": "734ea4b29079dc10", "snapshot": "6ce065166dcb9d39", "lattice": "9d9525280fa46925", "exploit": "3966f481d87a5207"},
    "moons/linear_svm/retract": {"trace": "36e869356bfcef4b", "snapshot": "0a07dbad1860ce47", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/linear_svm/exclude": {"trace": "734ea4b29079dc10", "snapshot": "e8316eab7fe26b67", "lattice": "b92db79705a8f8da", "exploit": "3966f481d87a5207"},
    "moons/pa1/retract": {"trace": "36e869356bfcef4b", "snapshot": "f7d1f3f4d12de74d", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/pa1/exclude": {"trace": "77c6e450253df6e5", "snapshot": "bebd165c366f01a4", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "moons/pa2/retract": {"trace": "8e98188b6365f4d0", "snapshot": "09f496f64a98446e", "lattice": "d5effe21fe9fa30b", "exploit": "84fe1d0649769dda"},
    "moons/pa2/exclude": {"trace": "77c6e450253df6e5", "snapshot": "ae594afa75da1b0b", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "circles/logit/retract": {"trace": "dfad2f86623913d9", "snapshot": "e7311584f2562314", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/logit/exclude": {"trace": "a15b74736a774609", "snapshot": "a8f2bb409a95af67", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/linear_svm/retract": {"trace": "dfad2f86623913d9", "snapshot": "2730da96514f8bed", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/linear_svm/exclude": {"trace": "a15b74736a774609", "snapshot": "113f5e4d94c9a2fe", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa1/retract": {"trace": "39d59f0d2977ef83", "snapshot": "684e8d48e7a339f7", "lattice": "5347004be7db84d9", "exploit": "b8b2b022c2794841"},
    "circles/pa1/exclude": {"trace": "a15b74736a774609", "snapshot": "2d1463e4c06cf6f5", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa2/retract": {"trace": "1c1e2b9861597625", "snapshot": "3e8122626cb1cdef", "lattice": "8b41cabb854fdd04", "exploit": "b8b2b022c2794841"},
    "circles/pa2/exclude": {"trace": "a15b74736a774609", "snapshot": "0a0519050908d04e", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "linear/logit/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "088fd76cbd57471c", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/logit/exclude": {"trace": "0fe31e43130e41f6", "snapshot": "ac2c4ff10882fb45", "lattice": "ceea0bb9217197e9", "exploit": "321eac2c1f2e9b30"},
    "linear/linear_svm/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "439d138864317f48", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/linear_svm/exclude": {"trace": "85f560b8e2cf31f5", "snapshot": "71a0fd866f59da23", "lattice": "0dc1a293988d4a14", "exploit": "321eac2c1f2e9b30"},
    "linear/pa1/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "2237a1b891c1edc9", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa1/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "5b387e1ca59bde8d", "lattice": "39996a416356fb46", "exploit": "3f44955cbe0faeff"},
    "linear/pa2/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "33fca998f308c224", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa2/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "7975c9d10c978d97", "lattice": "ea36c1a6ef3e1209", "exploit": "3f44955cbe0faeff"},
}

CASES = [
    (name, kind.value, cell)
    for name in bench.DATASET_NAMES
    for kind in bench.KINDS
    for cell in CELLS
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(name: str, kind: str, cell: str) -> dict[str, str]:
    ds = bench.build_datasets(bench.experiment_config())[name]
    model_cfg = LinearModelConfig.from_dict({"kind": kind, **bench.default_linear_grid(kind)[0]})
    cfg = EngineConfig(**CELLS[cell], seed=17, exploration_passes=2)
    engine = Engine(cfg, model_cfg, dim=2)
    trace = io.StringIO()
    engine.train(ds.X, ds.Y, trace=trace)
    lattice = bench.boundary_grid(engine.predict_batch, ds.X, step=0.1).labels
    probes = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 2))
    reports = [engine.exploit_step(p).to_dict() for p in probes]
    return {
        "trace": _sha(trace.getvalue().encode()),
        "snapshot": _sha(engine.to_json().encode()),
        "lattice": _sha(lattice.astype(np.int64).tobytes()),
        "exploit": _sha(json.dumps(reports, sort_keys=True).encode()),
    }


@pytest.mark.parametrize("name,kind,cell", CASES, ids=["-".join(c) for c in CASES])
def test_run_matches_golden_hashes(name, kind, cell):
    assert run_case(name, kind, cell) == GOLDEN[f"{name}/{kind}/{cell}"]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{"/".join(case)}": {json.dumps(run_case(*case))},')
