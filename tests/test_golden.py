"""Golden hashes of whole engine runs, the gate for behaviour-preserving refactors.

Each case trains one engine on a standardized benchmark dataset (n=100,
two exploration passes) and hashes four byte strings with sha256:

* ``trace`` — the JSONL cycle trace written by ``Engine.train``;
* ``snapshot`` — ``Engine.to_json()`` after training;
* ``lattice`` — ``predict_batch`` labels on a step-0.1 lattice around the
  data (covered, tied and uncovered rows alike); at d = 4, on 3,000
  Gaussian rows instead;
* ``exploit`` — the ``exploit_step`` reports of 40 fixed probe points.

The cases cross the datasets, the four linear model kinds and the engine
cells. Two cells come from the engine grid, one carving wrong points out
(``exclude_points``) and one retracting instead; a third switches off
resizing, absorption and training on correct proposals. ``moons4`` is
moons with two standard-normal noise dimensions (d = 4); its regions
start at half-width 0.5, wide enough there to meet and be arbitrated.
Any change to
activation, winner selection, arbitration or their float arithmetic
changes a hash.

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
    "still": {"init_radius": 0.2, "overlap_threshold": None, "exclude_points": False,
              "normalization": "sigmoid", "resize_factor": 0.0, "reward_weight": 1.0,
              "penalty_weight": 0.5, "train_on_correct": False},
}

GOLDEN = {
    "moons/logit/retract": {"trace": "532549e3f6b6b5fe", "snapshot": "e0063a18b51068de", "lattice": "bb3acc7ef3b1b314", "exploit": "84fe1d0649769dda"},
    "moons/logit/exclude": {"trace": "734ea4b29079dc10", "snapshot": "6ce065166dcb9d39", "lattice": "9d9525280fa46925", "exploit": "3966f481d87a5207"},
    "moons/logit/still": {"trace": "5b0e845268cc108d", "snapshot": "cb399c2d5c4d2f39", "lattice": "e1f4776ddd4285b3", "exploit": "db91587606cfb5e9"},
    "moons/linear_svm/retract": {"trace": "36e869356bfcef4b", "snapshot": "0a07dbad1860ce47", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/linear_svm/exclude": {"trace": "734ea4b29079dc10", "snapshot": "e8316eab7fe26b67", "lattice": "b92db79705a8f8da", "exploit": "3966f481d87a5207"},
    "moons/linear_svm/still": {"trace": "07594593a46bb36e", "snapshot": "e35051f397ffac71", "lattice": "b31b86e4ce2b586d", "exploit": "db91587606cfb5e9"},
    "moons/pa1/retract": {"trace": "36e869356bfcef4b", "snapshot": "f7d1f3f4d12de74d", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/pa1/exclude": {"trace": "77c6e450253df6e5", "snapshot": "bebd165c366f01a4", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "moons/pa1/still": {"trace": "07594593a46bb36e", "snapshot": "5f9b6491d33ef731", "lattice": "b31b86e4ce2b586d", "exploit": "db91587606cfb5e9"},
    "moons/pa2/retract": {"trace": "8e98188b6365f4d0", "snapshot": "09f496f64a98446e", "lattice": "d5effe21fe9fa30b", "exploit": "84fe1d0649769dda"},
    "moons/pa2/exclude": {"trace": "77c6e450253df6e5", "snapshot": "ae594afa75da1b0b", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "moons/pa2/still": {"trace": "6dcb331614967baf", "snapshot": "eab078e547d283b6", "lattice": "7790b3ee404e1b11", "exploit": "db91587606cfb5e9"},
    "circles/logit/retract": {"trace": "dfad2f86623913d9", "snapshot": "e7311584f2562314", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/logit/exclude": {"trace": "a15b74736a774609", "snapshot": "a8f2bb409a95af67", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/logit/still": {"trace": "bd7c9b384533befc", "snapshot": "412723d3727b6bbd", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/linear_svm/retract": {"trace": "dfad2f86623913d9", "snapshot": "2730da96514f8bed", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/linear_svm/exclude": {"trace": "a15b74736a774609", "snapshot": "113f5e4d94c9a2fe", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/linear_svm/still": {"trace": "bd7c9b384533befc", "snapshot": "4d64e1198aee001f", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/pa1/retract": {"trace": "39d59f0d2977ef83", "snapshot": "684e8d48e7a339f7", "lattice": "5347004be7db84d9", "exploit": "b8b2b022c2794841"},
    "circles/pa1/exclude": {"trace": "a15b74736a774609", "snapshot": "2d1463e4c06cf6f5", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa1/still": {"trace": "7f17754f4f93cde4", "snapshot": "2c06a1bac938c627", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/pa2/retract": {"trace": "1c1e2b9861597625", "snapshot": "3e8122626cb1cdef", "lattice": "8b41cabb854fdd04", "exploit": "b8b2b022c2794841"},
    "circles/pa2/exclude": {"trace": "a15b74736a774609", "snapshot": "0a0519050908d04e", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa2/still": {"trace": "7f17754f4f93cde4", "snapshot": "dc0b4ff42cb3265c", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "linear/logit/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "088fd76cbd57471c", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/logit/exclude": {"trace": "0fe31e43130e41f6", "snapshot": "ac2c4ff10882fb45", "lattice": "ceea0bb9217197e9", "exploit": "321eac2c1f2e9b30"},
    "linear/logit/still": {"trace": "31279a93ee7a41cf", "snapshot": "1f178adf681b17a1", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/linear_svm/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "439d138864317f48", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/linear_svm/exclude": {"trace": "85f560b8e2cf31f5", "snapshot": "71a0fd866f59da23", "lattice": "0dc1a293988d4a14", "exploit": "321eac2c1f2e9b30"},
    "linear/linear_svm/still": {"trace": "31279a93ee7a41cf", "snapshot": "3608fb4230261b9c", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/pa1/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "2237a1b891c1edc9", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa1/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "5b387e1ca59bde8d", "lattice": "39996a416356fb46", "exploit": "3f44955cbe0faeff"},
    "linear/pa1/still": {"trace": "31279a93ee7a41cf", "snapshot": "69719a3512afed8b", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/pa2/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "33fca998f308c224", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa2/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "7975c9d10c978d97", "lattice": "ea36c1a6ef3e1209", "exploit": "3f44955cbe0faeff"},
    "linear/pa2/still": {"trace": "31279a93ee7a41cf", "snapshot": "ddf5639500d94076", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "moons4/logit/retract": {"trace": "3e5a44ae0b1e7e66", "snapshot": "c461c92be7325c94", "lattice": "3465a1d407e556ad", "exploit": "9a948eab36d62bed"},
    "moons4/logit/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "a70980e5d6cbfe92", "lattice": "055cb5470da23876", "exploit": "a36d1f9c1cd30980"},
    "moons4/logit/still": {"trace": "13ace62ac0fc99b2", "snapshot": "6b567be9983e7c2b", "lattice": "e3139cbe29d8deb8", "exploit": "c72c3f337bed2da3"},
    "moons4/linear_svm/retract": {"trace": "3e5a44ae0b1e7e66", "snapshot": "61ea7e42ca934533", "lattice": "3465a1d407e556ad", "exploit": "9a948eab36d62bed"},
    "moons4/linear_svm/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "389bb180a8d67239", "lattice": "f0b786d52addf540", "exploit": "a36d1f9c1cd30980"},
    "moons4/linear_svm/still": {"trace": "13ace62ac0fc99b2", "snapshot": "4d036416760dab04", "lattice": "5a7af718c56655a2", "exploit": "c72c3f337bed2da3"},
    "moons4/pa1/retract": {"trace": "a97879454281c734", "snapshot": "a3def71a5edb500f", "lattice": "25a0246eb14ce068", "exploit": "9a948eab36d62bed"},
    "moons4/pa1/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "9719703c11910fa1", "lattice": "0b91ad1c763905fb", "exploit": "89ff49745f149db5"},
    "moons4/pa1/still": {"trace": "abf6eeba7f2283ff", "snapshot": "7091f4812f889940", "lattice": "cf50530ee920b98f", "exploit": "c72c3f337bed2da3"},
    "moons4/pa2/retract": {"trace": "00025dfc3ac6886e", "snapshot": "4fa1bc59ec1a2c50", "lattice": "17d92256d309ca93", "exploit": "9a948eab36d62bed"},
    "moons4/pa2/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "2a5652e8a065550e", "lattice": "478dff2c7db9d8a1", "exploit": "89ff49745f149db5"},
    "moons4/pa2/still": {"trace": "65d254ade6218dc9", "snapshot": "160e8c198b9d6498", "lattice": "cf50530ee920b98f", "exploit": "c72c3f337bed2da3"},
}

DATASETS = (*bench.DATASET_NAMES, "moons4")

CASES = [
    (name, kind.value, cell)
    for name in DATASETS
    for kind in bench.KINDS
    for cell in CELLS
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def dataset(name: str) -> tuple[np.ndarray, np.ndarray]:
    datasets = bench.build_datasets(bench.experiment_config())
    if name != "moons4":
        return datasets[name].X, datasets[name].Y
    ds = datasets["moons"]
    noise = np.random.default_rng(23).standard_normal((ds.n, 2))
    return np.hstack([ds.X, noise]), ds.Y


def run_case(name: str, kind: str, cell: str) -> dict[str, str]:
    X, Y = dataset(name)
    dim = X.shape[1]
    model_cfg = LinearModelConfig.from_dict({"kind": kind, **bench.default_linear_grid(kind)[0]})
    radius = {"init_radius": 0.5} if dim > 2 else {}
    cfg = EngineConfig(**{**CELLS[cell], **radius}, seed=17, exploration_passes=2)
    engine = Engine(cfg, model_cfg, dim=dim)
    trace = io.StringIO()
    engine.train(X, Y, trace=trace)
    if dim == 2:
        lattice = bench.boundary_grid(engine.predict_batch, X, step=0.1).labels
    else:
        lattice = engine.predict_batch(np.random.default_rng(6).normal(0.0, 1.5, size=(3000, dim)))
    probes = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, dim))
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
