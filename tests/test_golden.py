"""Golden hashes of whole engine runs, the gate for behaviour-preserving refactors.

Each case trains one engine on a standardized benchmark dataset (n=100,
two exploration passes) and hashes four byte strings with sha256:

* ``trace`` — the JSONL cycle trace written by ``Engine.train``;
* ``snapshot`` — ``Engine.to_json()`` after training;
* ``lattice`` — ``predict_batch`` labels on a step-0.1 lattice around the
  data (covered, tied and uncovered rows alike); at d > 2, on 3,000
  Gaussian rows instead;
* ``exploit`` — the ``exploit_step`` reports of 40 fixed probe points.

A second table pins bare ``OnlineLinearModel.fit`` runs, which the
benchmark records see only through rounded accuracies: the bytes of
``weights``, ``bias`` and ``step_count`` after 30 shuffled epochs on
moons (d = 2) and ``moons4`` (d = 4), for every kind under each penalty
and without shrinkage (``alpha_reg=0``). The passive-aggressive kinds
ignore shrinkage, so their four hashes agree.

The cases cross the datasets, the four linear model kinds and the engine
cells. Two cells come from the engine grid, one carving wrong points out
(``exclude_points``) and one retracting instead; a third switches off
resizing, absorption and training on correct proposals. ``moons4`` and
``moons6`` are moons with two and four standard-normal noise dimensions
(d = 4 and d = 6); their regions start at half-width 0.5, wide enough to
meet and be arbitrated. At d = 6, where ``1/d`` is inexact, the cells'
traces agree but their snapshots pin the resized bounds. Any change to
activation, winner selection, arbitration or their float arithmetic
changes a hash.

A third table pins the paper protocol's output files: ``results.json``
and ``accuracy_table.csv`` of a mini ``run_experiment`` (n=40, 3 epochs,
one exploration pass) over a few cells of the default grids, written
alike by one worker and by a pool of two. Some searches pick a cell other
than the first, and some means tie, so the choice of the best cell and its
grid-order tie-break both show in the bytes.

The hashes hold for the numpy float results of the machine that recorded
them (x86-64, numpy 2.4); run ``python tests/test_golden.py`` to print the
current tables.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest

from cooptile import bench
from cooptile.agents import EngineConfig
from cooptile.engine import Engine
from cooptile.linear import LinearModelConfig, ModelKind

CELLS = {
    "retract": {"init_radius": 0.2, "overlap_threshold": 0.5, "exclude_points": False,
                "resize_factor": 0.1, "reward_weight": 1.0, "penalty_weight": 1.0},
    "exclude": {"init_radius": 0.2, "overlap_threshold": 0.2, "exclude_points": True,
                "resize_factor": 0.2, "reward_weight": 1.0, "penalty_weight": 0.5},
    "still": {"init_radius": 0.2, "overlap_threshold": None, "exclude_points": False,
              "resize_factor": 0.0, "reward_weight": 1.0, "penalty_weight": 0.5, "train_on_correct": False},
}

GOLDEN = {
    "moons/logit/retract": {"trace": "532549e3f6b6b5fe", "snapshot": "dd14887cadd578b3", "lattice": "bb3acc7ef3b1b314", "exploit": "84fe1d0649769dda"},
    "moons/logit/exclude": {"trace": "734ea4b29079dc10", "snapshot": "5232161e54787665", "lattice": "9d9525280fa46925", "exploit": "3966f481d87a5207"},
    "moons/logit/still": {"trace": "5b0e845268cc108d", "snapshot": "db76da2737980150", "lattice": "e1f4776ddd4285b3", "exploit": "db91587606cfb5e9"},
    "moons/linear_svm/retract": {"trace": "36e869356bfcef4b", "snapshot": "c8435712cc977462", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/linear_svm/exclude": {"trace": "734ea4b29079dc10", "snapshot": "2dc5bbd913c8bddd", "lattice": "b92db79705a8f8da", "exploit": "3966f481d87a5207"},
    "moons/linear_svm/still": {"trace": "07594593a46bb36e", "snapshot": "2d5e9dbc4d29e60e", "lattice": "b31b86e4ce2b586d", "exploit": "db91587606cfb5e9"},
    "moons/pa1/retract": {"trace": "36e869356bfcef4b", "snapshot": "798393de01abd458", "lattice": "e0da3a7e0e7c11c2", "exploit": "84fe1d0649769dda"},
    "moons/pa1/exclude": {"trace": "77c6e450253df6e5", "snapshot": "d886c25fda3ff21e", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "moons/pa1/still": {"trace": "07594593a46bb36e", "snapshot": "d7a44fa551a1644a", "lattice": "b31b86e4ce2b586d", "exploit": "db91587606cfb5e9"},
    "moons/pa2/retract": {"trace": "8e98188b6365f4d0", "snapshot": "3c10e3093a70a43a", "lattice": "d5effe21fe9fa30b", "exploit": "84fe1d0649769dda"},
    "moons/pa2/exclude": {"trace": "77c6e450253df6e5", "snapshot": "0eb6bbf1cf2b2f9b", "lattice": "2130a8ff46d068d9", "exploit": "136ed0fcffd414b3"},
    "moons/pa2/still": {"trace": "6dcb331614967baf", "snapshot": "5a83809e4af1aa0f", "lattice": "7790b3ee404e1b11", "exploit": "db91587606cfb5e9"},
    "circles/logit/retract": {"trace": "dfad2f86623913d9", "snapshot": "c7407cfca7173ef9", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/logit/exclude": {"trace": "a15b74736a774609", "snapshot": "5e8be2347b4405ab", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/logit/still": {"trace": "bd7c9b384533befc", "snapshot": "0d96e93290b1fbeb", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/linear_svm/retract": {"trace": "dfad2f86623913d9", "snapshot": "55e0fdf34fc02917", "lattice": "090b1d1b53795bce", "exploit": "a8701c8a4a26d555"},
    "circles/linear_svm/exclude": {"trace": "a15b74736a774609", "snapshot": "d0019bd3914d1402", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/linear_svm/still": {"trace": "bd7c9b384533befc", "snapshot": "73c237516621f02b", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/pa1/retract": {"trace": "39d59f0d2977ef83", "snapshot": "d42a0d26fd3e7197", "lattice": "5347004be7db84d9", "exploit": "b8b2b022c2794841"},
    "circles/pa1/exclude": {"trace": "a15b74736a774609", "snapshot": "d6de7b4788fd633d", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa1/still": {"trace": "7f17754f4f93cde4", "snapshot": "9230bc0920b43853", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "circles/pa2/retract": {"trace": "1c1e2b9861597625", "snapshot": "4388a6a498e79665", "lattice": "8b41cabb854fdd04", "exploit": "b8b2b022c2794841"},
    "circles/pa2/exclude": {"trace": "a15b74736a774609", "snapshot": "220daf429cc80478", "lattice": "a48b9b8c44efcb3b", "exploit": "298c80fccfca2ced"},
    "circles/pa2/still": {"trace": "7f17754f4f93cde4", "snapshot": "126a6ec3bd416c68", "lattice": "0437bec9c88b2e89", "exploit": "6731c56ce25063af"},
    "linear/logit/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "db998268ba3c0ccd", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/logit/exclude": {"trace": "0fe31e43130e41f6", "snapshot": "e1476d11df745f05", "lattice": "ceea0bb9217197e9", "exploit": "321eac2c1f2e9b30"},
    "linear/logit/still": {"trace": "31279a93ee7a41cf", "snapshot": "413f903dfed0f6ca", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/linear_svm/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "104df47c6fa3c4fb", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/linear_svm/exclude": {"trace": "85f560b8e2cf31f5", "snapshot": "70baee675211c079", "lattice": "0dc1a293988d4a14", "exploit": "321eac2c1f2e9b30"},
    "linear/linear_svm/still": {"trace": "31279a93ee7a41cf", "snapshot": "697b53e38e2d4d2a", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/pa1/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "f5ee730b506dc6ed", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa1/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "7a739dfee25cb013", "lattice": "39996a416356fb46", "exploit": "3f44955cbe0faeff"},
    "linear/pa1/still": {"trace": "31279a93ee7a41cf", "snapshot": "9b69df7447ce09da", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "linear/pa2/retract": {"trace": "5f570e22f9ef0b8d", "snapshot": "6101236f2e29947a", "lattice": "1476db925d5bd464", "exploit": "d919dcb7584b8ca9"},
    "linear/pa2/exclude": {"trace": "8306dd89c68eaab6", "snapshot": "ff934eed846a8f2d", "lattice": "ea36c1a6ef3e1209", "exploit": "3f44955cbe0faeff"},
    "linear/pa2/still": {"trace": "31279a93ee7a41cf", "snapshot": "4930d969933c4781", "lattice": "814a9f16a0066d39", "exploit": "7486028096b23b4f"},
    "moons4/logit/retract": {"trace": "92719defa6769014", "snapshot": "0403a4a5c825edd0", "lattice": "3465a1d407e556ad", "exploit": "9a948eab36d62bed"},
    "moons4/logit/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "45e5cb42b0b0a742", "lattice": "055cb5470da23876", "exploit": "a36d1f9c1cd30980"},
    "moons4/logit/still": {"trace": "13ace62ac0fc99b2", "snapshot": "240a8fffbc7c778b", "lattice": "e3139cbe29d8deb8", "exploit": "c72c3f337bed2da3"},
    "moons4/linear_svm/retract": {"trace": "92719defa6769014", "snapshot": "0419e0e542e74aae", "lattice": "3465a1d407e556ad", "exploit": "9a948eab36d62bed"},
    "moons4/linear_svm/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "c4e97cb290aa367b", "lattice": "f0b786d52addf540", "exploit": "a36d1f9c1cd30980"},
    "moons4/linear_svm/still": {"trace": "13ace62ac0fc99b2", "snapshot": "5ed38999a9a96e3d", "lattice": "5a7af718c56655a2", "exploit": "c72c3f337bed2da3"},
    "moons4/pa1/retract": {"trace": "00117230b54e780d", "snapshot": "36e9fce62fe13e67", "lattice": "25a0246eb14ce068", "exploit": "9a948eab36d62bed"},
    "moons4/pa1/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "ffd61ed1e7072159", "lattice": "0b91ad1c763905fb", "exploit": "89ff49745f149db5"},
    "moons4/pa1/still": {"trace": "abf6eeba7f2283ff", "snapshot": "5d8ae8c6bf06de24", "lattice": "cf50530ee920b98f", "exploit": "c72c3f337bed2da3"},
    "moons4/pa2/retract": {"trace": "435e319f4b4427ec", "snapshot": "f89ee6268d843a45", "lattice": "17d92256d309ca93", "exploit": "9a948eab36d62bed"},
    "moons4/pa2/exclude": {"trace": "bef8fc40ee10f4f9", "snapshot": "307dc8b8db9afe47", "lattice": "478dff2c7db9d8a1", "exploit": "89ff49745f149db5"},
    "moons4/pa2/still": {"trace": "65d254ade6218dc9", "snapshot": "2abfb412c4a8691b", "lattice": "cf50530ee920b98f", "exploit": "c72c3f337bed2da3"},
    "moons6/logit/retract": {"trace": "1744e96c62327237", "snapshot": "fc6c2ba12ba1e3bb", "lattice": "262695666c7206b4", "exploit": "6465d70e8d744a8b"},
    "moons6/logit/exclude": {"trace": "1744e96c62327237", "snapshot": "3f13f275f1be57d2", "lattice": "1bcc242b3d123f25", "exploit": "6465d70e8d744a8b"},
    "moons6/logit/still": {"trace": "1744e96c62327237", "snapshot": "7edf4a857cdbc116", "lattice": "4397652188b426c8", "exploit": "6465d70e8d744a8b"},
    "moons6/linear_svm/retract": {"trace": "1744e96c62327237", "snapshot": "362c9cf0426fc7e8", "lattice": "262695666c7206b4", "exploit": "6465d70e8d744a8b"},
    "moons6/linear_svm/exclude": {"trace": "1744e96c62327237", "snapshot": "eba0b76b180a9af9", "lattice": "1bcc242b3d123f25", "exploit": "6465d70e8d744a8b"},
    "moons6/linear_svm/still": {"trace": "1744e96c62327237", "snapshot": "4706365a29bd69c7", "lattice": "4397652188b426c8", "exploit": "6465d70e8d744a8b"},
    "moons6/pa1/retract": {"trace": "1744e96c62327237", "snapshot": "ea28a03017351fe1", "lattice": "262695666c7206b4", "exploit": "6465d70e8d744a8b"},
    "moons6/pa1/exclude": {"trace": "1744e96c62327237", "snapshot": "7a1554d4a199653d", "lattice": "1bcc242b3d123f25", "exploit": "6465d70e8d744a8b"},
    "moons6/pa1/still": {"trace": "1744e96c62327237", "snapshot": "bec963609fddbc11", "lattice": "4397652188b426c8", "exploit": "6465d70e8d744a8b"},
    "moons6/pa2/retract": {"trace": "1744e96c62327237", "snapshot": "95ca877ada64aec6", "lattice": "262695666c7206b4", "exploit": "6465d70e8d744a8b"},
    "moons6/pa2/exclude": {"trace": "1744e96c62327237", "snapshot": "6707a239c652cee7", "lattice": "1bcc242b3d123f25", "exploit": "6465d70e8d744a8b"},
    "moons6/pa2/still": {"trace": "1744e96c62327237", "snapshot": "e9a1a96fa0ce2563", "lattice": "4397652188b426c8", "exploit": "6465d70e8d744a8b"},
}

LINEAR_GOLDEN = {
    "moons/logit/l1": "0f5f017a2d1a8e98",
    "moons/logit/l2": "4a93602cd36f6f35",
    "moons/logit/elasticnet": "da40f7dd9dc0b99d",
    "moons/logit/none": "a22ab7f6bf436caf",
    "moons/linear_svm/l1": "d5e1b3b313aa2941",
    "moons/linear_svm/l2": "f3cfd10acfc4ede8",
    "moons/linear_svm/elasticnet": "6dde2ebf85ffcd73",
    "moons/linear_svm/none": "dfa3ab6ad9be8fab",
    "moons/pa1/l1": "24508b5367b88f47",
    "moons/pa1/l2": "24508b5367b88f47",
    "moons/pa1/elasticnet": "24508b5367b88f47",
    "moons/pa1/none": "24508b5367b88f47",
    "moons/pa2/l1": "ba535e6dc48b0285",
    "moons/pa2/l2": "ba535e6dc48b0285",
    "moons/pa2/elasticnet": "ba535e6dc48b0285",
    "moons/pa2/none": "ba535e6dc48b0285",
    "moons4/logit/l1": "18ef4a97a4887b53",
    "moons4/logit/l2": "831860020897397c",
    "moons4/logit/elasticnet": "09090605815bf711",
    "moons4/logit/none": "92e7f4ef8469f724",
    "moons4/linear_svm/l1": "21273b83074dc22e",
    "moons4/linear_svm/l2": "19d8101c4283ab22",
    "moons4/linear_svm/elasticnet": "8c31ef74b3cd3b1e",
    "moons4/linear_svm/none": "21e6500d36df0068",
    "moons4/pa1/l1": "40ad4338cc02c2fe",
    "moons4/pa1/l2": "40ad4338cc02c2fe",
    "moons4/pa1/elasticnet": "40ad4338cc02c2fe",
    "moons4/pa1/none": "40ad4338cc02c2fe",
    "moons4/pa2/l1": "08a910c41a460cc6",
    "moons4/pa2/l2": "08a910c41a460cc6",
    "moons4/pa2/elasticnet": "08a910c41a460cc6",
    "moons4/pa2/none": "08a910c41a460cc6",
}

#: Mini-protocol cells, by index into ``bench.default_linear_grid(kind)`` and ``bench.default_engine_grid()``.
PROTOCOL_LINEAR_CELLS = {ModelKind.LOGIT: (0, 4, 8), ModelKind.LINEAR_SVM: (1, 3, 8),
                         ModelKind.PA_I: (0, 1, 2), ModelKind.PA_II: (0, 2)}
PROTOCOL_ENGINE_CELLS = (0, 35, 70, 107)

PROTOCOL_GOLDEN = {"results.json": "8e000b4d407371ac", "accuracy_table.csv": "3de0cb7de808340d"}

#: Moons with standard-normal noise columns appended, by total dimension.
NOISY_MOONS = ("moons4", "moons6")

DATASETS = (*bench.DATASET_NAMES, *NOISY_MOONS)

CASES = [
    (name, kind.value, cell)
    for name in DATASETS
    for kind in bench.KINDS
    for cell in CELLS
]


#: Shrinkage settings of the bare-fit cases: name -> config overrides.
SHRINKAGE = {
    "l1": {"alpha_reg": 0.01, "penalty": "l1"},
    "l2": {"alpha_reg": 0.01, "penalty": "l2"},
    "elasticnet": {"alpha_reg": 0.01, "penalty": "elasticnet"},
    "none": {"alpha_reg": 0.0},
}

LINEAR_CASES = [
    (name, kind.value, shrink)
    for name in ("moons", "moons4")
    for kind in bench.KINDS
    for shrink in SHRINKAGE
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def dataset(name: str) -> tuple[np.ndarray, np.ndarray]:
    datasets = bench.build_datasets(bench.experiment_config())
    if name not in NOISY_MOONS:
        return datasets[name].X, datasets[name].Y
    ds = datasets["moons"]
    noise = np.random.default_rng(23).standard_normal((ds.n, int(name.removeprefix("moons")) - 2))
    return np.hstack([ds.X, noise]), ds.Y


def run_case(name: str, kind: str, cell: str) -> dict[str, str]:
    X, Y = dataset(name)
    dim = X.shape[1]
    model_cfg = LinearModelConfig(kind=kind, **bench.default_linear_grid(kind)[0])
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


def run_linear_case(name: str, kind: str, shrink: str) -> str:
    X, Y = dataset(name)
    cfg = LinearModelConfig(kind=kind, learning_rate0=0.05, aggressiveness_c=0.5, **SHRINKAGE[shrink])
    model = cfg.build(X.shape[1]).fit(X, Y, epochs=30, seed=19)
    state = model.weights.tobytes() + np.float64(model.bias).tobytes() + np.int64(model.step_count).tobytes()
    return _sha(state)


def run_protocol(jobs: int, out_dir) -> dict[str, str]:
    linear_grids = {kind: [bench.default_linear_grid(kind)[i] for i in idx] for kind, idx in PROTOCOL_LINEAR_CELLS.items()}
    engine_grid = [bench.default_engine_grid()[i] for i in PROTOCOL_ENGINE_CELLS]
    config = {"n": 40, "epochs": 3, "exploration_passes": 1, "jobs": jobs}
    bench.run_experiment(config, out_dir, linear_grids, engine_grid)
    return {name: _sha((out_dir / name).read_bytes()) for name in PROTOCOL_GOLDEN}


@pytest.mark.parametrize("name,kind,shrink", LINEAR_CASES, ids=["-".join(c) for c in LINEAR_CASES])
def test_linear_fit_matches_golden_hashes(name, kind, shrink):
    assert run_linear_case(name, kind, shrink) == LINEAR_GOLDEN[f"{name}/{kind}/{shrink}"]


@pytest.mark.parametrize("name,kind,cell", CASES, ids=["-".join(c) for c in CASES])
def test_run_matches_golden_hashes(name, kind, cell):
    assert run_case(name, kind, cell) == GOLDEN[f"{name}/{kind}/{cell}"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_protocol_files_match_golden_hashes(jobs, tmp_path):
    assert run_protocol(jobs, tmp_path) == PROTOCOL_GOLDEN


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{"/".join(case)}": {json.dumps(run_case(*case))},')
    for case in LINEAR_CASES:
        print(f'    "{"/".join(case)}": "{run_linear_case(*case)}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f"PROTOCOL_GOLDEN = {json.dumps(run_protocol(1, pathlib.Path(tmp)))}")
