"""Mutation check: does the test suite fail on each of a list of deliberate faults in ``src/``?

    python tests/mutants.py [--only NAME] [--seeds 1,2,3]

A mutant is one exact text replacement in one ``src/`` file; the replaced
text must occur there exactly once. For each mutant the tool copies
``src/`` to a temporary directory, applies the replacement, and runs the
mutant's test selection against the copy with ``pytest -x -p
no:cacheprovider``, once per Hypothesis seed, under a Hypothesis profile
without the shrink and explain phases and without an example database.
Only the plugin that this tool writes to its temporary directory loads
that profile, so tier-1 and the ``.hypothesis/`` directory are untouched.
The plugin also checks that the tests import ``cooptile`` from the
mutated copy.

Each selection first runs on an unmutated copy, which must pass. A mutant
is *killed* when its selection fails at every seed, and the line printed
for it names the first failing test of each seed; the tool exits 1 if any
mutant survived. Runs leave out ``PINNED``, the tests that compare outputs
with recorded hashes: any change of behaviour fails them, so a kill by
them shows nothing about the property and unit tests. Tier-1 does not
collect this file, whose name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Tests that pin recorded hashes or outputs of an older version, left out of every run.
PINNED = (
    "tests/test_engine.py::TestEndToEndSmoke::test_exploration_decides_only_activated_cycles",
    "tests/test_engine.py::TestDeterminismAndPersistence::test_snapshot_of_older_format_loads",
)

ENGINE_TESTS = ("tests/test_engine.py", "tests/test_agents.py")
FEEDBACK_TESTS = ("tests/test_agents.py", "tests/test_engine.py")
NEAREST_TESTS = ("tests/test_engine.py", "tests/test_geometry.py")


class Mutant(NamedTuple):
    file: str  # relative to src/cooptile
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    # -- faults whose kills were shown by hand when the engine's state machine replaced nine tests
    "train-reseeded": Mutant(
        "engine.py", "np.random.default_rng(self.cfg.seed)", "np.random.default_rng(self.cfg.seed + 1)", ENGINE_TESTS),
    "create-counts-two-cycles": Mutant(
        "engine.py", "self.cycle += 1", "self.cycle += 1 if active.size else 2", ENGINE_TESTS),
    "predict-batch-counts-a-cycle": Mutant(
        "engine.py", "X = self._query(X, 2)\n", "X = self._query(X, 2)\n        self.cycle += 1\n", ENGINE_TESTS),
    "block-even-vote-to-class-1": Mutant(
        "engine.py", "labels = 2 * votes.sum(axis=1, where=tied) > tied.sum(axis=1)",
        "labels = 2 * votes.sum(axis=1, where=tied) >= tied.sum(axis=1)", ENGINE_TESTS),
    "create-keeps-the-next-id": Mutant("engine.py", "        self._next_id += 1\n", "", ENGINE_TESTS),
    "snapshot-cycle-zero": Mutant(
        "engine.py", 'engine.cycle, engine._next_id = snap["cycle"], snap["next_agent_id"]',
        'engine.cycle, engine._next_id = 0, snap["next_agent_id"]', ENGINE_TESTS),
    "conflict-left-unresolved": Mutant(
        "engine.py", "if iv == 0.0:", "if iv == 0.0 or proposals[a] != proposals[b]:", ENGINE_TESTS),
    "point-even-vote-to-class-1": Mutant(
        "engine.py", "label = int(2 * sum(tied) > len(tied))", "label = int(2 * sum(tied) >= len(tied))",
        ENGINE_TESTS),
    "penalty-keeps-confidence": Mutant(
        "agents.py", "cfg.reward_weight if correct else -cfg.penalty_weight", "cfg.reward_weight if correct else 0.0",
        FEEDBACK_TESTS),
    # -- one per arbitration rule
    "competition-never-absorbs": Mutant(
        "engine.py", "overlap_index(iv, *win, *lose) > threshold", "overlap_index(iv, *win, *lose) > 1.0",
        ENGINE_TESTS),
    "conflict-absorbs": Mutant(
        "engine.py", "if not (same and threshold is not None", "if not (threshold is not None", ENGINE_TESTS),
    "lower-score-wins": Mutant("engine.py", "if score[b] > score[a] or", "if score[b] < score[a] or", ENGINE_TESTS),
    "score-tie-to-higher-id": Mutant(
        "engine.py", "(score[a] == score[b] and b < a)", "(score[a] == score[b] and b > a)", ENGINE_TESTS),
    "lowest-scoring-pair-first": Mutant(
        "engine.py", "key=lambda p: (-max(score[p[0]], score[p[1]]),", "key=lambda p: (max(score[p[0]], score[p[1]]),",
        ENGINE_TESTS),
    "unseparable-pair-left-overlapping": Mutant(
        "engine.py", "pushed = push(*win, *lose)\n",
        "pushed = push(*win, *lose)\n                    if pushed is None:\n                        continue\n",
        ENGINE_TESTS),
    "absorbing-pass-not-rerun": Mutant(
        "engine.py", "dead.add(b)\n                    absorbed = True\n", "dead.add(b)\n", ENGINE_TESTS),
    # -- one per feedback rule
    "reward-keeps-confidence": Mutant(
        "agents.py", "cfg.reward_weight if correct else -cfg.penalty_weight", "0.0 if correct else -cfg.penalty_weight",
        FEEDBACK_TESTS),
    "right-region-keeps-its-size": Mutant(
        "agents.py", "rescale(self.lower[i], self.upper[i], cfg.resize_factor)",
        "rescale(self.lower[i], self.upper[i], 0.0)", FEEDBACK_TESTS),
    "train-on-correct-inverted": Mutant(
        "agents.py", "if cfg.train_on_correct:", "if not cfg.train_on_correct:", FEEDBACK_TESTS),
    "wrong-point-not-excluded": Mutant(
        "agents.py", "self.lower[i], self.upper[i] = exclude(self.lower[i], self.upper[i], x, cfg.epsilon_scale)",
        "pass", FEEDBACK_TESTS),
    "wrong-model-not-trained": Mutant(
        "agents.py", "self.fit(i, x, y, model_cfg)\n            self.lower[i], self.upper[i] = rescale(",
        "self.lower[i], self.upper[i] = rescale(", FEEDBACK_TESTS),
    "wrong-region-grows": Mutant(
        "agents.py", "rescale(self.lower[i], self.upper[i], -cfg.resize_factor)",
        "rescale(self.lower[i], self.upper[i], cfg.resize_factor)", FEEDBACK_TESTS),
    # -- the decision rule's point path, the nearest-box kernel, activation and the pool's scores
    "point-votes-on-positive-margin": Mutant(
        "engine.py", "votes = [int(m >= 0.0) for m in", "votes = [int(m > 0.0) for m in", ENGINE_TESTS),
    "point-ties-only-when-equal": Mutant(
        "engine.py", "top = max(scores) - SCORE_TIE_TOL", "top = max(scores)", ENGINE_TESTS),
    "nearest-keeps-the-last": Mutant(
        "engine.py", "return distance.argmin(axis=-1)",
        "return distance.shape[-1] - 1 - distance[..., ::-1].argmin(axis=-1)", NEAREST_TESTS),
    "nearest-squares-gaps": Mutant(
        "engine.py", "distance = np.hypot(distance, gap[..., k])",
        "distance = np.sqrt(distance * distance + gap[..., k] * gap[..., k])", NEAREST_TESTS),
    "nearest-by-largest-gap": Mutant(
        "engine.py", "distance = np.hypot(distance, gap[..., k])", "distance = np.maximum(distance, gap[..., k])",
        NEAREST_TESTS),
    "activation-open-bounds": Mutant(
        "engine.py", "((rows >= self.agents.lower) & (rows <= self.agents.upper))",
        "((rows > self.agents.lower) & (rows < self.agents.upper))", NEAREST_TESTS),
    "pool-scores-reversed": Mutant(
        "bench.py", "scores = list(pool.map(score, range(len(grid)), grid, chunksize=chunksize))",
        "scores = list(pool.map(score, range(len(grid)), grid, chunksize=chunksize))[::-1]",
        ("tests/test_bench.py::TestGridSearch",
         "perfbench/test_perfbench.py::test_protocol_records_do_not_depend_on_worker_count")),
}

#: The plugin each run loads with ``-p``: the tool's Hypothesis profile, and the check of the imported package.
PLUGIN = '''\
from pathlib import Path

import pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", database=None, deadline=None,
                          phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])
settings.load_profile("mutants")


def pytest_configure(config):
    import cooptile

    if Path(cooptile.__file__).resolve().parent != Path({package!r}):
        raise pytest.UsageError(f"imported cooptile from {{cooptile.__file__}}, not from {package!r}")
'''


def mutated_tree(work: Path, mutant: Mutant | None) -> None:
    """Write a fresh copy of ``src/`` under ``work`` holding ``mutant`` (or none), with the plugin beside it."""
    if work.exists():
        shutil.rmtree(work)
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    package = (src / "cooptile").resolve()
    if mutant is not None:
        path = package / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise SystemExit(f"mutants: the replaced text occurs {count} times in {mutant.file}: {mutant.old!r}")
        path.write_text(text.replace(mutant.old, mutant.new))
    (work / "mutants_plugin.py").write_text(PLUGIN.format(package=str(package)))


def run_tests(work: Path, tests: tuple[str, ...], seed: int) -> str | None:
    """Run ``tests`` against the tree at ``work`` at the Hypothesis ``seed``: None when they pass, else the first
    failing test; any other outcome (no test found, a usage error) ends the tool."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(work / "src"), str(work)]),
           "HYPOTHESIS_STORAGE_DIRECTORY": str(work / "hypothesis")}
    deselect = [arg for test in PINNED for arg in ("--deselect", test)]
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "mutants_plugin",
               f"--hypothesis-seed={seed}", *deselect, *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if done.returncode != 1 or failed is None:
        sys.stdout.write(done.stdout + done.stderr)
        raise SystemExit(f"mutants: pytest exited {done.returncode} on {' '.join(tests)}")
    return failed.group(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(MUTANTS), help="run this mutant alone")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated Hypothesis seeds (default: 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [args.only] if args.only else list(MUTANTS)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "tree"
        mutated_tree(work, None)
        every_test = tuple(dict.fromkeys(test for name in names for test in MUTANTS[name].tests))
        for seed in seeds:
            failed = run_tests(work, every_test, seed)
            if failed is not None:
                raise SystemExit(f"mutants: {failed} fails without a mutant (seed {seed})")
        survivors = []
        for name in names:
            mutant, clock = MUTANTS[name], time.perf_counter()
            mutated_tree(work, mutant)
            killers = []
            for seed in seeds:
                failed = run_tests(work, mutant.tests, seed)
                if failed is None:
                    survivors.append(name)
                    outcome = f"survived  {name:34}  {time.perf_counter() - clock:5.1f} s  passes at seed {seed}"
                    break
                killers.append(failed)
            else:
                by = ", ".join(dict.fromkeys(killers))
                outcome = f"killed    {name:34}  {time.perf_counter() - clock:5.1f} s  by {by}"
            print(outcome, flush=True)
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed at seeds {args.seeds} "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
