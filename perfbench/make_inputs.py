"""Regenerate the benchmark's committed inputs under ``perfbench/inputs/``.

Usage, from the repository root (takes about 20 s):

    python3 perfbench/make_inputs.py

* ``model_seed0.json``: the residual model ``learn_artifacts`` makes from
  ``configs/benchmark.yaml`` with ``run.seed`` 0; ``simulate_learned`` loads
  it the way ``pssf simulate --model`` does.
* ``model_seed0.provenance.json``: how and at which commit the model was
  made, its training summary and its SHA-256, which the runner verifies.
* ``reference.json``: the no-learning ``delta_bar``, ``floor`` and ``min_h``
  of ``simulate_artifacts`` on the same config. The runner requires them to
  within ``rel_tol``. They do not depend on the seed, because the benchmark
  config has no controller excitation. Regenerate them only with a change
  that is meant to alter these numbers.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = "configs/benchmark.yaml"
# Refactors keep benchmark numbers within 1e-12; this leaves room for a
# reordered floating-point sum without hiding a change of result.
REL_TOL = 1e-9


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from pssf.config import load_config
    from pssf.ioutil import write_json
    from pssf.scenario import learn_artifacts, simulate_artifacts
    from perfbench.run import git_sha

    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    cfg = load_config(ROOT / CONFIG)
    cfg["run"]["seed"] = 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        summary = learn_artifacts(cfg, Path(tmp) / "learn")
        shutil.copyfile(Path(tmp) / "learn" / "model.json", inputs / "model_seed0.json")
        no_learning = simulate_artifacts(cfg, Path(tmp) / "simulate")["no_learning"]
    sha = git_sha(ROOT)
    write_json(inputs / "model_seed0.provenance.json", {
        "command": "python3 perfbench/make_inputs.py",
        "function": "pssf.scenario.learn_artifacts",
        "config": CONFIG,
        "seed": 0,
        "git_sha": sha,
        "learn_summary": summary,
        "sha256": hashlib.sha256((inputs / "model_seed0.json").read_bytes()).hexdigest(),
    })
    write_json(inputs / "reference.json", {
        "command": "python3 perfbench/make_inputs.py",
        "config": CONFIG,
        "git_sha": sha,
        "rel_tol": REL_TOL,
        "no_learning": {key: no_learning[key] for key in ("delta_bar", "floor", "min_h")},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
