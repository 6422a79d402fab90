"""The artifacts of ``pssf simulate --model`` and ``pssf sweep`` do not depend on the BLAS kernel.

The closed loop runs on Python floats, each sum of products one left-to-right
chain from 0.0, so no number a rollout, a delta trace or a certificate writes
goes through a BLAS summation order. Each run here is a fresh process with
``OPENBLAS_CORETYPE`` forcing one of OpenBLAS's kernels; their output
directories must be identical byte for byte, and so must two runs on one
kernel. ``pssf learn`` is left out: its ridge fit still calls
``np.linalg.lstsq``, which runs on the kernel, so a learned model's last bits
(and the loop that amplifies them) still depend on it.
"""

import filecmp
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
# Each kernel with the CPU flags it needs; a kernel the CPU lacks is not forced.
KERNEL_FLAGS = {"SkylakeX": {"avx512f"}, "Haswell": {"avx2", "fma"}, "Prescott": {"pni"}}


def _openblas_kernels() -> list:
    """The kernels this CPU runs, if numpy uses OpenBLAS on x86-64; otherwise none."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return []
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        flags = next(line for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("flags")).split(":", 1)[1].split()
    except (KeyError, TypeError, OSError, StopIteration):
        return []
    if "openblas" not in str(blas.get("name", "")).lower():
        return []
    return [kernel for kernel, needs in KERNEL_FLAGS.items() if needs <= set(flags)]


KERNELS = _openblas_kernels()


def _run(kernel: str, out: Path, config: Path) -> None:
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for args in (["simulate", "--config", str(config), "--model", str(REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json"),
                  "--out", str(out / "simulate")],
                 ["sweep", "--config", str(config), "--param", "barrier.alpha.k", "--values", "0.5,1",
                  "--out", str(out / "sweep")]):
        subprocess.run([sys.executable, "-m", "pssf", *args], env=env, check=True, capture_output=True, timeout=300)


def _files(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.skipif(len(KERNELS) < 2, reason="needs numpy on OpenBLAS, on an x86-64 CPU that runs two of its kernels")
def test_artifacts_identical_across_kernels(tmp_path):
    config = tmp_path / "short.yaml"
    config.write_text("run: {duration: 0.5}\n")
    runs = [(kernel, tmp_path / kernel) for kernel in KERNELS] + [(KERNELS[0], tmp_path / "again")]
    for kernel, out in runs:
        _run(kernel, out, config)
    first = runs[0][1]
    files = _files(first)
    assert len(files) == 8 + 1 + 2 * 5  # simulate with a model, then sweep.csv and two runs without one
    for _, out in runs[1:]:
        assert _files(out) == files
        for rel in files:
            assert filecmp.cmp(first / rel, out / rel, shallow=False), f"{out.name}: {rel} differs"
