"""Every canonical artifact of a small ``pipeline`` run, pinned by sha256, on
the pure-Python twin and on the ``build`` fixture's compiled kernel.

The digests were taken at commit 7e32e35, when the fold pool ran on both
backends. A change that moves any number on purpose (an rng draw, a sum
order, a numpy upgrade that changes ``Generator.permutation``) updates
them and says why in CHANGES.md. The ``*_config.txt`` files record
``--out`` and ``evaluate_timing.json`` records wall time, so both are left
out.
"""

import hashlib
import warnings

import pytest

from swarmids import classifier
from swarmids._kernels import _hinge_sgd_py
from swarmids.cli import main
from swarmids.errors import DataWarning

from _synth import make_kdd_csv

PIPELINE = ["pipeline", "--data", "corpus.csv", "--out", "out", "--seed", "5",
            "--subsample", "900", "--folds", "3", "--pop", "8", "--iters", "5",
            "--epochs", "5", "--fitness-epochs", "2", "--threads", "2"]

PINNED = {
    "evaluate_accuracy.svg": "396858ddf8e6c1c1a724c147f6dd48f0516a38f828952fd9713999eb48b613e7",
    "evaluate_confusion.csv": "edcdd8dab467763bf25eb06b92fafb52f7359ff682522991cbc412728c889479",
    "evaluate_fnr.svg": "481d86e1bbbd8f4e8605d2aa703b6d9069e6cac21b8c44d6946d9e05f4f11c74",
    "evaluate_fpr.svg": "33e07d93399a714f631a1540c1a77fcec9b63537b06804527e7f5b620df6cce9",
    "evaluate_report.json": "2b378402942da0d82b461c2ea53b0c037d0c0370cc72eba93de4528bc5ec1f6e",
    "evaluate_tnr.svg": "245161d14ff46b40afb69360a213de300b35de0cdce13b6bd2fff859c5903452",
    "evaluate_tpr.svg": "9d8b4ad36ae4d65c62f1b957bc68d0361a1045eb238edfed2efe6e687f1549c1",
    "prepare_class_histogram.csv": "d0edd5d9081334e7e6bde9446a26def2c4b985434a08c21b51fa64e3bf006653",
    "prepare_data.csv": "c7eac0a56274cdeb7c406ea08f2e3bcb4a0e1b3d136043fe7bafde57ed4b4fba",
    "prepare_encoded.csv": "5f0eaaf6c763bf8b8ee16d808217f8f43aadd38ba2b6e0d6c87997942c730529",
    "prepare_encoding.txt": "2feac3e050fad48904364a6c11ce1c2ff1f3b26c8aa9fcd092911d8943ebbd75",
    "prepare_norm_stats.txt": "0d2529fa096ab58b391719b2c94d30bc0eb23057956aa7efde5c7bc129687ae2",
    "select_convergence.svg": "bfe3b24c2e24dd2211f2bbff12696584010f8b107b45fc84eaeda95e5f2e160e",
    "select_history.csv": "a157f894fe4a0f4bde7f318d4115941a5d6189b0e4c9e71ddfcccd9d0cf75ecd",
    "select_mask.txt": "70658be70a56d3c1f519b58d184d0abd7289d544f59be1d59cff72b485d4aa65",
    "select_trace.csv": "f0987edc8daf67a811a323f057fce7cb01a996cfe61950ede4f95e1a38f0f4d1",
}


@pytest.fixture(scope="module")
def corpus() -> str:
    return make_kdd_csv(1500, seed=7)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_pipeline_artifacts_pinned(tmp_path, monkeypatch, build, corpus, backend):
    train = _hinge_sgd_py.hinge_train if backend == "python" else build[0]
    if train is None:
        pytest.skip("compiled backend not built")
    monkeypatch.setattr(classifier, "hinge_train", train)
    (tmp_path / "corpus.csv").write_text(corpus, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # a relative --data, so the config digest is fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        assert main(PIPELINE) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
        if not path.name.endswith("_config.txt") and path.name != "evaluate_timing.json"
    }
    assert digests == PINNED
