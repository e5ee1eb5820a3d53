"""The compute core: ``run_experiment`` computes every branch without touching disk."""

import builtins
import io
import os
from unittest import mock

import numpy as np

from bubblelink.config import BRANCHES, load_config
from bubblelink.pipeline import run_experiment, run_pipeline


def test_run_experiment_touches_no_disk(tmp_path):
    cfg = load_config(preset="paper-like")  # first: the preset is read from package data

    def refuse(*args, **kwargs):
        raise AssertionError(f"run_experiment touched the disk: {args!r}")

    with mock.patch.object(builtins, "open", refuse), mock.patch.object(io, "open", refuse), \
            mock.patch.object(os, "open", refuse), mock.patch.object(os, "makedirs", refuse), \
            mock.patch.object(os, "mkdir", refuse):
        result = run_experiment(cfg)

    written = run_pipeline(cfg, tmp_path / "run")
    assert list(result.branches) == list(written) == list(BRANCHES)
    assert result.bits == cfg.bits
    for name, res in result.branches.items():
        other = written[name]
        assert res.report == other.report, name
        assert res.match == other.match, name
        assert (res.decoded, res.decode_delay, res.threshold, res.warning) == (
            other.decoded, other.decode_delay, other.threshold, other.warning), name
        assert res.peaks.table[:, 0].tolist() == other.peaks.table[:, 0].tolist(), name
        assert np.array_equal(res.trace.samples, other.trace.samples), name
