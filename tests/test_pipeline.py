"""The compute core: ``run_experiment`` computes every branch without touching disk."""

import builtins
import io
import os
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from bubblelink import modem, signals
from bubblelink.cli import main
from bubblelink.config import BRANCHES, load_config
from bubblelink.modem import InjectionSchedule
from bubblelink.pipeline import run_experiment, run_pipeline
from bubblelink.signals import PeakSet


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


def test_rows_are_read_only_through_table(tmp_path, monkeypatch):
    # schedules and peak sets store their float table alone; the named-tuple views are
    # built on access, and no stage of a run or of the staged commands asks for them
    assert [f.name for f in fields(PeakSet)] == ["table"]
    assert [f.name for f in fields(InjectionSchedule)] == ["table", "total_span"]

    def refuse(cls, table):
        raise AssertionError(f"{cls.__name__} rows were built")

    monkeypatch.setattr(signals, "named_rows", refuse)
    monkeypatch.setattr(modem, "named_rows", refuse)
    with pytest.raises(AssertionError, match="Peak rows"):
        PeakSet(()).peaks
    with pytest.raises(AssertionError, match="InjectionEvent rows"):
        InjectionSchedule((), 0.0).events

    run = tmp_path / "run"
    run_pipeline(load_config(preset="paper-like"), run)
    staged = [
        "encode --preset paper-like --out {tmp}/s.csv",
        "simulate --preset paper-like --schedule {tmp}/s.csv --out {tmp}/t.csv",
        "filter --preset paper-like --method kalman --in {tmp}/t.csv --out {tmp}/k.csv",
        "detect --preset paper-like --branch kalman --in {tmp}/k.csv --out {tmp}/p.csv",
        "decode --preset paper-like --peaks {run}/kalman_peaks.csv --delay 1.7 --n-bits 104 "
        "--out {tmp}/bits.txt",
        "evaluate --peaks {run}/raw_peaks.csv --truth {run}/schedule.csv --truth-shift 1.7 "
        "--out {tmp}/report.csv",
        "plot --trace {run}/raw_trace.csv --peaks {run}/raw_peaks.csv --truth {run}/schedule.csv "
        "--out {tmp}/plot.svg",
    ]
    for argv in staged:
        assert main(argv.format(tmp=tmp_path, run=run).split()) == 0, argv
