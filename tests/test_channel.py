import hashlib
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from helpers import brute_echo_passes
from bubblelink import channel
from bubblelink.channel import (
    ChannelParams,
    echo_passes,
    echo_table,
    mean_flow_velocity,
    sample_count,
    simulate,
)
from bubblelink.config import load_config
from bubblelink.errors import ResourceLimitError, ValidationError
from bubblelink.modem import InjectionEvent, InjectionSchedule, encode
from bubblelink.trace_io import read_schedule


def make_params(**overrides):
    base = dict(
        flow_rate=1.24,
        tube_diameter=0.009525,
        distance_to_sensor=0.5,
        loop_length=2.0,
        dispersion_coeff=0.05,
        initial_spread=0.05,
        pass_decay=0.35,
        echo_cutoff=0.05,
        noise_std=0.0,
        spike_rate=0.0,
        spike_amplitude_max=0.0,
        sample_interval=0.04,
        rng_seed=1,
    )
    base.update(overrides)
    return ChannelParams(**base)


def single_event_schedule(start=0.0, duration=0.3, dose=1.0):
    ev = InjectionEvent(start, duration, dose)
    return InjectionSchedule((ev,), start + duration)


class TestMeanFlowVelocity:
    def test_paper_setup_value(self):
        # independent arithmetic oracle
        q = 1.24e-3 / 60.0
        area = math.pi * 0.0047625**2
        expected = q / area
        got = mean_flow_velocity(1.24, 0.009525)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.2901, abs=5e-4)

    def test_scaling_symmetry(self):
        assert mean_flow_velocity(4 * 1.24, 2 * 0.009525) == pytest.approx(
            mean_flow_velocity(1.24, 0.009525), rel=1e-12
        )

    def test_unit_cross_section_identity(self):
        d = 0.1
        area = math.pi * d**2 / 4
        flow_lpm = area * 60.0 * 1000.0  # Q [m^3/s] equal to the area
        assert mean_flow_velocity(flow_lpm, d) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_degenerate_flow(self):
        with pytest.raises(ValidationError):
            mean_flow_velocity(0.0, 0.01)
        with pytest.raises(ValidationError):
            make_params(flow_rate=0.0)

    @pytest.mark.parametrize("diameter, velocity", [(1e308, 0.0), (1.7e308, 0.0), (1e-320, math.inf)])
    def test_area_past_the_float_range(self, diameter, velocity):
        assert mean_flow_velocity(1.24, diameter) == velocity


class TestPassDelay:
    def test_is_the_transit_formula(self):
        params = make_params()
        v = mean_flow_velocity(params.flow_rate, params.tube_diameter)
        assert params.pass_delay(0) == params.distance_to_sensor / v
        assert params.pass_delay(3) == (params.distance_to_sensor + 3 * params.loop_length) / v
        k = np.arange(5)
        assert np.array_equal(params.pass_delay(k),
                              (params.distance_to_sensor + k * params.loop_length) / v)

    def test_instance_holds_only_its_fields(self):
        params = make_params()
        params.pass_delay(0)
        assert list(vars(params)) == [f.name for f in fields(ChannelParams)]

    @pytest.mark.parametrize("flow_rate, diameter", [
        (1e-320, 0.009525), (1.24, 1e-320), (1.24, 1e-160), (1.24, 1e308), (1.24, 1.7e308),
    ])
    def test_velocity_not_finite_and_positive_is_refused(self, flow_rate, diameter):
        with pytest.raises(ValidationError, match="'channel.flow_rate' and 'channel.tube_diameter'"):
            make_params(flow_rate=flow_rate, tube_diameter=diameter)


class TestEchoPasses:
    def test_geometric_truncation(self):
        params = make_params(pass_decay=0.5, echo_cutoff=0.1)
        passes = echo_passes(InjectionEvent(0.0, 0.3, 2.0), params)
        assert len(passes) == 4
        amps = [a for _, a, _ in passes]
        assert amps == pytest.approx([2.0, 1.0, 0.5, 0.25])

    def test_echo_spacing_is_loop_time(self):
        params = make_params(pass_decay=0.5, echo_cutoff=0.01)
        v = mean_flow_velocity(params.flow_rate, params.tube_diameter)
        centers = [c for c, _, _ in echo_passes(InjectionEvent(0.0, 0.3, 1.0), params)]
        for a, b in zip(centers, centers[1:]):
            assert b - a == pytest.approx(params.loop_length / v, abs=1e-9)

    def test_no_decay_single_pass(self):
        passes = echo_passes(InjectionEvent(0.0, 0.3, 1.0), make_params(pass_decay=0.0))
        assert len(passes) == 1

    def test_mixed_doses_from_a_schedule_file(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("start_s,duration_s,dose\n0,0.3,1\n5,0.3,0.02\n9,0.2,7.5\n12,0.3,3e-5\n")
        schedule = read_schedule(path)
        params = make_params(pass_decay=0.35, echo_cutoff=0.05)
        expected = [brute_echo_passes(e, params) for e in schedule.events]
        assert [echo_passes(e, params) for e in schedule.events] == expected
        table = echo_table(schedule, params)
        assert list(zip(*(column.tolist() for column in table))) == [p for e in expected for p in e]

    @pytest.mark.parametrize("key", ["initial_spread", "dispersion_coeff"])
    @pytest.mark.parametrize("value", [1e308, 1.7e308, 1e307])
    def test_spread_that_overflows_is_refused(self, key, value):
        # 1e307 is finite, but its window of _ECHO_RADIUS sigmas is not
        params = make_params(**{key: value})
        with pytest.raises(ValidationError, match="'channel.initial_spread' or 'channel.dispersion_coeff'"):
            echo_table(single_event_schedule(), params)

    def test_paper_like_centres_and_sigmas_are_pinned(self):
        # SHA-256 of the float64 bytes of every centre, then every sigma: bench/digests.txt's
        # 9-digit trees can miss a change in their last bit. They take no exp or log, whose last
        # bit can vary with the host's SIMD level, so the digest is the same on every host.
        cfg = load_config(preset="paper-like")
        center, _, sigma = echo_table(encode(cfg.bits, cfg.timing, cfg.dose), cfg.channel)
        digest = hashlib.sha256(np.concatenate([center, sigma]).astype("<f8").tobytes())
        assert (len(center), digest.hexdigest()) == (
            150, "3763781f474cea848298f6196667cf236a2d4220d82d7a03b54a5521e3cf76d5")

    def test_cutoff_above_one_keeps_no_pass(self):
        params = make_params(echo_cutoff=1.5)
        schedule = single_event_schedule(duration=0.3)
        assert echo_passes(schedule.events[0], params) == []
        trace = simulate(schedule, params)
        assert len(trace) == sample_count(schedule.total_span, params)
        assert np.all(trace.samples == 0.0)


class TestSimulate:
    def test_single_pulse_geometry(self):
        params = make_params(pass_decay=0.0)
        trace = simulate(single_event_schedule(), params)
        v = mean_flow_velocity(params.flow_rate, params.tube_diameter)
        center = 0.15 + params.distance_to_sensor / v
        argmax_time = trace.bin_centers()[int(np.argmax(trace.samples))]
        assert abs(argmax_time - center) <= params.sample_interval

    def test_empty_schedule_minimal_zero_trace(self):
        trace = simulate(InjectionSchedule((), 0.0), make_params())
        assert len(trace) == 1
        assert np.all(trace.samples == 0.0)

    def test_span_covers_last_echo(self):
        params = make_params()
        sched = single_event_schedule()
        passes = echo_passes(sched.events[0], params)
        center, _, sigma = passes[-1]
        trace = simulate(sched, params)
        assert len(trace) * params.sample_interval >= center + 4 * sigma - params.sample_interval

    def test_builds_the_echo_table_once(self):
        with mock.patch.object(channel, "echo_table", wraps=channel.echo_table) as table:
            simulate(single_event_schedule(), make_params())
        assert table.call_count == 1

    def test_determinism(self):
        params = make_params(noise_std=0.1, spike_rate=0.5, spike_amplitude_max=1.0, rng_seed=99)
        sched = single_event_schedule()
        a = simulate(sched, params)
        b = simulate(sched, params)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_noise(self):
        params1 = make_params(noise_std=0.1, rng_seed=1)
        params2 = make_params(noise_std=0.1, rng_seed=2)
        sched = single_event_schedule()
        assert not np.array_equal(simulate(sched, params1).samples, simulate(sched, params2).samples)

    def test_superposition_noise_off(self):
        # schedules padded to a common span so the simulated windows line up
        params = make_params()
        span = 30.3
        ev_a = InjectionEvent(0.0, 0.3, 1.0)
        ev_b = InjectionEvent(30.0, 0.3, 1.0)
        a = InjectionSchedule((ev_a,), span)
        b = InjectionSchedule((ev_b,), span)
        union = InjectionSchedule((ev_a, ev_b), span)
        ta = simulate(a, params).samples
        tb = simulate(b, params).samples
        tu = simulate(union, params).samples
        n = max(len(ta), len(tb), len(tu))
        pad = lambda x: np.pad(x, (0, n - len(x)))
        assert np.max(np.abs(pad(ta) + pad(tb) - pad(tu))) <= 1e-9

    def test_mass_decay_ordering(self):
        # dispersion off: pulse widths stay equal so integrals scale by pass_decay
        params = make_params(pass_decay=0.5, echo_cutoff=0.01, dispersion_coeff=0.0)
        sched = single_event_schedule()
        trace = simulate(sched, params)
        t = trace.bin_centers()
        masses = []
        for center, _, sigma in echo_passes(sched.events[0], params):
            m = (t >= center - 4 * sigma) & (t <= center + 4 * sigma)
            masses.append(trace.samples[m].sum() * params.sample_interval)
        for prev, cur in zip(masses, masses[1:]):
            assert cur < prev
            assert cur / prev == pytest.approx(params.pass_decay, rel=0.01)

    def test_mass_decay_ordering_with_dispersion(self):
        params = make_params(pass_decay=0.35, echo_cutoff=0.02)
        sched = single_event_schedule()
        trace = simulate(sched, params)
        t = trace.bin_centers()
        masses = []
        for center, _, sigma in echo_passes(sched.events[0], params):
            m = (t >= center - 4 * sigma) & (t <= center + 4 * sigma)
            masses.append(trace.samples[m].sum() * params.sample_interval)
        for prev, cur in zip(masses, masses[1:]):
            assert cur < prev

    def test_noise_floor_clamped_gaussian_mean(self):
        # push the pulse far out so the first 1e5 bins are pure clamped noise
        params = make_params(noise_std=0.2, rng_seed=5)
        sched = single_event_schedule(start=4000.0)
        trace = simulate(sched, params)
        n = 100_000
        samples = trace.samples[:n]
        expected = params.noise_std / math.sqrt(2 * math.pi)  # E[max(N(0,s), 0)]
        assert abs(samples.mean() - expected) <= 3 * params.noise_std / math.sqrt(n)

    def test_sample_cap(self):
        params = make_params(max_samples=100)
        with pytest.raises(ResourceLimitError):
            simulate(single_event_schedule(start=100.0), params)

    def test_echo_table_stops_at_the_sample_cap(self):
        # 0.999**k keeps about 3,000 passes 6.9 s apart; 1,000 samples end at 40 s
        params = make_params(pass_decay=0.999, max_samples=1000)
        with pytest.raises(ResourceLimitError, match="channel.max_samples cap of 1000$"):
            echo_table(single_event_schedule(), params)

    @pytest.mark.parametrize("length", [0, 10, 57])
    def test_config_cap_refuses_only_what_simulate_refuses(self, length):
        def load(cap):
            overrides = {"bits.length": str(length), "channel.max_samples": str(cap)}
            return load_config(preset="paper-like", overrides=overrides)

        cfg = load(10**6)
        schedule = encode(cfg.bits, cfg.timing, cfg.dose)
        load(len(simulate(schedule, cfg.channel)))  # simulate's own sample count passes
        # one sample short of the schedule's span is refused before any bits are drawn
        span_samples = math.ceil(schedule.total_span / cfg.channel.sample_interval - 1e-9)
        with pytest.raises(ResourceLimitError, match="channel.max_samples cap"):
            load(span_samples - 1)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            make_params(pass_decay=1.0)
        with pytest.raises(ValidationError):
            make_params(echo_cutoff=0.0)
        with pytest.raises(ValidationError):
            make_params(distance_to_sensor=3.0)  # beyond loop_length
        with pytest.raises(ValidationError):
            make_params(noise_std=-0.1)
        with pytest.raises(ValidationError, match=r"'channel\.rng_seed' must be non-negative"):
            make_params(rng_seed=-1)
