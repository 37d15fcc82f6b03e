import math

import numpy as np
import pytest

from bandscope import (
    DirectivityModel,
    DistanceProfile,
    Signal,
    SynthCampaignSpec,
    decompose,
    directivity_gain,
    measured_level_curve,
    mean_level_dbfs,
    spectral_balance,
    synth_campaign,
    theoretical_amplification,
    weight_evolution,
)
from bandscope.errors import (
    DuplicateDistanceError,
    InvalidInputError,
    InvalidSpecError,
    MappingMismatchError,
    MissingReferenceError,
    SilenceError,
)

FS = 44100


def _recordings(stimulus, distances, model=None, profile=None, bank=None):
    """The recordings of a campaign at ``distances`` plus the 100 cm
    reference, by distance."""
    spec = SynthCampaignSpec(stimulus=stimulus, distances_cm=sorted({*distances, 100.0}),
                             model=model or DirectivityModel.omni(), profile=profile)
    series, _ = synth_campaign(spec, bank)
    by_distance = dict(zip(series.distances, series.recordings))
    return {d: by_distance[d] for d in distances}


@pytest.fixture
def no_recording(monkeypatch):
    """Fail the test if the campaign decomposes the stimulus, as every
    profiled recording does."""
    from bandscope import synthfield

    def decompose(*args, **kwargs):
        raise AssertionError("a recording was synthesized")

    monkeypatch.setattr(synthfield, "decompose", decompose)


class TestDirectivity:
    def test_on_axis_unity_for_any_m(self):
        for m in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0):
            assert directivity_gain(DirectivityModel(m), 0.0) == 1.0

    def test_cardioid_rear_null(self):
        assert directivity_gain(DirectivityModel.cardioid(), math.pi) == 0.0

    def test_bidirectional_side_null(self):
        gain = directivity_gain(DirectivityModel.bidirectional(), math.pi / 2)
        assert abs(gain) < 1e-15

    def test_omni_ignores_angle(self):
        model = DirectivityModel.omni()
        for theta in np.linspace(0, 2 * math.pi, 17):
            assert directivity_gain(model, theta) == 1.0

    @pytest.mark.parametrize("theta, message", [
        ("0.1", 'theta_rad must be a number, got "0.1"'),
        (math.nan, "theta_rad must be finite, got nan"),
        (-math.inf, "theta_rad must be finite, got -inf"),
    ], ids=["text", "nan", "minus-inf"])
    def test_angle_is_a_finite_number(self, theta, message):
        # worded as SynthCampaignSpec words the same angle
        with pytest.raises(InvalidInputError, match=message):
            directivity_gain(DirectivityModel.cardioid(), theta)

    def test_m_bounds(self):
        with pytest.raises(InvalidInputError):
            DirectivityModel(1.5)
        with pytest.raises(InvalidInputError):
            DirectivityModel(-0.1)

    def test_labels(self):
        assert DirectivityModel.omni().label == "omni"
        assert DirectivityModel.cardioid().label == "cardioid"
        assert DirectivityModel.bidirectional().label == "bidirectional"


class TestDistanceProfile:
    def test_interpolation_and_extrapolation_hold(self, white_2s, ids10_bank_fast):
        prof = DistanceProfile(bands={0: ((10.0, 6.0), (20.0, 0.0))})
        spec = SynthCampaignSpec(stimulus=white_2s, distances_cm=(50, 5, 15, 100), profile=prof)
        _, truth = synth_campaign(spec, ids10_bank_fast)
        assert truth.distances_cm == (5.0, 15.0, 50.0, 100.0)
        assert truth.gains_db.shape == (4, ids10_bank_fast.n_bands)
        # the end values hold on either side of the breakpoints
        assert truth.gains_db[:, 0].tolist() == pytest.approx([6.0, 3.0, 0.0, 0.0])
        assert not truth.gains_db[:, 1:].any()  # an unlisted band is flat
        assert not (truth.gains_db.flags.writeable or truth.band_energy.flags.writeable)

    def test_sorts_unsorted_breakpoints(self):
        prof = DistanceProfile(bands={0: ((20.0, 0.0), (10.0, 6.0))})
        assert prof == DistanceProfile(bands={0: ((10.0, 6.0), (20.0, 0.0))})

    def test_rejects_nonfinite_gain(self):
        with pytest.raises(InvalidInputError):
            DistanceProfile(bands={0: ((10.0, math.inf),)})

    def test_rejects_a_gain_a_wav_cannot_carry(self):
        # numbered from 1 in messages, as ground_truth.csv numbers bands
        with pytest.raises(InvalidInputError, match=r"band 2 gain must be within ±300 dB"):
            DistanceProfile(bands={1: ((10.0, 1e308),)})

    @pytest.mark.parametrize("bands, message", [
        (None, "profile bands must be a mapping, got None"),
        ([(0, ((10.0, 0.0),))], r"profile bands must be a mapping, got \[\(0"),
        ({1.5: ((10.0, 0.0),)}, "band index must be a whole number, got 1.5"),
        ({"2": ((10.0, 0.0),)}, 'band index must be a number, got "2"'),
        ({True: ((10.0, 0.0),)}, "band index must be a number, got true"),
        ({-1: ((10.0, 0.0),)}, "band index must be an integer >= 0, got -1"),
        ({1: [(5, 3.0, 9)]}, r"band 2: breakpoints must be \(distance_cm, gain_db\) pairs"),
        ({1: 5}, r"band 2: breakpoints must be \(distance_cm, gain_db\) pairs, got 5"),
        ({1: [("near", 3.0)]}, r"band 2: breakpoints must be \(distance_cm, gain_db\) pairs"),
        ({0: ()}, "band 1: empty breakpoint list"),
        ({0: ((math.nan, 0.0), (10.0, 0.0))},
         "band 1: breakpoint: distance must be finite and >= 0 cm, got nan"),
        ({0: ((10.0, 0.0), (10.0, 1.0))}, r"band 1: breakpoint: duplicate distance\(s\) \[10.0\]"),
    ], ids=["none", "list-of-pairs", "float-index", "str-index", "bool-index", "negative-index",
            "triple", "not-a-list", "str-distance", "no-breakpoint", "nan-distance",
            "repeated-distance"])
    def test_rejects_what_is_not_a_profile(self, bands, message):
        # a repeated distance is a DuplicateDistanceError, as in every set of distances
        error = DuplicateDistanceError if "duplicate" in message else InvalidInputError
        with pytest.raises(error, match=message):
            DistanceProfile(bands)


class TestSynthRecording:
    """One recording of a campaign: the stimulus times x_ref/x and D(theta),
    shaped per band by the profile."""

    def test_identity_at_reference(self, white_2s):
        out = _recordings(white_2s, [100.0])[100.0]
        np.testing.assert_allclose(out.samples, white_2s.samples, atol=1e-9)

    def test_half_distance_is_plus_6db(self, white_2s):
        out = _recordings(white_2s, [50.0])[50.0]
        delta = mean_level_dbfs(out) - mean_level_dbfs(white_2s)
        assert delta == pytest.approx(6.0206, abs=1e-4)

    def test_inverse_distance_composition(self, white_2s):
        d1, d2 = 40.0, 10.0
        out = _recordings(white_2s, [d1, d2])
        np.testing.assert_allclose(out[d1].scaled(d1 / d2).samples, out[d2].samples,
                                   atol=1e-9)

    def test_on_axis_output_independent_of_m(self, white_2s):
        outs = [
            _recordings(white_2s, [25.0], model=DirectivityModel(m))[25.0].samples
            for m in (0.0, 0.3, 1.0)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_distance_singularity(self, white_2s):
        with pytest.raises(InvalidSpecError, match="positive"):
            SynthCampaignSpec(stimulus=white_2s, distances_cm=(0.0, 100.0))

    def test_profile_requires_bank(self, white_2s, no_recording):
        prof = DistanceProfile(bands={0: ((5.0, 6.0),)})
        with pytest.raises(InvalidInputError, match="needs a filter bank"):
            _recordings(white_2s, [50.0], profile=prof)

    def test_profile_band_out_of_range(self, white_2s, ids10_bank_fast, no_recording):
        prof = DistanceProfile(bands={10: ((5.0, 6.0),)})
        # numbered from 1, as ground_truth.csv numbers bands
        with pytest.raises(MappingMismatchError, match="addresses band 11 but the bank has 10"):
            _recordings(white_2s, [50.0], profile=prof, bank=ids10_bank_fast)

    def test_flat_profile_is_identity(self, white_2s, ids10_bank_fast):
        prof = DistanceProfile(bands={i: ((5.0, 0.0), (100.0, 0.0)) for i in range(10)})
        out = _recordings(white_2s, [100.0], profile=prof, bank=ids10_bank_fast)[100.0]
        # complementary bank: scaling every band by 1 and resumming is exact
        np.testing.assert_allclose(out.samples, white_2s.samples, atol=1e-9)


class TestProfiledCampaignWork:
    """A profiled campaign transforms its stimulus once and splits it once
    per recording plus once for the truth's band energies."""

    DISTANCES = (5.0, 25.0, 50.0, 100.0)
    PROFILE = DistanceProfile(bands={0: ((5.0, 8.0), (50.0, 0.0)),
                                     3: ((5.0, -6.0), (25.0, 0.0))})

    def _campaign(self, stimulus, bank):
        spec = SynthCampaignSpec(stimulus=stimulus, distances_cm=self.DISTANCES,
                                 model=DirectivityModel.cardioid(), theta_rad=0.3,
                                 profile=self.PROFILE)
        return synth_campaign(spec, bank)

    def test_one_block_transform_and_a_split_per_recording(self, white_2s, ids10_bank_fast,
                                                           monkeypatch):
        from bandscope import filterbank, synthfield

        block_transforms, splits = [], []
        rfft, decompose = filterbank.rfft, synthfield.decompose

        def counted_rfft(a, *args, **kwargs):
            if np.ndim(a) == 2:  # a batch of input blocks, not a band's response
                block_transforms.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        def counted_decompose(*args, **kwargs):
            splits.append(args[1])
            return decompose(*args, **kwargs)

        monkeypatch.setattr(filterbank, "rfft", counted_rfft)
        monkeypatch.setattr(synthfield, "decompose", counted_decompose)
        self._campaign(white_2s, ids10_bank_fast)
        assert len(block_transforms) == 1
        assert len(splits) == len(self.DISTANCES) + 1
        assert all(split is white_2s for split in splits)

    def test_row_flat_in_every_band_is_the_scaled_stimulus(self, white_2s, ids10_bank_fast):
        series, _ = self._campaign(white_2s, ids10_bank_fast)
        recordings = dict(zip(series.distances, series.recordings))
        d_gain = directivity_gain(DirectivityModel.cardioid(), 0.3)
        for d in (50.0, 100.0):  # past every breakpoint that is not 0 dB
            want = white_2s.scaled((100.0 / d) * d_gain).samples
            assert recordings[d].samples.tobytes() == want.tobytes()

    def test_shaped_rows_equal_the_sum_of_scaled_subbands(self, white_2s, ids10_bank_fast):
        # the recordings are what the truth's table says was injected
        series, truth = self._campaign(white_2s, ids10_bank_fast)
        recordings = dict(zip(series.distances, series.recordings))
        subbands = decompose(ids10_bank_fast, white_2s)
        d_gain = directivity_gain(DirectivityModel.cardioid(), 0.3)
        for d in (5.0, 25.0):
            gains = 10.0 ** (truth.gains_db[truth.distances_cm.index(d)] / 20.0)
            want = (100.0 / d) * d_gain * sum(g * sub for g, sub in zip(gains, subbands))
            np.testing.assert_allclose(recordings[d].samples, want,
                                       rtol=0, atol=1e-13 * np.abs(want).max())


class TestSynthCampaign:
    def test_flat_campaign_closes_loop_with_level_analysis(self, white_2s, ids10_bank_fast):
        spec = SynthCampaignSpec(
            stimulus=white_2s,
            distances_cm=(5, 10, 20, 50, 100),
            model=DirectivityModel.cardioid(),
            theta_rad=0.5,
        )
        series, truth = synth_campaign(spec)
        assert truth.gains_db.shape == (5, 0)  # no profile, no band gains
        points = measured_level_curve(series.measure(ids10_bank_fast, 100.0))
        assert [p.distance_cm for p in points] == [5.0, 10.0, 20.0, 50.0, 100.0]
        for p in points:
            assert p.amplification_db == pytest.approx(
                theoretical_amplification(p.distance_cm, 100), abs=1e-9)

    def test_empty_distances_rejected(self, white_2s):
        with pytest.raises(InvalidSpecError):
            SynthCampaignSpec(stimulus=white_2s, distances_cm=())

    def test_duplicate_distances_rejected(self, white_2s):
        with pytest.raises(DuplicateDistanceError):
            SynthCampaignSpec(stimulus=white_2s, distances_cm=(5, 5, 100))

    def test_reference_must_be_in_distances(self, white_2s):
        with pytest.raises(MissingReferenceError):
            SynthCampaignSpec(stimulus=white_2s, distances_cm=(5, 10))

    def test_profile_recovery_round_trip(self, white_2s, ids10_bank):
        prof = DistanceProfile(
            bands={
                0: ((5.0, 8.0), (25.0, 4.0), (50.0, 0.0), (100.0, 0.0)),
                4: ((5.0, -6.0), (50.0, 0.0), (100.0, 0.0)),
            }
        )
        spec = SynthCampaignSpec(
            stimulus=white_2s,
            distances_cm=(5, 25, 50, 100),
            profile=prof,
        )
        series, truth = synth_campaign(spec, ids10_bank)
        curves = weight_evolution(series.measure(ids10_bank, 100.0))
        for band in range(ids10_bank.n_bands):
            got = dict(curves[band].points)
            for d in (5.0, 25.0, 50.0, 100.0):
                assert got[d] == pytest.approx(
                    truth.expected_delta(band, d), abs=0.3
                )

    def test_expected_delta_is_the_closed_form(self, white_2s, ids10_bank_fast):
        # each band's gain against the reference's, less the dB change of the
        # total energy the weights are shares of
        prof = DistanceProfile(bands={0: ((5.0, 8.0), (50.0, 0.0)),
                                      6: ((5.0, -6.0), (25.0, 1.5))})
        distances = (5.0, 10.0, 25.0, 50.0, 100.0)
        spec = SynthCampaignSpec(stimulus=white_2s, distances_cm=distances, profile=prof)
        _, truth = synth_campaign(spec, ids10_bank_fast)
        energy = spectral_balance(white_2s, ids10_bank_fast).band_energies

        def gains(d):
            return [float(np.interp(d, *zip(*prof.bands[b]))) if b in prof.bands else 0.0
                    for b in range(len(energy))]

        def total_db(d):
            return 10.0 * math.log10(sum(e * 10.0 ** (g / 10.0) for e, g in zip(energy, gains(d))))

        for d in distances:
            renorm = total_db(d) - total_db(100.0)
            for b, (g, g_ref) in enumerate(zip(gains(d), gains(100.0))):
                assert truth.expected_delta(b, d) == pytest.approx(g - g_ref - renorm,
                                                                   rel=0, abs=1e-12)
        for band, d in ((len(energy), 5.0), (-1, 5.0), (0, 7.0), ("1", 5.0)):
            with pytest.raises(KeyError):
                truth.expected_delta(band, d)
        # matched by ==, as a band number and a distance are everywhere
        assert truth.expected_delta(True, 5) == truth.expected_delta(1.0, 5.0) == \
            truth.expected_delta(np.int64(1), np.float64(5.0))

    def test_ground_truth_csv_schema(self, white_2s, ids10_bank_fast):
        prof = DistanceProfile(bands={0: ((5.0, 8.0), (100.0, 0.0))})
        spec = SynthCampaignSpec(
            stimulus=white_2s, distances_cm=(5, 100), profile=prof
        )
        _, truth = synth_campaign(spec, ids10_bank_fast)
        lines = truth.to_csv().strip().split("\n")
        assert lines[0] == "band,distance_cm,injected_gain_db"
        assert len(lines) == 1 + 2 * ids10_bank_fast.n_bands
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 5.0 and float(first[2]) == 8.0


class TestOffAxisCampaign:
    def test_rear_lobe_polarity_flip_keeps_levels(self, white_2s):
        # bidirectional at 120 degrees: gain cos(2pi/3) = -0.5, a polarity
        # flip with a 6 dB level drop
        spec = SynthCampaignSpec(
            stimulus=white_2s, distances_cm=(50, 100),
            model=DirectivityModel.bidirectional(), theta_rad=2 * math.pi / 3,
        )
        series, truth = synth_campaign(spec)
        rec = series.recordings[series.distances.index(100.0)]
        np.testing.assert_allclose(rec.samples, -0.5 * white_2s.samples, atol=1e-12)
        assert mean_level_dbfs(rec) - mean_level_dbfs(white_2s) == pytest.approx(
            20.0 * math.log10(0.5), abs=1e-9)
        assert truth.to_csv() == "band,distance_cm,injected_gain_db\n"

    def test_directivity_null_rejected(self, white_2s):
        with pytest.raises(InvalidSpecError):
            SynthCampaignSpec(
                stimulus=white_2s, distances_cm=(50, 100),
                model=DirectivityModel.cardioid(), theta_rad=math.pi,
            )

    def test_directivity_null_rejected_before_any_recording(self, white_2s, no_recording):
        with pytest.raises(InvalidSpecError, match="directivity null at theta=3.14159"):
            SynthCampaignSpec(
                stimulus=white_2s, distances_cm=(50, 100),
                model=DirectivityModel.cardioid(), theta_rad=math.pi,
                profile=DistanceProfile(bands={0: ((50.0, 6.0), (100.0, 0.0))}),
            )

    def test_gain_that_underflows_to_0_rejected(self, white_2s):
        # x_ref/x = 1e-308 is finite and positive; times cos(pi/2) it is 0
        with pytest.raises(InvalidSpecError, match=r"distance 1e\+08 cm"):
            SynthCampaignSpec(
                stimulus=white_2s, distances_cm=(1e-300, 1e8), reference_distance_cm=1e-300,
                model=DirectivityModel.bidirectional(), theta_rad=math.pi / 2,
            )

    def test_silent_stimulus_rejected_before_any_recording(self, no_recording):
        with pytest.raises(SilenceError, match="stimulus is silent"):
            SynthCampaignSpec(
                stimulus=Signal(np.zeros(FS // 10), FS), distances_cm=(50, 100),
                profile=DistanceProfile(bands={0: ((50.0, 3.0), (100.0, 0.0))}),
            )

    def test_stimulus_whose_mean_power_underflows_is_silent(self, no_recording):
        # nonzero samples, but 1e-200 squared is 0: the meter reads -inf
        with pytest.raises(SilenceError, match="stimulus is silent"):
            SynthCampaignSpec(stimulus=Signal(np.full(FS // 10, 1e-200), FS),
                              distances_cm=(50, 100))

    # x_ref/x overflows to inf, or underflows to 0
    @pytest.mark.parametrize("distances, reference, named",
                             [((5e-324, 100.0), 100.0, "4.94066e-324"),
                              ((1e-300, 1e300), 1e-300, r"1e\+300")],
                             ids=["overflow", "underflow"])
    def test_distance_gain_must_be_finite_and_positive(self, white_2s, distances,
                                                       reference, named):
        with pytest.raises(InvalidSpecError, match=f"distance {named} cm"):
            SynthCampaignSpec(stimulus=white_2s, distances_cm=distances,
                              reference_distance_cm=reference)
