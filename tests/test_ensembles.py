"""Tests for random-instance ensembles and the theory oracles."""

import math

import pytest

from repro.conform.oracles import OracleContext, resolve_oracles
from repro.ensembles import (
    CountObservables,
    EnsembleReport,
    SizeObservables,
    check_count_statistics,
    check_rank_statistics,
    ensemble_specs,
    ensemble_sweep,
    expected_proposer_rank,
    expected_receiver_rank,
    expected_stable_matchings,
    expected_total_proposals,
    harmonic,
    measure_stable_matching_counts,
    observables_from_summaries,
    proposer_rank_band,
    random_instance_spec,
    receiver_rank_band,
    run_ensemble_check,
    stable_matching_count_band,
)
from repro.errors import ReproError


class TestTheory:
    def test_harmonic_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(25 / 12)

    def test_harmonic_matches_asymptotic_expansion(self):
        # The exact sum and the log-expansion agree where they hand off.
        n = 1_000_000
        exact = sum(1.0 / i for i in range(1, n + 1))
        assert harmonic(n) == pytest.approx(exact, abs=1e-9)

    def test_harmonic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic(0)

    def test_expected_values_scale_as_theory_says(self):
        n = 1000
        assert expected_proposer_rank(n) == pytest.approx(math.log(n), rel=0.1)
        assert expected_receiver_rank(n) == pytest.approx(n / math.log(n), rel=0.1)
        assert expected_total_proposals(n) == n * expected_proposer_rank(n)
        # Mean-field law: the two sides' mean ranks multiply to ~n.
        assert expected_proposer_rank(n) * expected_receiver_rank(n) == pytest.approx(n)

    def test_expected_stable_matchings(self):
        assert expected_stable_matchings(1) == 1.0
        assert expected_stable_matchings(100) == pytest.approx(
            100 * math.log(100) / math.e
        )

    def test_bands_contain_theory_value(self):
        for band in (
            proposer_rank_band(100),
            receiver_rank_band(100),
            stable_matching_count_band(100),
        ):
            assert band.lo < band.expected < band.hi
            assert band.contains(band.expected)
            assert "around" in band.describe()

    def test_instance_bands_are_wider(self):
        ensemble = proposer_rank_band(64, scope="ensemble")
        instance = proposer_rank_band(64, scope="instance")
        assert instance.lo < ensemble.lo
        assert instance.hi > ensemble.hi

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            proposer_rank_band(64, scope="galaxy")


class TestGenerators:
    def test_spec_shape(self):
        spec = random_instance_spec(64, 7)
        assert spec.family == "offline"
        assert spec.algorithm == "gale_shapley"
        assert spec.k == 64
        assert spec.profile.kind == "random"
        assert spec.profile.seed == 7
        assert "ensemble" in spec.tags
        assert "n64" in spec.tags

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ReproError):
            random_instance_spec(1, 0)

    def test_grid_order_sizes_outermost(self):
        specs = ensemble_specs((4, 8), (0, 1))
        assert [(s.k, s.profile.seed) for s in specs] == [
            (4, 0), (4, 1), (8, 0), (8, 1),
        ]

    def test_grid_is_deterministic(self):
        assert ensemble_specs((4,), range(3)) == ensemble_specs((4,), range(3))

    def test_sweep_wrapper(self):
        sweep = ensemble_sweep((4,), (0,))
        assert len(sweep.specs) == 1


class TestObservables:
    def test_from_summaries_divides_by_n(self):
        summaries = [
            {
                "k": 10,
                "runs": 5,
                "mean_proposals": 25.0,
                "mean_receiver_rank": 40.0,
                "mean_matched": 10.0,
            }
        ]
        (obs,) = observables_from_summaries(summaries)
        assert obs.n == 10
        assert obs.mean_proposer_rank == 2.5
        assert obs.mean_receiver_rank == 4.0

    def test_rank_check_passes_on_theory_values(self):
        obs = SizeObservables(
            n=100,
            runs=10,
            mean_proposer_rank=expected_proposer_rank(100),
            mean_receiver_rank=expected_receiver_rank(100),
            mean_matched=100.0,
        )
        assert check_rank_statistics([obs]) == ()

    def test_rank_check_flags_out_of_band_and_unmatched(self):
        obs = SizeObservables(
            n=100,
            runs=10,
            mean_proposer_rank=expected_proposer_rank(100) * 10,
            mean_receiver_rank=expected_receiver_rank(100),
            mean_matched=99.0,
        )
        violations = check_rank_statistics([obs])
        messages = [v.message for v in violations]
        assert len(violations) == 2
        assert any("match everyone" in m for m in messages)
        assert any("proposer rank" in m for m in messages)
        assert all(v.oracle == "theory_stats" for v in violations)

    def test_count_measurement_and_check(self):
        counts = measure_stable_matching_counts(16, range(5))
        assert counts.samples == 5
        assert counts.min_count >= 1
        assert counts.min_count <= counts.mean_count <= counts.max_count
        assert check_count_statistics([counts]) == ()

    def test_count_check_flags_outliers(self):
        bad = CountObservables(n=64, samples=3, mean_count=1e9, min_count=0, max_count=int(3e9))
        violations = check_count_statistics([bad])
        assert len(violations) == 2  # out of band + a zero-count instance

    def test_count_measurement_needs_seeds(self):
        with pytest.raises(ReproError):
            measure_stable_matching_counts(8, ())


class TestRunEnsembleCheck:
    def test_end_to_end_in_memory(self):
        report = run_ensemble_check(
            ns=(32,), seeds=range(6), count_ns=(16,), count_seeds=range(3),
            batch_size=4,
        )
        assert report.ok
        assert report.record_count == 6
        assert report.seed_count == 6
        assert len(report.observables) == 1
        assert report.observables[0].n == 32
        assert len(report.counts) == 1
        assert report.spilled == 0
        assert report.peak_resident <= 4
        assert "ensemble check: ok" in report.summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_spill_bounds_residency(self, tmp_path, workers):
        path = tmp_path / "spill.ndjson"
        report = run_ensemble_check(
            ns=(16,), seeds=range(12), workers=workers, batch_size=2,
            spill_threshold=3, spill_path=path,
        )
        assert report.spilled == 12
        assert report.peak_resident <= 3 + 2 - 1
        assert path.exists()

    def test_spill_threshold_requires_path(self):
        with pytest.raises(ReproError):
            run_ensemble_check(ns=(8,), seeds=range(2), spill_threshold=4)

    def test_report_json_round_shape(self):
        report = run_ensemble_check(ns=(16,), seeds=range(3))
        data = report.to_dict()
        assert data["schema"] == "repro.ensembles.report/1"
        assert data["ok"] is True
        assert data["observables"][0]["theory_proposer_rank"] > 0
        assert isinstance(EnsembleReport.to_json(report), str)


class TestTheoryStatsOracle:
    def test_registered_and_applies(self):
        (oracle,) = resolve_oracles(["theory_stats"])
        good = random_instance_spec(64, 0)
        assert oracle.applies(good)
        small = random_instance_spec(8, 0)
        assert not oracle.applies(small)

    def test_clean_run_passes(self):
        (oracle,) = resolve_oracles(["theory_stats"])
        violations = oracle.check(random_instance_spec(64, 1), OracleContext())
        assert violations == ()

    def test_in_default_oracle_set(self):
        from repro.conform.oracles import default_oracle_names

        assert "theory_stats" in default_oracle_names()


class TestRankHistograms:
    def _record(self, k, proposals, receiver_rank, scenario="s"):
        from repro.experiment.records import RunRecord

        return RunRecord(
            scenario=scenario, family="bsm", k=k,
            proposals=proposals, receiver_rank=receiver_rank,
        )

    def test_sink_bins_normalized_ranks(self):
        from repro.ensembles import RankHistogramSink

        sink = RankHistogramSink()
        with sink:
            # proposals/k: 0.125, 0.625 -> bins 0.00 and 0.50
            # receiver_rank/k: 0.25, 0.875 -> bins 0.25 and 0.75
            sink.write(self._record(8, 1, 2))
            sink.write(self._record(8, 5, 7))
        hists = sink.histograms()
        assert {(h.n, h.metric) for h in hists} == {
            (8, "proposer_rank"),
            (8, "receiver_rank"),
        }
        by_metric = {h.metric: dict(h.counts) for h in hists}
        assert by_metric["proposer_rank"] == {0.0: 1, 0.5: 1}
        assert by_metric["receiver_rank"] == {0.25: 1, 0.75: 1}

    def test_sink_groups_by_n_and_skips_k_zero(self):
        from repro.ensembles import RankHistogramSink

        sink = RankHistogramSink()
        with sink:
            sink.write(self._record(4, 1, 1))
            sink.write(self._record(16, 4, 4))
            sink.write(self._record(0, 0, 0))  # degenerate: not binned
        hists = sink.histograms()
        assert sorted({h.n for h in hists}) == [4, 16]
        assert sum(c for h in hists for _, c in h.counts) == 4  # 2 records x 2 sides

    def test_histograms_sorted_and_round_trip(self):
        from repro.ensembles import RankHistogram, RankHistogramSink

        sink = RankHistogramSink()
        with sink:
            sink.write(self._record(16, 3, 3))
            sink.write(self._record(4, 1, 1))
        hists = sink.histograms()
        assert [h.n for h in hists] == sorted(h.n for h in hists)
        for hist in hists:
            assert isinstance(hist, RankHistogram)
            data = hist.to_dict()
            assert data["metric"] in ("proposer_rank", "receiver_rank")
            assert data["bin_width"] == 0.25
            assert sum(count for _, count in data["counts"]) == 1

    def test_report_carries_histograms(self):
        report = run_ensemble_check(ns=(16,), seeds=range(4), batch_size=2)
        assert report.histograms
        assert {h.metric for h in report.histograms} == {
            "proposer_rank",
            "receiver_rank",
        }
        # Every seed lands in exactly one bin per side.
        for hist in report.histograms:
            assert sum(count for _, count in hist.counts) == 4
        data = report.to_dict()
        assert len(data["histograms"]) == len(report.histograms)
        assert data["histograms"][0]["n"] == 16

    def test_spilling_run_still_collects_histograms(self, tmp_path):
        report = run_ensemble_check(
            ns=(16,), seeds=range(6), batch_size=2,
            spill_threshold=2, spill_path=tmp_path / "spill.ndjson",
        )
        assert report.spilled == 6
        assert report.histograms
        assert all(
            sum(count for _, count in hist.counts) == 6
            for hist in report.histograms
        )

    def test_cli_prints_histogram_bars(self, capsys):
        from repro.cli import main

        assert main(["ensemble", "run", "--tier", "quick"]) == 0
        out = capsys.readouterr().out
        assert "proposer_rank" in out
        assert "receiver_rank" in out
        assert "#" in out
