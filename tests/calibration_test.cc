// Self-tuning admission calibration tests (src/serve/calibration.*):
// integer-EWMA determinism, saturation clamps, hysteresis gating, and the
// randomized property that a *calibrated* serving run stays byte-identical
// across thread counts, pipelining, and live-record->replay — calibration
// is a data-shape parameter, never a source of nondeterminism.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "contracts/utility.h"
#include "data/generator.h"
#include "serve/calibration.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "serve/trace.h"
#include "test_util.h"

namespace caqe {
namespace {

Calibrator::CompletionSample MakeSample(double raw_seconds,
                                        double observed_seconds) {
  Calibrator::CompletionSample sample;
  sample.raw_est_seconds = raw_seconds;
  sample.observed_seconds = observed_seconds;
  sample.raw_est_results = 10.0;
  sample.observed_results = 10;
  return sample;
}

TEST(CalibratorTest, UntouchedBucketIsIdentity) {
  Calibrator calibrator;
  Calibrator::BucketKey key = Calibrator::KeyFor(3, 64, 4, 1, false);
  ASSERT_GE(key.index, 0);
  EXPECT_DOUBLE_EQ(calibrator.CorrectSeconds(key, 2.5), 2.5);
  EXPECT_DOUBLE_EQ(calibrator.CorrectCardinality(key, 42.0), 42.0);
  EXPECT_EQ(calibrator.time_factor(key), Calibrator::kOne);

  Calibrator::BucketKey invalid;  // index -1
  EXPECT_DOUBLE_EQ(calibrator.CorrectSeconds(invalid, 2.5), 2.5);
  EXPECT_EQ(calibrator.time_factor(invalid), Calibrator::kOne);
  // Observations against an invalid key are dropped, not misfiled.
  calibrator.ObserveCompletion(invalid, MakeSample(1.0, 2.0));
  EXPECT_EQ(calibrator.completions(), 0);
}

// The EWMA is exact integer arithmetic: the factor sequence for a fixed
// sample stream is a hard constant, not an approximation.
TEST(CalibratorTest, IntegerEwmaIsExact) {
  Calibrator calibrator;  // alpha = 1/4
  const Calibrator::BucketKey key = Calibrator::KeyFor(2, 16, 2, 0, true);
  ASSERT_GE(key.index, 0);

  // observed/raw = 0.5 -> ratio 32768. factor: 65536 -> 57344 -> 51200.
  calibrator.ObserveCompletion(key, MakeSample(2.0, 1.0));
  EXPECT_EQ(calibrator.time_factor(key), 57344);
  calibrator.ObserveCompletion(key, MakeSample(2.0, 1.0));
  EXPECT_EQ(calibrator.time_factor(key), 51200);
  EXPECT_EQ(calibrator.completions(), 2);

  // A replayed stream reproduces the identical factor.
  Calibrator replay;
  replay.ObserveCompletion(key, MakeSample(2.0, 1.0));
  replay.ObserveCompletion(key, MakeSample(2.0, 1.0));
  EXPECT_EQ(replay.time_factor(key), calibrator.time_factor(key));
  EXPECT_EQ(replay.card_factor(key), calibrator.card_factor(key));
}

TEST(CalibratorTest, SaturationClampsBoundTheFactors) {
  Calibrator calibrator;
  const Calibrator::BucketKey key = Calibrator::KeyFor(1, 4, 1, 0, false);
  ASSERT_GE(key.index, 0);

  // Adversarially huge ratios: the factor may approach but never exceed
  // kMaxFactor, no matter how many samples arrive.
  for (int i = 0; i < 200; ++i) {
    calibrator.ObserveCompletion(key, MakeSample(0.001, 1e9));
  }
  EXPECT_LE(calibrator.time_factor(key), Calibrator::kMaxFactor);
  EXPECT_GT(calibrator.time_factor(key), Calibrator::kMaxFactor / 2);

  // And the symmetric floor for near-zero ratios.
  Calibrator floor_cal;
  for (int i = 0; i < 200; ++i) {
    floor_cal.ObserveCompletion(key, MakeSample(1e9, 0.001));
  }
  EXPECT_GE(floor_cal.time_factor(key), Calibrator::kMinFactor);
  EXPECT_LT(floor_cal.time_factor(key), Calibrator::kMinFactor * 2);
}

TEST(CalibratorTest, HysteresisGatesTheShiftFlag) {
  Calibrator calibrator;
  const Calibrator::BucketKey key = Calibrator::KeyFor(3, 256, 8, 1, false);
  ASSERT_GE(key.index, 0);

  // One mild sample: |drift| = kOne/8 exactly, which does NOT exceed the
  // strict hysteresis threshold.
  calibrator.ObserveCompletion(key, MakeSample(1.0, 0.5));
  EXPECT_EQ(calibrator.time_factor(key), 57344);  // drift 8192 == kOne/8
  EXPECT_FALSE(calibrator.TakeShift());

  // The next sample pushes past the threshold; the flag raises once and
  // reading clears it.
  calibrator.ObserveCompletion(key, MakeSample(1.0, 0.5));
  EXPECT_TRUE(calibrator.TakeShift());
  EXPECT_FALSE(calibrator.TakeShift());
  EXPECT_EQ(calibrator.shifts(), 1);

  // The applied factor resynced at the shift: identical further samples
  // drift too little to re-arm.
  calibrator.ObserveCompletion(key, MakeSample(1.0, 0.7));
  EXPECT_FALSE(calibrator.TakeShift());
}

TEST(CalibratorTest, TrustRequiresEnoughSamples) {
  Calibrator calibrator;
  const Calibrator::BucketKey key = Calibrator::KeyFor(2, 64, 4, 0, false);
  ASSERT_GE(key.index, 0);
  for (int i = 0; i < Calibrator::kTrustSamples; ++i) {
    EXPECT_FALSE(calibrator.Trusted(key));
    calibrator.ObserveCompletion(key, MakeSample(1.0, 0.9));
  }
  EXPECT_TRUE(calibrator.Trusted(key));
  Calibrator::BucketKey invalid;
  EXPECT_FALSE(calibrator.Trusted(invalid));
}

// The error series records estimation quality *before* each sample moves
// the factors: the very first sample's corrected error equals its raw
// error (identity factor), and later corrected errors reflect the learned
// factor, not hindsight.
TEST(CalibratorTest, ErrorSeriesIsPreUpdate) {
  Calibrator calibrator;
  const Calibrator::BucketKey key = Calibrator::KeyFor(2, 64, 4, 0, false);
  calibrator.ObserveCompletion(key, MakeSample(2.0, 1.0));
  ASSERT_EQ(calibrator.error_series().size(), 1u);
  EXPECT_DOUBLE_EQ(calibrator.error_series()[0].raw_abs_rel_error, 0.5);
  EXPECT_DOUBLE_EQ(calibrator.error_series()[0].corrected_abs_rel_error, 0.5);

  // Second identical completion: corrected uses factor 57344/65536 = 0.875,
  // so corrected_est = 1.75 and |1.0 - 1.75| / 1.75 = 0.428571...
  calibrator.ObserveCompletion(key, MakeSample(2.0, 1.0));
  ASSERT_EQ(calibrator.error_series().size(), 2u);
  EXPECT_DOUBLE_EQ(calibrator.error_series()[1].raw_abs_rel_error, 0.5);
  EXPECT_NEAR(calibrator.error_series()[1].corrected_abs_rel_error, 0.75 / 1.75,
              1e-12);
}

TEST(CalibratorTest, BucketKeyIsStable) {
  const Calibrator::BucketKey a = Calibrator::KeyFor(3, 1000, 10, 2, true);
  const Calibrator::BucketKey b = Calibrator::KeyFor(3, 1000, 10, 2, true);
  EXPECT_EQ(a.index, b.index);
  EXPECT_GE(a.index, 0);
  EXPECT_LT(a.index, Calibrator::kNumBuckets);
  // Distinct signatures land in distinct buckets.
  EXPECT_NE(a.index, Calibrator::KeyFor(4, 1000, 10, 2, true).index);
  EXPECT_NE(a.index, Calibrator::KeyFor(3, 1000, 10, 2, false).index);
  // Degenerate inputs are "no bucket", not UB.
  EXPECT_EQ(Calibrator::KeyFor(0, 1000, 10, 2, true).index, -1);
  EXPECT_EQ(Calibrator::KeyFor(3, 1000, 0, 2, true).index, -1);
  EXPECT_EQ(Calibrator::KeyFor(3, 1000, 10, -1, true).index, -1);
  EXPECT_EQ(Calibrator::BucketLabel(Calibrator::BucketKey{}), "invalid");
}

// ---- Randomized property: calibrated serving is deterministic ----

uint64_t XorShift(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::pair<Table, Table> PropertyTables(uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_rows = 220;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05, 0.05};
  cfg.seed = seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = seed + 1;
  Table t = GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

std::vector<MappingFunction> ThreeDims() {
  return {MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
}

// Byte-identical calibrated reports at threads 1 and 8 on randomized traces: the calibrator's updates all happen on the serial
// driver step, so no execution axis may leak into admission decisions.
TEST(CalibrationPropertyTest, ReportIsByteIdenticalAcrossEngines) {
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 3; ++round) {
    TraceConfig config;
    config.num_requests = 10 + static_cast<int>(XorShift(rng) % 8);
    config.arrival_rate = 20.0 + static_cast<double>(XorShift(rng) % 40);
    config.seed = XorShift(rng);
    config.reference_seconds = 0.05;
    config.deadline_fraction = 0.3;
    config.cancel_fraction = 0.1;
    const uint64_t table_seed = XorShift(rng) | 1;

    const auto run = [&](int threads) {
      auto [r, t] = PropertyTables(table_seed);
      ServeOptions options;
      options.target_regions = 64;
      options.num_threads = threads;
      options.calibrate = true;
      auto server = CaqeServer::Create(std::move(r), std::move(t),
                                       ThreeDims(), {0, 1}, options)
                        .value();
      const std::vector<TraceRequest> trace =
          MakeSyntheticTrace(config, {0, 1}, 3);
      SubmitTrace(*server, trace);
      const ServingReport report = server->Run().value();
      EXPECT_GE(report.admitted, 1);
      // The loop actually closed: completions were observed.
      EXPECT_NE(server->calibrator(), nullptr);
      if (report.completed > 0) {
        EXPECT_GT(server->calibrator()->completions(), 0);
      }
      return ServingReportText(report) + server->CalibrationStatusText();
    };

    const std::string baseline = run(1);
    EXPECT_EQ(baseline, run(8)) << "round " << round;
    EXPECT_EQ(baseline, run(1)) << "round " << round;
  }
}

// Live-record -> replay identity under calibration: a live session driven
// step-by-step with randomized arrival interleaving, recorded as (query,
// contract, quantized vtime, deadline), must replay through Submit()+Run()
// to the byte-identical report — including every calibration factor.
TEST(CalibrationPropertyTest, LiveSessionReplaysByteIdentically) {
  uint64_t rng = 0xdeadbeefcafef00dull;
  for (int round = 0; round < 2; ++round) {
    TraceConfig config;
    config.num_requests = 8 + static_cast<int>(XorShift(rng) % 6);
    config.arrival_rate = 25.0;
    config.seed = XorShift(rng);
    config.reference_seconds = 0.05;
    config.deadline_fraction = 0.3;
    config.cancel_fraction = 0.0;
    const uint64_t table_seed = XorShift(rng) | 1;
    const std::vector<TraceRequest> trace =
        MakeSyntheticTrace(config, {0, 1}, 3);

    ServeOptions options;
    options.target_regions = 64;
    options.calibrate = true;

    // Live leg: ingest arrivals at quantized virtual times with a random
    // number of engine steps between them (the wall-clock front-end's
    // schedule is arbitrary; determinism must not depend on it).
    struct Recorded {
      SjQuery query;
      Contract contract;
      double vtime = 0.0;
      double deadline = 0.0;
    };
    std::vector<Recorded> recorded;
    std::string live_text;
    {
      auto [r, t] = PropertyTables(table_seed);
      auto server = CaqeServer::Create(std::move(r), std::move(t),
                                       ThreeDims(), {0, 1}, options)
                        .value();
      ASSERT_TRUE(server->BeginLive().ok());
      ArrivalQuantizer quantizer;
      for (const TraceRequest& request : trace) {
        const int steps = static_cast<int>(XorShift(rng) % 5);
        for (int i = 0; i < steps; ++i) server->StepLive();
        const int64_t index = quantizer.Next(server->VirtualNow());
        const double vtime = quantizer.TimeOf(index);
        ASSERT_TRUE(server
                        ->SubmitLive(request.query, request.contract, vtime,
                                     request.deadline_seconds)
                        .ok());
        recorded.push_back(Recorded{request.query, request.contract, vtime,
                                    request.deadline_seconds});
      }
      const ServingReport live_report = server->FinishLive().value();
      live_text = ServingReportText(live_report) +
                  server->CalibrationStatusText();
    }

    // Replay leg: the recorded session through the batch path.
    {
      auto [r, t] = PropertyTables(table_seed);
      auto server = CaqeServer::Create(std::move(r), std::move(t),
                                       ThreeDims(), {0, 1}, options)
                        .value();
      for (const Recorded& rec : recorded) {
        server->Submit(rec.query, rec.contract, rec.vtime, rec.deadline);
      }
      const ServingReport replay_report = server->Run().value();
      const std::string replay_text = ServingReportText(replay_report) +
                                      server->CalibrationStatusText();
      EXPECT_EQ(live_text, replay_text) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace caqe
