// Self-tuning admission calibration: the estimate -> observe feedback loop.
//
// The admission controller scores every arrival with two model outputs: the
// cost-model service-time estimate and the Buchta (Eq. 9) result-cardinality
// estimate. Both are static models; the obs layer has recorded their
// observed-vs-estimated relative error at every completion since PR 4
// without feeding it back. The Calibrator closes that loop (ROADMAP's
// self-tuning item, the serving analogue of Eq. 11's satisfaction
// feedback): every *completed* request contributes one
// (estimated, observed) sample to a per-workload bucket, and subsequent
// admissions on that bucket get their raw estimates multiplied by the
// bucket's learned correction factors before the deadline and utility
// previews run.
//
// ## Bucket scheme
//
// Completions rarely repeat an exact query, so samples are pooled by a
// coarse workload signature: (preference dimensionality) x (log-scale
// selectivity bucket: average join output per lineage region) x (query
// kind: predicate slot + whether selections are attached). The signature is
// derived with integer arithmetic only, so two runs bucket identically.
//
// ## Integer EWMA + hysteresis
//
// Each bucket holds fixed-point (scale kOne = 2^16) correction factors,
// updated by an integer EWMA over the clamped observed/estimated ratio:
//
//   factor += (ratio_fp - factor) * kAlphaNum / kAlphaDen
//
// Integer state means no accumulation-order float drift can ever creep into
// admission decisions, and saturation clamps ([kMinFactor, kMaxFactor])
// bound the damage any adversarial trace can do. A bucket's factor is compared
// against the factor last *applied* to decisions; only when the gap exceeds
// the hysteresis threshold does the calibrator raise its shift flag, which
// the server consumes to re-preview the deferred queue (repreview storms
// on every sample would churn decisions for noise).
//
// ## Determinism
//
// The calibrator follows the audit ledger's rule (DESIGN.md SS15): all state
// updates happen on the serial driver thread, at virtual timestamps, from
// deterministic inputs. Reports therefore stay byte-identical across
// thread counts, and a recorded live session replays exactly — the
// property tests/calibration_test.cc proves on random traces.
#ifndef CAQE_SERVE_CALIBRATION_H_
#define CAQE_SERVE_CALIBRATION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace caqe {

class Calibrator {
 public:
  /// Fixed-point scale: a factor of kOne multiplies by exactly 1.0.
  static constexpr int64_t kOne = 1 << 16;
  /// EWMA weight kAlphaNum/kAlphaDen applied to each new ratio sample.
  static constexpr int64_t kAlphaNum = 1;
  static constexpr int64_t kAlphaDen = 4;
  /// Repreview the deferred queue when a bucket's factor drifts this far
  /// (fixed-point) from the factor last applied to decisions.
  static constexpr int64_t kHysteresis = kOne / 8;
  /// Saturation clamps on both the ratio samples and the factors.
  static constexpr int64_t kMinFactor = kOne / 8;
  static constexpr int64_t kMaxFactor = kOne * 8;
  /// Completions a bucket must absorb before its factors are decision-grade
  /// (gates the admission feasibility test; see Trusted()).
  static constexpr int64_t kTrustSamples = 8;
  /// Bucket-axis sizes (see file comment for the scheme).
  static constexpr int kDimsBuckets = 8;
  static constexpr int kSelBuckets = 8;
  static constexpr int kKindBuckets = 16;
  static constexpr int kNumBuckets = kDimsBuckets * kSelBuckets * kKindBuckets;

  /// Flat bucket index; -1 = no bucket (calibration bypassed).
  struct BucketKey {
    int index = -1;
  };

  /// One completed request's estimate-vs-observation pair. Raw estimates
  /// are the *uncorrected* model outputs — calibration must converge on
  /// the model error, not chase its own corrections.
  struct CompletionSample {
    double raw_est_seconds = 0.0;
    double observed_seconds = 0.0;
    double raw_est_results = 0.0;
    int64_t observed_results = 0;
  };

  /// Per-completion estimation quality, recorded before the sample updates
  /// the factors (so "corrected" reflects what admission would have
  /// predicted at that moment). The bench's tightening gate reads this.
  struct ErrorSample {
    double raw_abs_rel_error = 0.0;
    double corrected_abs_rel_error = 0.0;
  };

  Calibrator();

  /// Integer-only workload signature: `dims` preference dimensions,
  /// `join_total` summed exact join output over the `lineage_regions`
  /// lineage, predicate `slot`, selections attached or not.
  static BucketKey KeyFor(int dims, int64_t join_total,
                          int64_t lineage_regions, int slot,
                          bool has_selections);

  /// "d<dims>_s<sel>_k<kind>" — the stable bucket label used in metric
  /// names and the /statusz table.
  static std::string BucketLabel(BucketKey key);

  /// CorrectedEstimate(): scales a raw service-time estimate by the
  /// bucket's fixed-point time factor (identity for an untouched bucket or
  /// an invalid key).
  double CorrectSeconds(BucketKey key, double raw_seconds) const;
  /// Same for the Buchta cardinality estimate (separate factor).
  double CorrectCardinality(BucketKey key, double raw_value) const;

  /// Folds one completion into the bucket's factors (integer EWMA, clamped)
  /// and records the error sample. Raises the shift flag when either factor
  /// drifts past the hysteresis threshold. Serial-driver-thread only.
  void ObserveCompletion(BucketKey key, const CompletionSample& sample);

  /// True once after any hysteresis-exceeding shift; reading clears it.
  /// The server re-previews the deferred queue on true.
  bool TakeShift();

  /// Fixed-point factors (kOne = identity) for introspection and metrics.
  int64_t time_factor(BucketKey key) const;
  int64_t card_factor(BucketKey key) const;
  /// Completions folded into the bucket so far.
  int64_t samples(BucketKey key) const;
  /// True once the bucket has absorbed kTrustSamples completions — its
  /// factors are decision-grade, unlocking the admission-side
  /// completion-feasibility test (a fresh or invalid bucket never is).
  bool Trusted(BucketKey key) const;

  int64_t completions() const { return completions_; }
  int64_t shifts() const { return shifts_; }
  const std::vector<ErrorSample>& error_series() const {
    return error_series_;
  }

  /// Deterministic multi-line table: header counters plus one line per
  /// touched bucket (fixed-point factors rendered with integer math).
  std::string StatusText() const;

 private:
  struct Bucket {
    int64_t time_factor = kOne;
    int64_t card_factor = kOne;
    /// Factors as of the last consumed shift — the values decisions are
    /// currently based on; drift beyond the hysteresis re-arms the flag.
    int64_t applied_time_factor = kOne;
    int64_t applied_card_factor = kOne;
    int64_t samples = 0;
  };

  /// Clamped integer EWMA update; returns the new factor.
  static int64_t UpdateFactor(int64_t factor, int64_t ratio_fp);
  static int64_t ClampFactor(int64_t value);

  std::array<Bucket, kNumBuckets> buckets_;
  int64_t completions_ = 0;
  int64_t shifts_ = 0;
  bool shift_pending_ = false;
  std::vector<ErrorSample> error_series_;
};

}  // namespace caqe

#endif  // CAQE_SERVE_CALIBRATION_H_
