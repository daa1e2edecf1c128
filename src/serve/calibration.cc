#include "serve/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace caqe {

namespace {

/// Fixed-point rendering with integer math only: "1.2500" for kOne*5/4.
std::string FormatFactor(int64_t factor) {
  const int64_t scaled = (factor * 10000) / Calibrator::kOne;
  std::string out = std::to_string(scaled / 10000);
  const int64_t frac = scaled % 10000;
  char buf[8];
  std::snprintf(buf, sizeof(buf), ".%04lld", static_cast<long long>(frac));
  return out + buf;
}

}  // namespace

Calibrator::Calibrator() {
  // Long traces observe one sample per completion; reserving up front keeps
  // the steady state allocation-free (alloc-gate discipline).
  error_series_.reserve(4096);
}

Calibrator::BucketKey Calibrator::KeyFor(int dims, int64_t join_total,
                                         int64_t lineage_regions, int slot,
                                         bool has_selections) {
  BucketKey key;
  if (dims <= 0 || lineage_regions <= 0 || slot < 0) return key;
  const int dims_bucket = std::min(dims - 1, kDimsBuckets - 1);
  // log4 scale over the average join output per lineage region: integer
  // shifts only, so every run buckets identically.
  int64_t avg = join_total / lineage_regions;
  int sel_bucket = 0;
  while (avg > 3 && sel_bucket < kSelBuckets - 1) {
    avg >>= 2;
    ++sel_bucket;
  }
  const int kind =
      std::min(slot * 2 + (has_selections ? 1 : 0), kKindBuckets - 1);
  key.index = (dims_bucket * kSelBuckets + sel_bucket) * kKindBuckets + kind;
  return key;
}

std::string Calibrator::BucketLabel(BucketKey key) {
  if (key.index < 0 || key.index >= kNumBuckets) return "invalid";
  const int kind = key.index % kKindBuckets;
  const int sel = (key.index / kKindBuckets) % kSelBuckets;
  const int dims = key.index / (kKindBuckets * kSelBuckets);
  return "d" + std::to_string(dims) + "_s" + std::to_string(sel) + "_k" +
         std::to_string(kind);
}

double Calibrator::CorrectSeconds(BucketKey key, double raw_seconds) const {
  if (key.index < 0 || key.index >= kNumBuckets) return raw_seconds;
  return raw_seconds *
         (static_cast<double>(buckets_[key.index].time_factor) /
          static_cast<double>(kOne));
}

double Calibrator::CorrectCardinality(BucketKey key, double raw_value) const {
  if (key.index < 0 || key.index >= kNumBuckets) return raw_value;
  return raw_value * (static_cast<double>(buckets_[key.index].card_factor) /
                      static_cast<double>(kOne));
}

int64_t Calibrator::ClampFactor(int64_t value) {
  return std::max(kMinFactor, std::min(kMaxFactor, value));
}

int64_t Calibrator::UpdateFactor(int64_t factor, int64_t ratio_fp) {
  const int64_t ratio = ClampFactor(ratio_fp);
  const int64_t next = factor + ((ratio - factor) * kAlphaNum) / kAlphaDen;
  return ClampFactor(next);
}

void Calibrator::ObserveCompletion(BucketKey key,
                                   const CompletionSample& sample) {
  if (key.index < 0 || key.index >= kNumBuckets) return;
  if (sample.raw_est_seconds <= 0.0) return;
  Bucket& bucket = buckets_[key.index];

  // Estimation quality *before* this sample moves the factors: what the
  // controller would have predicted for this request right now.
  const double corrected_est =
      sample.raw_est_seconds * (static_cast<double>(bucket.time_factor) /
                                static_cast<double>(kOne));
  ErrorSample err;
  err.raw_abs_rel_error =
      std::abs(sample.observed_seconds - sample.raw_est_seconds) /
      sample.raw_est_seconds;
  err.corrected_abs_rel_error =
      std::abs(sample.observed_seconds - corrected_est) / corrected_est;
  error_series_.push_back(err);

  // Ratio samples in fixed point. llround on a deterministic double is
  // deterministic; all accumulation from here on is integer.
  const int64_t time_ratio = static_cast<int64_t>(
      std::llround(sample.observed_seconds / sample.raw_est_seconds *
                   static_cast<double>(kOne)));
  bucket.time_factor = UpdateFactor(bucket.time_factor, time_ratio);
  if (sample.raw_est_results > 0.0) {
    const int64_t card_ratio = static_cast<int64_t>(
        std::llround(static_cast<double>(sample.observed_results) /
                     sample.raw_est_results * static_cast<double>(kOne)));
    bucket.card_factor = UpdateFactor(bucket.card_factor, card_ratio);
  }
  ++bucket.samples;
  ++completions_;

  const int64_t time_drift =
      std::abs(bucket.time_factor - bucket.applied_time_factor);
  const int64_t card_drift =
      std::abs(bucket.card_factor - bucket.applied_card_factor);
  if (time_drift > kHysteresis || card_drift > kHysteresis) {
    bucket.applied_time_factor = bucket.time_factor;
    bucket.applied_card_factor = bucket.card_factor;
    shift_pending_ = true;
    ++shifts_;
  }
}

bool Calibrator::TakeShift() {
  const bool pending = shift_pending_;
  shift_pending_ = false;
  return pending;
}

int64_t Calibrator::time_factor(BucketKey key) const {
  if (key.index < 0 || key.index >= kNumBuckets) return kOne;
  return buckets_[key.index].time_factor;
}

int64_t Calibrator::card_factor(BucketKey key) const {
  if (key.index < 0 || key.index >= kNumBuckets) return kOne;
  return buckets_[key.index].card_factor;
}

int64_t Calibrator::samples(BucketKey key) const {
  if (key.index < 0 || key.index >= kNumBuckets) return 0;
  return buckets_[key.index].samples;
}

bool Calibrator::Trusted(BucketKey key) const {
  return samples(key) >= kTrustSamples;
}

std::string Calibrator::StatusText() const {
  std::string out = "calibration: on completions=" +
                    std::to_string(completions_) +
                    " shifts=" + std::to_string(shifts_) + "\n";
  for (int i = 0; i < kNumBuckets; ++i) {
    const Bucket& bucket = buckets_[i];
    if (bucket.samples == 0) continue;
    BucketKey key;
    key.index = i;
    out += "calib " + BucketLabel(key) +
           " samples=" + std::to_string(bucket.samples) +
           " time_factor=" + FormatFactor(bucket.time_factor) +
           " card_factor=" + FormatFactor(bucket.card_factor) + "\n";
  }
  return out;
}

}  // namespace caqe
