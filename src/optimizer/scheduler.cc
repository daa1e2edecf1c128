#include "optimizer/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/observability.h"
#include "skyline/cardinality.h"

namespace caqe {

double RegionCost(const OutputRegion& region, uint32_t slots,
                  const CostModel& cost) {
  double probes = 0.0;
  double results = 0.0;
  for (uint32_t rest = slots; rest != 0; rest &= rest - 1) {
    probes += static_cast<double>(region.rows_r + region.rows_t);
    results += static_cast<double>(region.join_sizes[std::countr_zero(rest)]);
  }
  const double cmp_est = results * std::log2(1.0 + results);
  return cost.join_probe_seconds * probes + cost.join_result_seconds * results +
         cost.dominance_cmp_seconds * cmp_est + cost.schedule_seconds;
}

void ApplySatisfactionFeedback(const SatisfactionTracker& tracker,
                               const std::vector<char>& active,
                               std::vector<double>* weights) {
  const int n = static_cast<int>(weights->size());
  double v_max = 0.0;
  bool any = false;
  for (int q = 0; q < n; ++q) {
    if (!active[q]) continue;
    v_max = std::max(v_max, tracker.RuntimeMetric(q));
    any = true;
  }
  if (!any) return;
  double denom = 0.0;
  for (int q = 0; q < n; ++q) {
    if (active[q]) denom += v_max - tracker.RuntimeMetric(q);
  }
  if (denom <= 0.0) return;  // All queries equally satisfied.
  for (int q = 0; q < n; ++q) {
    if (!active[q]) continue;
    (*weights)[q] += (v_max - tracker.RuntimeMetric(q)) / denom;
  }
}

ContractDrivenScheduler::ContractDrivenScheduler(
    const RegionCollection* rc, const std::vector<char>* pending,
    const Workload* workload, const SatisfactionTracker* tracker,
    const CostModel* cost, SchedulerOptions options)
    : rc_(rc),
      pending_flags_(pending),
      workload_(workload),
      tracker_(tracker),
      cost_(cost),
      options_(options) {
  const int n = static_cast<int>(rc_->regions.size());
  dg_ = options_.dynamic_workload ? DependencyGraph::AllActive(n)
                                  : DependencyGraph::Build(*rc, *workload);
  weights_.assign(workload_->num_queries(), 1.0);
  active_.assign(workload_->num_queries(), 1);
  query_stride_ = std::max(1, workload_->num_queries());
  // Every entry starts stale (witness -1).
  benefit_cache_.assign(static_cast<size_t>(n) * query_stride_, Benefit{});
  cost_cache_.assign(n, Cost{});
  if (options_.obs != nullptr) {
    MetricsRegistry& metrics = options_.obs->metrics;
    picks_counter_ = &metrics.counter("caqe_scheduler_picks_total");
    scan_ops_counter_ = &metrics.counter("caqe_scheduler_scan_ops_total");
    // Attribution split of the scoring scan: region scoring (CSM over the
    // roots) vs dominated-fraction candidate scans. The two sum to the
    // aggregate scan-ops counter above.
    csm_scan_ops_counter_ =
        &metrics.counter("caqe_scheduler_csm_scan_ops_total");
    domfrac_scan_ops_counter_ =
        &metrics.counter("caqe_scheduler_domfrac_scan_ops_total");
    csm_hist_ = &metrics.histogram("caqe_scheduler_csm_score",
                                   ExponentialBuckets(1e-3, 10.0, 10));
  }
}

double ContractDrivenScheduler::ComputeDominatedFrac(int region, int q,
                                                     int* witness) const {
  const OutputRegion& c = rc_->regions[region];
  const std::vector<int>& dims = workload_->query(q).preference;
  const std::vector<char>& pending = *pending_flags_;
  double best = 0.0;
  int best_witness = -2;
  for (const OutputRegion& f : rc_->regions) {
    if (f.id == region || !pending[f.id] || !f.rql.Contains(q)) continue;
    ++scan_ops_;
    ++domfrac_ops_;
    double frac = 1.0;
    for (int k : dims) {
      const double width = c.upper[k] - c.lower[k];
      double overlap;
      if (width <= 0.0) {
        overlap = (f.lower[k] <= c.lower[k]) ? 1.0 : 0.0;
      } else {
        overlap = (c.upper[k] - std::max(c.lower[k], f.lower[k])) / width;
        overlap = std::min(1.0, std::max(0.0, overlap));
      }
      frac *= overlap;
      if (frac == 0.0) break;
    }
    if (frac > best) {
      best = frac;
      best_witness = f.id;
      if (best >= 1.0) break;
    }
  }
  *witness = best_witness;
  return best;
}

const ContractDrivenScheduler::Benefit& ContractDrivenScheduler::CachedBenefit(
    int region, int q) const {
  Benefit& entry =
      benefit_cache_[static_cast<size_t>(region) * query_stride_ + q];
  const bool stale =
      entry.witness == -1 ||
      (entry.witness >= 0 &&
       (!(*pending_flags_)[entry.witness] ||
        !rc_->regions[entry.witness].rql.Contains(q)));
  if (stale) {
    // Join size and |P_q| are fixed for the entry's life: a reused query
    // slot (AddQuery) invalidates its column.
    const int64_t join_size =
        rc_->regions[region].join_sizes[rc_->slot_of_query[q]];
    const int d = static_cast<int>(workload_->query(q).preference.size());
    const double frac = ComputeDominatedFrac(region, q, &entry.witness);
    entry.n_est = (1.0 - frac) * BuchtaSkylineCardinality(
                                     static_cast<double>(join_size), d);
  }
  return entry;
}

double ContractDrivenScheduler::EstimateCost(int region) const {
  const OutputRegion& r = rc_->regions[region];
  const uint32_t slots = rc_->ServedSlots(r);
  Cost& entry = cost_cache_[region];
  if (entry.t_c < 0.0 || entry.slots != slots) {
    entry = {slots, RegionCost(r, slots, *cost_)};
  }
  return entry.t_c;
}

double ContractDrivenScheduler::EstimateBenefit(int region, int q) const {
  const OutputRegion& r = rc_->regions[region];
  if (!r.rql.Contains(q)) return 0.0;
  if (r.join_sizes[rc_->slot_of_query[q]] <= 0) return 0.0;
  return CachedBenefit(region, q).n_est;
}

double ContractDrivenScheduler::Csm(int region, double now) const {
  const OutputRegion& r = rc_->regions[region];
  const double t_c = EstimateCost(region);
  double score = 0.0;
  r.rql.ForEach([&](int q) {
    if (q >= static_cast<int>(active_.size()) || !active_[q]) return;
    const double n_est = EstimateBenefit(region, q);
    if (n_est <= 0.0) return;
    if (options_.contract_driven) {
      const double u = tracker_->PreviewUtility(
          q, now + t_c, static_cast<int64_t>(std::ceil(n_est)));
      score += weights_[q] * n_est * u;
    } else {
      // Count-driven (ProgXe+-style): early results per second.
      score += n_est;
    }
  });
  if (!options_.contract_driven) score /= std::max(1e-9, t_c);
  return score;
}

int ContractDrivenScheduler::PickNext(double now, int64_t* coarse_ops) {
  const std::vector<char>& pending = *pending_flags_;
  scan_ops_ = 0;
  domfrac_ops_ = 0;
  dg_.Roots(&roots_);
  int best = -1;
  double best_score = -1.0;
  for (int region : roots_) {
    if (!pending[region]) continue;
    if (rc_->regions[region].rql.empty()) continue;
    const double score = Csm(region, now);
    ++scan_ops_;
    if (score > best_score) {
      best_score = score;
      best = region;
    }
  }
  if (best == -1) {
    // Every root has an empty lineage (engine has not removed them yet);
    // fall back to any pending region so the loop always progresses.
    for (int i = 0; i < static_cast<int>(pending.size()); ++i) {
      if (pending[i]) {
        best = i;
        break;
      }
    }
  }
  if (coarse_ops != nullptr) *coarse_ops += scan_ops_;
  CAQE_CHECK(best >= 0);
  if (picks_counter_ != nullptr) {
    picks_counter_->Inc();
    scan_ops_counter_->Inc(scan_ops_);
    csm_scan_ops_counter_->Inc(scan_ops_ - domfrac_ops_);
    domfrac_scan_ops_counter_->Inc(domfrac_ops_);
    if (best_score >= 0.0) csm_hist_->Observe(best_score);
  }
  return best;
}

void ContractDrivenScheduler::OnRegionRemoved(int region) {
  CAQE_DCHECK(!(*pending_flags_)[region]);
  // Dynamic mode keeps the (edge-free) graph node active so a later graft
  // can re-activate a discarded-but-unprocessed region.
  if (!options_.dynamic_workload) dg_.Deactivate(region);
}

void ContractDrivenScheduler::OnRegionActivated(int region) {
  CAQE_DCHECK(options_.dynamic_workload);
  CAQE_DCHECK((*pending_flags_)[region]);
  // The region's benefit estimates were computed against the old lineage
  // landscape; recompute lazily.
  for (int q = 0; q < query_stride_; ++q) {
    benefit_cache_[static_cast<size_t>(region) * query_stride_ + q].witness =
        -1;
  }
}

void ContractDrivenScheduler::AddQuery(int q) {
  CAQE_DCHECK(options_.dynamic_workload);
  CAQE_DCHECK(q >= 0 && q < workload_->num_queries());
  if (q >= static_cast<int>(weights_.size())) {
    weights_.resize(workload_->num_queries(), 1.0);
    active_.resize(workload_->num_queries(), 0);
  }
  weights_[q] = 1.0;
  active_[q] = 1;
  const int n = static_cast<int>(rc_->regions.size());
  if (q >= query_stride_) {
    // Re-stride the cache geometrically; everything restarts stale (one
    // lazy recompute per touched entry, deterministic either way).
    const int new_stride = std::max(q + 1, 2 * query_stride_);
    benefit_cache_.assign(static_cast<size_t>(n) * new_stride, Benefit{});
    query_stride_ = new_stride;
  } else {
    // Reused slot: a new join key and preference; invalidate the query's
    // column only.
    for (int r = 0; r < n; ++r) {
      benefit_cache_[static_cast<size_t>(r) * query_stride_ + q].witness = -1;
    }
  }
}

void ContractDrivenScheduler::RetireQuery(int q) {
  CAQE_DCHECK(options_.dynamic_workload);
  if (q < 0 || q >= static_cast<int>(active_.size()) || !active_[q]) return;
  // The retired query's weight mass simply vanishes; survivors keep their
  // weights untouched. Rescaling them would perturb subsequent CSM scores
  // relative to a run where the retired query was never admitted — the
  // serving layer's cancellation-equivalence guarantee forbids that. Eq. 11
  // feedback (which only uses weight *differences* among active queries)
  // rebalances the active set from the next region on.
  active_[q] = 0;
  weights_[q] = 0.0;
}

void ContractDrivenScheduler::UpdateWeights() {
  if (options_.feedback_enabled) {
    ApplySatisfactionFeedback(*tracker_, active_, &weights_);
  }
}

}  // namespace caqe
