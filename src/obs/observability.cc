#include "obs/observability.h"

#include "metrics/report.h"

namespace caqe {

void RecordEngineStats(MetricsRegistry& registry, const EngineStats& stats,
                       const std::string& labels) {
  const auto series = [&](const std::string& base) {
    return labels.empty() ? base : base + "{" + labels + "}";
  };
  const auto phase = [&](const std::string& name) {
    return "caqe_engine_wall_phase_seconds{" +
           (labels.empty() ? "" : labels + ",") + "phase=\"" + name + "\"}";
  };
  registry.counter(series("caqe_engine_join_probes_total"))
      .Inc(stats.join_probes);
  registry.counter(series("caqe_engine_join_results_total"))
      .Inc(stats.join_results);
  registry.counter(series("caqe_engine_dominance_cmps_total"))
      .Inc(stats.dominance_cmps);
  registry.counter(series("caqe_engine_coarse_ops_total"))
      .Inc(stats.coarse_ops);
  registry.counter(series("caqe_engine_emitted_results_total"))
      .Inc(stats.emitted_results);
  registry.counter(series("caqe_engine_regions_built_total"))
      .Inc(stats.regions_built);
  registry.counter(series("caqe_engine_regions_processed_total"))
      .Inc(stats.regions_processed);
  registry.counter(series("caqe_engine_regions_discarded_total"))
      .Inc(stats.regions_discarded);
  registry.gauge(series("caqe_engine_virtual_seconds"))
      .Set(stats.virtual_seconds);
  registry.gauge(series("caqe_engine_wall_seconds")).Set(stats.wall_seconds);
  registry.gauge(phase("region_build")).Set(stats.wall_region_build_seconds);
  registry.gauge(phase("join")).Set(stats.wall_join_seconds);
  registry.gauge(phase("eval")).Set(stats.wall_eval_seconds);
  registry.gauge(phase("discard")).Set(stats.wall_discard_seconds);
}

}  // namespace caqe
