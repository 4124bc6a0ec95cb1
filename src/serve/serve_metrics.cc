#include "serve/serve_metrics.h"

#include "common/strings.h"

namespace orx::serve {

std::string ServeMetrics::ToString() const {
  auto ms = [](double seconds) { return FormatDouble(seconds * 1e3, 2); };
  return "qps=" + FormatDouble(qps, 1) +
         " completed=" + std::to_string(completed) +
         " executed=" + std::to_string(executed) +
         " hits=" + std::to_string(cache_hits) +
         " coalesced=" + std::to_string(coalesced) +
         " rejected=" + std::to_string(rejected) +
         " deadline_exceeded=" + std::to_string(deadline_exceeded) +
         " failed=" + std::to_string(failed) +
         " tiers=" + std::to_string(tier_exact) + "e/" +
         std::to_string(tier_cached) + "c miss=" +
         std::to_string(miss_no_cache) + "n/" +
         std::to_string(miss_rates_mismatch) + "r/" +
         std::to_string(miss_bm25_mismatch) + "b/" +
         std::to_string(miss_missing_terms) + "t/" +
         std::to_string(miss_error_budget) + "e" +
         " p50=" + ms(latency_p50) +
         "ms p95=" + ms(latency_p95) + "ms p99=" + ms(latency_p99) +
         "ms mean=" + ms(latency_mean) + "ms";
}

}  // namespace orx::serve
