#include "util/lru_cache.h"

#include "obs/metrics.h"

namespace dtt {

LruCacheMetrics::LruCacheMetrics(const std::string& prefix) {
  if (prefix.empty()) return;
  auto& metrics = obs::MetricsRegistry::Global();
  hits_ = metrics.GetCounter(prefix + ".hits");
  misses_ = metrics.GetCounter(prefix + ".misses");
  insertions_ = metrics.GetCounter(prefix + ".insertions");
  evictions_ = metrics.GetCounter(prefix + ".evictions");
}

void LruCacheMetrics::Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace dtt
