#include "util/lru_cache.h"

#include "obs/metrics.h"

namespace dtt {

LruCacheMetrics::LruCacheMetrics(const std::string& prefix,
                                 const std::string& charge_gauge) {
  if (prefix.empty()) return;
  auto& metrics = obs::MetricsRegistry::Global();
  hits_ = metrics.GetCounter(prefix + ".hits");
  misses_ = metrics.GetCounter(prefix + ".misses");
  insertions_ = metrics.GetCounter(prefix + ".insertions");
  evictions_ = metrics.GetCounter(prefix + ".evictions");
  if (!charge_gauge.empty()) {
    charge_ = metrics.GetGauge(prefix + "." + charge_gauge);
  }
}

void LruCacheMetrics::Charge(int64_t delta) const {
  if (charge_ != nullptr) charge_->Add(delta);
}

void LruCacheMetrics::Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace dtt
