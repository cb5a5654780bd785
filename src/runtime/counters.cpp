#include "runtime/counters.hpp"

#include <algorithm>
#include <cstdint>

#include "support/json.hpp"

namespace amtfmm {

namespace {

/// Entry named `name`, nullptr when absent.  Snapshots of one registry
/// list metrics in registration order, so when comparing two of them the
/// entry at the same index (`hint`) is almost always the match; the name
/// scan covers a metric registered between the two snapshots.
template <class T>
const T* find_named(const std::vector<T>& v, const std::string& name,
                    std::size_t hint = SIZE_MAX) {
  if (hint < v.size() && v[hint].name == name) return &v[hint];
  for (const auto& x : v) {
    if (x.name == name) return &x;
  }
  return nullptr;
}

}  // namespace

std::uint64_t CounterSnapshot::value(const std::string& name) const {
  if (const Scalar* c = find_named(counters, name)) return c->value;
  const Scalar* g = find_named(gauges, name);
  return g != nullptr ? g->value : 0;
}

const CounterSnapshot::Histogram* CounterSnapshot::hist(
    const std::string& name) const {
  return find_named(histograms, name);
}

void CounterSnapshot::append_json(JsonWriter& w) const {
  w.begin_object();
  append_json_members(w);
  w.end_object();
}

void CounterSnapshot::append_json_members(JsonWriter& w) const {
  w.key("counters");
  w.begin_object();
  for (const auto& c : counters) w.kv(c.name, c.value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& g : gauges) w.kv(g.name, g.value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& h : histograms) {
    w.key(h.name);
    w.begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.key("buckets");
    w.begin_array();
    // Trailing zero buckets are elided; bucket i spans [2^i, 2^(i+1)).
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t i = 0; i < last; ++i) w.value(h.buckets[i]);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

CounterSnapshot CounterSnapshot::from_json(const JsonValue& v) {
  CounterSnapshot snap;
  auto scalars = [&v](const char* key, std::vector<Scalar>& out) {
    const JsonValue* obj = v.find(key);
    if (obj == nullptr || !obj->is_object()) return;
    for (const auto& [name, val] : obj->object) {
      if (val.is_number()) {
        out.push_back({name, static_cast<std::uint64_t>(val.number)});
      }
    }
  };
  scalars("counters", snap.counters);
  scalars("gauges", snap.gauges);
  const JsonValue* hs = v.find("histograms");
  if (hs == nullptr || !hs->is_object()) return snap;
  for (const auto& [name, hv] : hs->object) {
    Histogram h;
    h.name = name;
    h.count = static_cast<std::uint64_t>(hv.num_or("count", 0.0));
    h.sum = static_cast<std::uint64_t>(hv.num_or("sum", 0.0));
    if (const JsonValue* bs = hv.find("buckets");
        bs != nullptr && bs->is_array()) {
      const std::size_t n = std::min(bs->array.size(), h.buckets.size());
      for (std::size_t i = 0; i < n; ++i) {
        h.buckets[i] = static_cast<std::uint64_t>(bs->array[i].number);
      }
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

CounterSnapshot snapshot_delta(const CounterSnapshot& prev,
                               const CounterSnapshot& cur) {
  CounterSnapshot d = cur;  // gauges: current values, not deltas
  for (std::size_t i = 0; i < d.counters.size(); ++i) {
    auto& c = d.counters[i];
    if (const auto* p = find_named(prev.counters, c.name, i)) {
      c.value -= p->value;
    }
  }
  for (std::size_t i = 0; i < d.histograms.size(); ++i) {
    auto& h = d.histograms[i];
    const auto* p = find_named(prev.histograms, h.name, i);
    if (p == nullptr) continue;
    h.count -= p->count;
    h.sum -= p->sum;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      h.buckets[b] -= p->buckets[b];
    }
  }
  return d;
}

double histogram_quantile(const CounterSnapshot::Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile among the count observations, 1-based
  // so q=1 lands exactly on the last observation.
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const std::uint64_t n = h.buckets[b];
    if (n == 0) continue;
    if (static_cast<double>(below + n) >= rank) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << b);
      // Top bucket is open-ended; clamp to twice its lower edge, the best
      // bound a log2 layout can state.
      const double hi = b + 1 < h.buckets.size()
                            ? static_cast<double>(1ull << (b + 1))
                            : 2.0 * static_cast<double>(1ull << b);
      const double frac =
          std::clamp((rank - static_cast<double>(below)) /
                         static_cast<double>(n),
                     0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    below += n;
  }
  return 0.0;  // unreachable with a consistent snapshot
}

CounterRegistry::CounterRegistry(int workers) {
  const int n = std::max(workers, 1);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

CounterRegistry::Id CounterRegistry::reg(const std::string& name, Kind kind) {
  for (std::size_t i = 0; i < scalar_names_.size(); ++i) {
    if (scalar_names_[i] == name) {
      AMTFMM_ASSERT_MSG(scalar_kinds_[i] == kind,
                        "counter/gauge kind mismatch on re-registration");
      return static_cast<Id>(i);
    }
  }
  AMTFMM_ASSERT_MSG(scalar_names_.size() < kMaxScalars,
                    "CounterRegistry scalar capacity exhausted");
  scalar_names_.push_back(name);
  scalar_kinds_.push_back(kind);
  return static_cast<Id>(scalar_names_.size() - 1);
}

CounterRegistry::Id CounterRegistry::histogram(const std::string& name) {
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] == name) return static_cast<Id>(i);
  }
  AMTFMM_ASSERT_MSG(hist_names_.size() < kMaxHistograms,
                    "CounterRegistry histogram capacity exhausted");
  hist_names_.push_back(name);
  return static_cast<Id>(hist_names_.size() - 1);
}

CounterRegistry::Id CounterRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < scalar_names_.size(); ++i) {
    if (scalar_names_[i] == name) return static_cast<Id>(i);
  }
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] == name) return static_cast<Id>(i);
  }
  return kNoId;
}

CounterSnapshot CounterRegistry::snapshot() const {
  CounterSnapshot snap;
  for (std::size_t i = 0; i < scalar_names_.size(); ++i) {
    std::uint64_t sum = 0;
    std::uint64_t mx = 0;
    for (const auto& s : shards_) {
      const std::uint64_t v = s->scalars[i].load(std::memory_order_relaxed);
      sum += v;
      mx = std::max(mx, v);
    }
    CounterSnapshot::Scalar out{scalar_names_[i],
                                scalar_kinds_[i] == Kind::kGauge ? mx : sum};
    if (scalar_kinds_[i] == Kind::kGauge) {
      snap.gauges.push_back(std::move(out));
    } else {
      snap.counters.push_back(std::move(out));
    }
  }
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    CounterSnapshot::Histogram h;
    h.name = hist_names_[i];
    for (const auto& s : shards_) {
      const auto& hs = s->hists[i];
      // Acquire pairs with observe()'s count-last release: every counted
      // observation's sum and bucket updates are visible to the reads
      // below, so count never exceeds what sum/buckets account for.
      h.count += hooked_load(hs.count, std::memory_order_acquire);
      h.sum += hooked_load(hs.sum, std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        h.buckets[b] += hooked_load(hs.buckets[b], std::memory_order_relaxed);
      }
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace amtfmm
