#include "metrics_check_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "core/json_lite.hpp"

namespace cusfft::tools {

namespace {

void fail(MetricsCheckResult& r, std::string msg) {
  r.errors.push_back(std::move(msg));
}

bool parse_doc(const std::string& text, json::Value& doc,
               MetricsCheckResult& r) {
  std::string err;
  if (!json::parse(text, doc, &err)) {
    fail(r, "not valid JSON: " + err);
    return false;
  }
  if (doc.string_or("schema", "") != "cusfft-metrics-v1") {
    fail(r, "missing or wrong \"schema\" (expected cusfft-metrics-v1)");
    return false;
  }
  return true;
}

/// The +Inf overflow bucket serializes its bound as the string "+Inf";
/// every other bound is a JSON number.
double bucket_le(const json::Value& b) {
  const json::Value* le = b.find("le");
  if (le == nullptr) return std::numeric_limits<double>::quiet_NaN();
  if (le->is_string() && le->string == "+Inf")
    return std::numeric_limits<double>::infinity();
  if (le->is_number()) return le->number;
  return std::numeric_limits<double>::quiet_NaN();
}

struct HistDoc {
  u64 count = 0;
  double sum = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
  std::vector<std::pair<double, u64>> buckets;  // (le, per-bucket count)
  bool ok = false;
};

HistDoc read_hist(const std::string& name, const json::Value& h,
                  MetricsCheckResult& r) {
  HistDoc d;
  if (!h.is_object()) {
    fail(r, "histogram " + name + ": not an object");
    return d;
  }
  d.count = static_cast<u64>(h.number_or("count", -1));
  d.sum = h.number_or("sum", 0);
  d.min = h.number_or("min", 0);
  d.max = h.number_or("max", 0);
  d.p50 = h.number_or("p50", 0);
  d.p95 = h.number_or("p95", 0);
  d.p99 = h.number_or("p99", 0);
  if (h.number_or("count", -1) < 0) {
    fail(r, "histogram " + name + ": missing count");
    return d;
  }
  const json::Value* buckets = h.find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    fail(r, "histogram " + name + ": missing buckets array");
    return d;
  }
  for (const json::Value& b : buckets->array) {
    const double le = bucket_le(b);
    const double n = b.number_or("count", -1);
    if (std::isnan(le) || n < 0) {
      fail(r, "histogram " + name + ": malformed bucket entry");
      return d;
    }
    d.buckets.emplace_back(le, static_cast<u64>(n));
  }
  d.ok = true;
  return d;
}

void check_hist(const std::string& name, const HistDoc& d,
                MetricsCheckResult& r) {
  u64 total = 0;
  double prev_le = -std::numeric_limits<double>::infinity();
  for (const auto& [le, n] : d.buckets) {
    if (le <= prev_le) {
      fail(r, "histogram " + name + ": bucket bounds not ascending");
      return;
    }
    prev_le = le;
    total += n;
  }
  if (total != d.count) {
    std::ostringstream os;
    os << "histogram " << name << ": bucket counts sum to " << total
       << " but count is " << d.count;
    fail(r, os.str());
  }
  if (d.count == 0) return;
  if (!(d.min <= d.p50 && d.p50 <= d.p95 && d.p95 <= d.p99 &&
        d.p99 <= d.max))
    fail(r, "histogram " + name +
                ": percentiles not ordered (min <= p50 <= p95 <= p99 <= "
                "max)");
  // sum must be consistent with count observations in [min, max]; the
  // epsilon absorbs accumulated rounding in the sharded double adds.
  const double c = static_cast<double>(d.count);
  const double eps =
      1e-9 * std::max(1.0, std::abs(c * d.max)) + 1e-12;
  if (d.sum < c * d.min - eps || d.sum > c * d.max + eps)
    fail(r, "histogram " + name + ": sum outside [count*min, count*max]");
}

/// Collects name -> counter value and name -> histogram doc from one
/// parsed snapshot.
struct SnapshotDoc {
  std::map<std::string, u64> counters;
  std::map<std::string, HistDoc> hists;
};

bool read_snapshot(const json::Value& doc, SnapshotDoc& s,
                   MetricsCheckResult& r) {
  const json::Value* counters = doc.find("counters");
  const json::Value* gauges = doc.find("gauges");
  const json::Value* hists = doc.find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || hists == nullptr || !hists->is_object()) {
    fail(r, "missing counters/gauges/histograms objects");
    return false;
  }
  for (const auto& [name, v] : counters->object) {
    if (!v.is_number() || v.number < 0 ||
        v.number != std::floor(v.number)) {
      fail(r, "counter " + name + ": not a non-negative integer");
      continue;
    }
    s.counters[name] = static_cast<u64>(v.number);
  }
  for (const auto& [name, h] : hists->object)
    s.hists[name] = read_hist(name, h, r);
  return true;
}

}  // namespace

MetricsCheckResult check_metrics_json(const std::string& text) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;
  for (const auto& [name, h] : s.hists)
    if (h.ok) check_hist(name, h, r);
  r.counters = s.counters.size();
  r.gauges = doc.find("gauges")->object.size();
  r.histograms = s.hists.size();
  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_metrics_monotonic(const std::string& prev,
                                           const std::string& next) {
  MetricsCheckResult r;
  json::Value dp, dn;
  if (!parse_doc(prev, dp, r) || !parse_doc(next, dn, r)) return r;
  SnapshotDoc sp, sn;
  if (!read_snapshot(dp, sp, r) || !read_snapshot(dn, sn, r)) return r;
  for (const auto& [name, v] : sp.counters) {
    const auto it = sn.counters.find(name);
    if (it == sn.counters.end()) {
      fail(r, "counter " + name + ": present in prev, missing in next");
    } else if (it->second < v) {
      std::ostringstream os;
      os << "counter " << name << ": went backwards (" << v << " -> "
         << it->second << ")";
      fail(r, os.str());
    }
  }
  for (const auto& [name, h] : sp.hists) {
    const auto it = sn.hists.find(name);
    if (it == sn.hists.end()) {
      fail(r, "histogram " + name + ": present in prev, missing in next");
    } else if (it->second.count < h.count) {
      std::ostringstream os;
      os << "histogram " << name << ": count went backwards (" << h.count
         << " -> " << it->second.count << ")";
      fail(r, os.str());
    }
  }
  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_metrics_prometheus(const std::string& json_text,
                                            const std::string& prom_text) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(json_text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;

  // Parse the exposition: `name{labels} value` lines (the whole series
  // name, labels included, is the key — matching the JSON convention).
  std::map<std::string, double> series;
  std::istringstream in(prom_text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      std::ostringstream os;
      os << "prometheus line " << lineno << ": expected 'name value'";
      fail(r, os.str());
      continue;
    }
    const std::string name = line.substr(0, sp);
    char* end = nullptr;
    const std::string val = line.substr(sp + 1);
    const double v = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') {
      fail(r, "prometheus series " + name + ": malformed value '" + val +
                  "'");
      continue;
    }
    if (series.count(name) != 0)
      fail(r, "prometheus series " + name + ": duplicated");
    series[name] = v;
  }

  auto expect = [&](const std::string& name, double want,
                    const std::string& what) {
    const auto it = series.find(name);
    if (it == series.end()) {
      fail(r, "prometheus: missing series " + name + " (" + what + ")");
      return;
    }
    if (std::abs(it->second - want) >
        1e-9 * std::max(1.0, std::abs(want))) {
      std::ostringstream os;
      os << "prometheus series " << name << ": " << it->second
         << " != JSON " << want << " (" << what << ")";
      fail(r, os.str());
    }
  };

  for (const auto& [name, v] : s.counters)
    expect(name, static_cast<double>(v), "counter");

  for (const auto& [name, h] : s.hists) {
    if (!h.ok) continue;
    // name may carry labels: `base{labels}` -> `base_count{labels}` etc.
    const auto brace = name.find('{');
    const std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    const std::string labels =
        brace == std::string::npos ? "" : name.substr(brace);
    auto suffixed = [&](const char* sfx) { return base + sfx + labels; };
    expect(suffixed("_count"), static_cast<double>(h.count),
           "histogram count");
    expect(suffixed("_sum"), h.sum, "histogram sum");
    // The +Inf bucket line must equal the count; cumulative ordering of
    // all emitted _bucket lines is checked over the whole exposition
    // below (avoiding a reformat of the writer's bound strings here).
    const std::string inf_name =
        base + "_bucket" +
        (labels.empty() ? std::string("{le=\"+Inf\"}")
                        : labels.substr(0, labels.size() - 1) +
                              ",le=\"+Inf\"}");
    expect(inf_name, static_cast<double>(h.count), "le=+Inf bucket");
  }

  // Every emitted _bucket series must be cumulative-consistent: group by
  // prefix before le=, check non-decreasing in le order.
  struct BucketSeries {
    double le;
    double value;
  };
  std::map<std::string, std::vector<BucketSeries>> grouped;
  for (const auto& [name, v] : series) {
    const auto pos = name.find("le=\"");
    if (pos == std::string::npos || name.find("_bucket") == std::string::npos)
      continue;
    const auto end_q = name.find('"', pos + 4);
    if (end_q == std::string::npos) continue;
    const std::string le_str = name.substr(pos + 4, end_q - pos - 4);
    const double le = le_str == "+Inf"
                          ? std::numeric_limits<double>::infinity()
                          : std::strtod(le_str.c_str(), nullptr);
    grouped[name.substr(0, pos)].push_back({le, v});
  }
  for (auto& [prefix, buckets] : grouped) {
    std::sort(buckets.begin(), buckets.end(),
              [](const BucketSeries& a, const BucketSeries& b) {
                return a.le < b.le;
              });
    for (std::size_t i = 1; i < buckets.size(); ++i)
      if (buckets[i].value < buckets[i - 1].value) {
        fail(r, "prometheus " + prefix +
                    "...: cumulative bucket values decreased");
        break;
      }
  }

  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_device_histograms(const std::string& json_text,
                                           std::size_t devices) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(json_text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;
  for (std::size_t d = 0; d < devices; ++d) {
    const std::string name = "cusfft_signal_latency_ms{device=\"" +
                             std::to_string(d) + "\"}";
    const auto it = s.hists.find(name);
    if (it == s.hists.end()) {
      fail(r, "missing per-device histogram " + name);
    } else if (it->second.count == 0) {
      fail(r, "per-device histogram " + name + " has no observations");
    }
  }
  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_serve_metrics(const std::string& json_text) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(json_text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;

  auto counter = [&](const std::string& name, bool required) -> u64 {
    const auto it = s.counters.find(name);
    if (it == s.counters.end()) {
      if (required) fail(r, "missing serve counter " + name);
      return 0;
    }
    return it->second;
  };
  const u64 req_lat =
      counter("cusfft_serve_requests_total{class=\"latency\"}", false);
  const u64 req_thr =
      counter("cusfft_serve_requests_total{class=\"throughput\"}", false);
  if (req_lat + req_thr == 0)
    fail(r,
         "no cusfft_serve_requests_total series with observations (neither "
         "class)");
  const u64 completed = counter("cusfft_serve_completed_total", true);
  const u64 shed = counter("cusfft_serve_shed_total", true);
  const u64 rejected = counter("cusfft_serve_rejected_total", true);
  const u64 batches = counter("cusfft_serve_batches_total", true);

  if (req_lat + req_thr != completed + shed + rejected) {
    std::ostringstream os;
    os << "serve accounting does not conserve: requests " << req_lat + req_thr
       << " != completed " << completed << " + shed " << shed
       << " + rejected " << rejected;
    fail(r, os.str());
  }
  if (completed > 0 && batches == 0)
    fail(r, "completed requests but cusfft_serve_batches_total is 0");

  u64 hist_completed = 0;
  for (const char* cls : {"latency", "throughput"}) {
    const std::string name =
        std::string("cusfft_serve_latency_ms{class=\"") + cls + "\"}";
    const auto it = s.hists.find(name);
    if (it == s.hists.end()) {
      fail(r, "missing serve histogram " + name);
      continue;
    }
    hist_completed += it->second.count;
  }
  if (hist_completed != completed) {
    std::ostringstream os;
    os << "serve latency histogram counts sum to " << hist_completed
       << " but cusfft_serve_completed_total is " << completed;
    fail(r, os.str());
  }
  const auto bs = s.hists.find("cusfft_serve_batch_size");
  if (bs == s.hists.end()) {
    fail(r, "missing serve histogram cusfft_serve_batch_size");
  } else if (bs->second.count != batches) {
    std::ostringstream os;
    os << "cusfft_serve_batch_size count " << bs->second.count
       << " != cusfft_serve_batches_total " << batches;
    fail(r, os.str());
  }

  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_cluster_metrics(const std::string& json_text,
                                         std::size_t nodes) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(json_text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;

  auto counter = [&](const std::string& name) -> u64 {
    const auto it = s.counters.find(name);
    if (it == s.counters.end()) {
      fail(r, "missing cluster counter " + name);
      return 0;
    }
    return it->second;
  };
  const u64 batches = counter("cusfft_cluster_batches_total");
  const u64 signals = counter("cusfft_cluster_signals_total");
  const u64 transfers = counter("cusfft_cluster_nic_transfers_total");
  const u64 nic_bytes = counter("cusfft_cluster_nic_bytes_total");
  if (batches == 0) fail(r, "cusfft_cluster_batches_total is 0");
  if (signals == 0) fail(r, "cusfft_cluster_signals_total is 0");
  if (transfers > 0 && nic_bytes == 0)
    fail(r, "NIC transfers recorded but cusfft_cluster_nic_bytes_total is 0");

  // Per-node coverage + signal conservation: every node of the cluster
  // must expose its series, and the node split must sum to the cluster
  // total (no signal double-counted or dropped across nodes).
  u64 node_signals = 0;
  for (std::size_t m = 0; m < nodes; ++m) {
    const std::string node = std::to_string(m);
    node_signals +=
        counter("cusfft_node_signals_total{node=\"" + node + "\"}");
    const std::string bytes =
        "cusfft_node_nic_bytes_total{node=\"" + node + "\"}";
    if (s.counters.find(bytes) == s.counters.end())
      fail(r, "missing cluster counter " + bytes);
  }
  if (nodes > 0 && node_signals != signals) {
    std::ostringstream os;
    os << "node signal split does not conserve: sum over nodes "
       << node_signals << " != cusfft_cluster_signals_total " << signals;
    fail(r, os.str());
  }

  for (const char* name :
       {"cusfft_cluster_model_ms", "cusfft_cluster_nic_ms",
        "cusfft_cluster_nic_stall_ms", "cusfft_cluster_nic_queue_ms"}) {
    const auto it = s.hists.find(name);
    if (it == s.hists.end()) {
      fail(r, std::string("missing cluster histogram ") + name);
    } else if (it->second.count != batches) {
      std::ostringstream os;
      os << name << " count " << it->second.count
         << " != cusfft_cluster_batches_total " << batches;
      fail(r, os.str());
    }
  }

  r.ok = r.errors.empty();
  return r;
}

MetricsCheckResult check_algo_metrics(const std::string& json_text) {
  MetricsCheckResult r;
  json::Value doc;
  if (!parse_doc(json_text, doc, r)) return r;
  SnapshotDoc s;
  if (!read_snapshot(doc, s, r)) return r;

  auto counter_or = [&](const std::string& name) -> u64 {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  // Sums a {algo="..."} family, rejecting labels that are not a backend.
  auto family_sum = [&](const std::string& family) -> u64 {
    u64 sum = 0;
    const std::string prefix = family + "{algo=\"";
    for (const auto& [name, v] : s.counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::string label =
          name.substr(prefix.size(), name.size() - prefix.size() - 2);
      if (label != "cusfft" && label != "ffast")
        fail(r, family + ": unknown algo label \"" + label + "\"");
      sum += v;
    }
    return sum;
  };

  // A crossover run calibrates both backends, so both signal series must
  // carry observations.
  for (const char* algo : {"cusfft", "ffast"}) {
    const std::string name =
        std::string("cusfft_algo_signals_total{algo=\"") + algo + "\"}";
    if (counter_or(name) == 0)
      fail(r, "missing or zero picker counter " + name);
  }

  // The per-algo split must conserve the unlabeled total: every signal —
  // a calibration execute, a batch or a fleet signal — is attributed to
  // exactly one backend.
  const u64 sig_split = family_sum("cusfft_algo_signals_total");
  const u64 sigs = counter_or("cusfft_signals_total");
  if (sig_split != sigs) {
    std::ostringstream os;
    os << "algo signal split does not conserve: sum over backends "
       << sig_split << " != cusfft_signals_total " << sigs;
    fail(r, os.str());
  }

  if (family_sum("cusfft_algo_picks_total") == 0)
    fail(r,
         "cusfft_algo_picks_total has no observations — the auto picker "
         "never ran");
  const json::Value* gauges = doc.find("gauges");
  if (gauges == nullptr ||
      !(gauges->number_or("cusfft_algo_crossover_cells", 0) > 0))
    fail(r, "cusfft_algo_crossover_cells gauge is absent or zero");

  r.ok = r.errors.empty();
  return r;
}

}  // namespace cusfft::tools
