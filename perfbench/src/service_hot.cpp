// service-hot: an in-process service::SimService with 1 worker and a
// memory-only cache, driven by one closed-loop client through handle_line.
//
// Setup fills the cache with 36 keys -- the nine proxies x clusters A/B x
// analyze off/on, one full node, 3 steps -- each a miss (execute, then
// put), then takes one untimed hit.  Every op is a cache hit whose key is
// drawn Zipf(s = 1.1) from the seed over a fixed key ranking (fill order):
// the seed changes the request sequence, not the traffic mix.
#include <algorithm>
#include <cmath>
#include <optional>

#include "core/suite.hpp"
#include "perf/report.hpp"
#include "service/execute.hpp"
#include "service/service.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace perfbench {

namespace spx = spechpc;

namespace {

constexpr double kZipfS = 1.1;
constexpr std::uint64_t kFirstOpId = 1000;  // fill requests use ids 0..35

struct Key {
  std::string params;  ///< request params object
  std::string key;     ///< content key computed from the params
  std::string report;  ///< report bytes the fill returned
};

std::string request_line(std::uint64_t id, const Key& k) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"run\",\"params\":" + k.params + "}";
}

/// The envelope head a response to request `id` for `k` must start with.
std::string response_head(std::uint64_t id, const Key& k, bool cached) {
  return "{\"id\":" + std::to_string(id) + ",\"result\":{\"cached\":" +
         (cached ? "true" : "false") + ",\"key\":\"" + k.key +
         "\",\"report\":";
}

/// `resp` is exactly head + report + "}}".
bool envelope_matches(const std::string& resp, const std::string& head,
                      const std::string& report) {
  return resp.size() == head.size() + report.size() + 2 &&
         resp.compare(0, head.size(), head) == 0 &&
         resp.compare(head.size(), report.size(), report) == 0 &&
         resp.compare(resp.size() - 2, 2, "}}") == 0;
}

class ServiceHot final : public Workload {
 public:
  explicit ServiceHot(const Options& opts) : opts_(opts), rng_(opts.seed) {
    for (const std::string_view app : spx::core::app_names())
      for (const char* cluster : {"A", "B"})
        for (const bool analyze : {false, true}) {
          Key k;
          k.params = "{\"app\":\"" + std::string(app) + "\",\"cluster\":\"" +
                     cluster + "\",\"analyze\":" +
                     (analyze ? "true" : "false") + "}";
          k.key = spx::service::cache_key(spx::service::parse_request(
              k.params, spx::service::SimRequest::Kind::kRun));
          keys_.push_back(std::move(k));
        }
    double sum = 0.0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  void setup() override {
    spx::service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache.memory_entries = keys_.size();
    service_ = std::make_unique<spx::service::SimService>(cfg);
    bool ok = true;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      Key& k = keys_[i];
      const std::string resp = service_->handle_line(request_line(i, k));
      const std::string head = response_head(i, k, /*cached=*/false);
      std::string report;
      if (resp.size() > head.size() + 2 && resp.compare(0, head.size(), head) == 0)
        report = resp.substr(head.size(), resp.size() - head.size() - 2);
      ok = ok && envelope_matches(resp, head, report) &&
           spx::perf::validate_run_report_json(report) &&
           (k.report.empty() || k.report == report);
      k.report = std::move(report);
    }
    // The untimed cold op: one hit on the hottest key.
    const std::string resp = service_->handle_line(request_line(keys_.size(), keys_[0]));
    ok = ok && envelope_matches(resp, response_head(keys_.size(), keys_[0], true),
                                keys_[0].report);
    reference_ok_ = reference_ok_ && ok;
    stats0_ = service_->cache().stats();
  }

  void teardown() override { service_.reset(); }

  bool reference_ok() const override { return reference_ok_; }

  OpResult run_op(std::uint64_t op) override {
    const std::size_t k = draw();
    const std::uint64_t id = kFirstOpId + op;
    const std::string line = request_line(id, keys_[k]);
    const Clock::time_point t0 = Clock::now();
    std::string resp = service_->handle_line(line);
    OpResult r;
    r.seconds = seconds_since(t0);
    r.ok = check(op, id, k, resp);
    return r;
  }

  OpResult run_traced_op(std::uint64_t op, SpanLog& spans,
                         LayerValues& row) override {
    namespace svc = spx::service;
    const std::size_t k = draw();
    const std::uint64_t id = kFirstOpId + op;
    const std::string line = request_line(id, keys_[k]);
    const svc::CacheStats before = service_->cache().stats();
    spans.begin_op(static_cast<std::uint32_t>(op));
    const Clock::time_point t0 = Clock::now();
    std::string resp;
    {
      Scoped s(spans, M::service_handle_line_s);
      resp = service_->handle_line(line);
    }
    // Replay of handle_line's public sub-steps on the same request line;
    // whatever handle_line does beyond them is service.residual_s.
    spx::util::JsonValue root;
    {
      Scoped s(spans, M::util_parse_json_s);
      root = spx::util::parse_json(line, "request JSON");
    }
    svc::SimRequest req;
    {
      Scoped s(spans, M::service_parse_request_s);
      req = svc::parse_request(root.object.at("params"),
                               svc::SimRequest::Kind::kRun);
    }
    std::string key;
    {
      Scoped s(spans, M::service_cache_key_s);
      key = svc::cache_key(req);
    }
    std::optional<std::string> hit;
    {
      Scoped s(spans, M::service_cache_get_s);
      hit = service_->cache().get(key);
    }
    const double wall = seconds_since(t0);
    const svc::CacheStats after = service_->cache().stats();

    auto v = [&row](M m) -> double& { return row[static_cast<std::size_t>(m)]; };
    const double top = spans.fold_op(row);
    v(M::core_residual_s) = wall - top;
    v(M::service_residual_s) =
        v(M::service_handle_line_s) - v(M::util_parse_json_s) -
        v(M::service_parse_request_s) - v(M::service_cache_key_s) -
        v(M::service_cache_get_s);
    v(M::service_response_bytes) = static_cast<double>(resp.size());
    const double lookups = static_cast<double>(after.lookups() - before.lookups());
    v(M::service_hit_ratio) =
        lookups > 0 ? static_cast<double>(after.hits() - before.hits()) / lookups
                    : 0.0;
    OpResult r;
    r.seconds = v(M::service_handle_line_s);
    r.ok = check(op, id, k, resp) && hit && *hit == keys_[k].report;
    return r;
  }

  LayerValues traced_setup(SpanLog& spans) override {
    namespace svc = spx::service;
    // The miss path the fill took, replayed on a scratch cache: execute,
    // then put.  The replay must reproduce the fill's bytes.
    LayerValues row{};
    svc::ResultCache scratch(svc::CacheConfig{});
    spans.begin_op(kSetupOp);
    for (const Key& k : keys_) {
      const svc::SimRequest req =
          svc::parse_request(k.params, svc::SimRequest::Kind::kRun);
      std::string out;
      {
        Scoped s(spans, M::service_execute_s);
        out = svc::execute_request(req, nullptr);
      }
      reference_ok_ = reference_ok_ && out == k.report;
      Scoped s(spans, M::service_cache_put_s);
      scratch.put(k.key, out);
    }
    spans.fold_op(row);
    return row;
  }

  std::vector<std::pair<std::string, std::string>> size() const override {
    std::size_t lo = SIZE_MAX, hi = 0, total = 0;
    for (const Key& k : keys_) {
      lo = std::min(lo, k.report.size());
      hi = std::max(hi, k.report.size());
      total += k.report.size();
    }
    const spx::service::CacheStats now = service_->cache().stats();
    const double lookups = static_cast<double>(now.lookups() - stats0_.lookups());
    const double hits = static_cast<double>(now.hits() - stats0_.hits());
    return {{"keys", std::to_string(keys_.size())},
            {"zipf_s", format_double(kZipfS)},
            {"report_bytes_min", std::to_string(lo)},
            {"report_bytes_max", std::to_string(hi)},
            {"report_bytes_total", std::to_string(total)},
            {"hit_ratio", format_double(lookups > 0 ? hits / lookups : 0.0)}};
  }

 private:
  std::size_t draw() {
    const double u = uniform01(rng_);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 keys_.size() - 1);
  }

  /// Output checks of one op: a "cached":true envelope echoing the id and
  /// key, wrapping the fill-time report bytes of the drawn key.
  bool check(std::uint64_t op, std::uint64_t id, std::size_t k,
             std::string& resp) const {
    if (op == kCorruptOp) {
      const std::string cached = "\"cached\":true";
      const std::size_t at = resp.find(cached);
      if (opts_.corrupt == Corrupt::kUncached && at != std::string::npos)
        resp.replace(at, cached.size(), "\"cached\":false");
      if (opts_.corrupt == Corrupt::kReport) resp[resp.size() / 2] ^= 0x01;
    }
    return reference_ok_ &&
           envelope_matches(resp, response_head(id, keys_[k], true),
                            keys_[k].report);
  }

  Options opts_;
  std::uint64_t rng_;
  std::vector<Key> keys_;
  std::vector<double> cdf_;
  std::unique_ptr<spx::service::SimService> service_;
  spx::service::CacheStats stats0_;
  bool reference_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_service_hot(const Options& opts) {
  return std::make_unique<ServiceHot>(opts);
}

}  // namespace perfbench
