#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/paw.h"
#include "core/server.h"
#include "inputs.h"
#include "probe.h"
#include "serving/origin.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace aw4a;

/// Untraced runs set up this many times and report the median set-up time.
constexpr int kSetupRepeats = 5;
/// Read phases are cut into windows of about this length; latency
/// percentiles are the median over windows, so a burst of outside
/// interference moves one window rather than the whole result.
constexpr double kWindowSeconds = 1.0;
constexpr double kDrainTimeoutSeconds = 60.0;

int client_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string tier_of(const net::HttpResponse& response) {
  const std::string* tier = response.header("AW4A-Tier");
  return tier == nullptr ? std::string() : *tier;
}

// --------------------------------------------------------------------------
// One client exchange and its checks.
// --------------------------------------------------------------------------

/// Per-thread results of a phase; merged after the threads join.
struct Tally {
  LatencyHistogram latency;  ///< per request (open loop: from its due time)
  std::vector<LatencyHistogram> windows;  ///< `latency`, split by window
  LatencyHistogram lag;      ///< open loop: how late the request was sent
  LatencyHistogram handle;   ///< traced: OriginServer::handle alone
  Mean parse_ns;
  Mean handle_ns;
  Mean serialize_ns;
  Mean answer_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t non_200 = 0;
  std::uint64_t degraded = 0;
  std::string first_failure;

  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  /// Records a request latency, also into its window when it has one.
  void record(std::int64_t nanos, std::size_t window) {
    latency.record(nanos);
    if (window < windows.size()) windows[window].record(nanos);
  }
  void merge(const Tally& other) {
    latency.merge(other.latency);
    if (windows.size() < other.windows.size()) windows.resize(other.windows.size());
    for (std::size_t w = 0; w < other.windows.size(); ++w) windows[w].merge(other.windows[w]);
    lag.merge(other.lag);
    handle.merge(other.handle);
    parse_ns.merge(other.parse_ns);
    handle_ns.merge(other.handle_ns);
    serialize_ns.merge(other.serialize_ns);
    answer_ns.merge(other.answer_ns);
    attempted += other.attempted;
    failed += other.failed;
    non_200 += other.non_200;
    degraded += other.degraded;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

/// Checks one page answer; returns its site, or kSites when it failed.
std::size_t check_answer(const Inputs& inputs, const net::HttpRequest& request,
                         const net::HttpResponse& response, const std::string& wire_out,
                         Tally& tally) {
  const std::size_t site = site_of(inputs, request);
  const auto fail = [&](const std::string& why) {
    tally.fail(why + " for " + request.host().value_or("?"));
    return kSites;
  };
  if (site == kSites) return fail("request for an unknown host");
  if (response.status != 200) {
    ++tally.non_200;
    return fail("status " + std::to_string(response.status));
  }
  if (response.content_length > inputs.sites[site].page.transfer_size()) {
    return fail("content_length above the original transfer size");
  }
  if (request.save_data() && response.header("AW4A-Tier") == nullptr) {
    return fail("data-saving answer without AW4A-Tier");
  }
  if (wire_out.rfind("HTTP/1.1 200 ", 0) != 0) return fail("serialized status line is not 200");
  if (response.header("AW4A-Degraded") != nullptr) ++tally.degraded;
  return site;
}

/// The wire path of one request: parse -> handle -> serialize, then the
/// checks. Returns when the answer was serialized, so the checks stay out of
/// the request's latency. With `probe` set (traced phases) every layer call
/// is timed, and the same request is answered directly by
/// core::answer_page_request from the probe's ladder, which must agree with
/// the origin's answer.
Clock::time_point exchange(const Inputs& inputs, const serving::OriginServer& origin,
                           const std::string& wire, const Probe* probe, Tally& tally) {
  ++tally.attempted;
  if (probe == nullptr) {
    const auto request = net::parse_request(wire);
    if (!request) {
      tally.fail("request did not parse");
      return Clock::now();
    }
    const net::HttpResponse response = origin.handle(*request);
    const std::string wire_out = net::serialize(response);
    const auto done = Clock::now();
    check_answer(inputs, *request, response, wire_out, tally);
    return done;
  }
  const auto t0 = Clock::now();
  const auto request = net::parse_request(wire);
  const auto t1 = Clock::now();
  if (!request) {
    tally.fail("request did not parse");
    return t1;
  }
  const net::HttpResponse response = origin.handle(*request);
  const auto t2 = Clock::now();
  const std::string wire_out = net::serialize(response);
  const auto t3 = Clock::now();
  tally.parse_ns.add(static_cast<double>(nanos_between(t0, t1)));
  tally.handle_ns.add(static_cast<double>(nanos_between(t1, t2)));
  tally.serialize_ns.add(static_cast<double>(nanos_between(t2, t3)));
  tally.handle.record(nanos_between(t1, t2));
  const std::size_t site = check_answer(inputs, *request, response, wire_out, tally);
  if (site == kSites) return t3;
  const serving::OriginSite& origin_site = inputs.sites[site];
  const auto t4 = Clock::now();
  const core::ServeOutcome direct = core::answer_page_request(
      origin_site.page, probe->ladders[site], "", origin_site.plan, *request);
  tally.answer_ns.add(static_cast<double>(nanos_between(t4, Clock::now())));
  if (direct.response.content_length != response.content_length ||
      tier_of(direct.response) != tier_of(response)) {
    tally.fail("origin answer differs from the build_tiers ladder's answer for " +
               origin_site.host);
  }
  return t3;
}

// --------------------------------------------------------------------------
// Origin counters: partitions, quiescence, per-layer deltas.
// --------------------------------------------------------------------------

struct Counters {
  serving::MetricsSnapshot m;
  serving::TierCacheStats cache;
  serving::BuildQueueStats queue;
  serving::AssetStoreStats asset;
  serving::SingleFlightStats flight;
};

Counters read_counters(const serving::OriginServer& origin) {
  return {origin.metrics(), origin.cache_stats(), origin.build_queue_stats(),
          origin.asset_store_stats(), origin.single_flight_stats()};
}

/// Waits until the build plane is idle (refreshes included); false on timeout.
bool drain(const serving::OriginServer& origin) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(kDrainTimeoutSeconds);
  while (Clock::now() < deadline) {
    const serving::BuildQueueStats q = origin.build_queue_stats();
    if (q.depth == 0 && q.running == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The counter partitions that must hold on a quiescent origin; empty when
/// they all do.
std::string partition_error(const serving::OriginServer& origin) {
  if (!drain(origin)) return "build queue did not drain";
  const Counters c = read_counters(origin);
  const serving::MetricsSnapshot& m = c.m;
  const std::uint64_t page_answers = m.served_original + m.served_paw_tier +
                                     m.served_preference_tier + m.served_degraded +
                                     m.served_shed_degraded;
  const std::uint64_t tier_answers = m.served_paw_tier + m.served_preference_tier;
  if (m.requests_total != page_answers + m.stats_requests + m.trace_requests + m.not_found +
                              m.bad_method + m.bad_request + m.internal_errors) {
    return "MetricsSnapshot: requests_total is not partitioned by its answer rows";
  }
  if (tier_answers != m.ladder_cached + m.ladder_stale + m.ladder_built) {
    return "MetricsSnapshot: tier answers != cached + stale + built ladders";
  }
  if (tier_answers !=
      m.served_kind_image + m.served_kind_text_only + m.served_kind_markup_rewrite) {
    return "MetricsSnapshot: tier answers != image + text-only + markup-rewrite";
  }
  if (m.internal_errors != 0 || m.builds_failed != 0) {
    return "MetricsSnapshot: internal errors or failed builds";
  }
  if (c.asset.lookups != c.asset.exact_hits + c.asset.semantic_hits + c.asset.misses) {
    return "AssetStoreStats: lookups != exact + semantic + misses";
  }
  const serving::BuildQueueStats& q = c.queue;
  if (q.admitted != q.completed + q.failed + q.expired + q.depth + q.running) {
    return "BuildQueueStats: admitted != completed + failed + expired + depth + running";
  }
  return {};
}

/// Serving-layer activity over one or more [before, after] windows.
struct ServingActivity {
  double cache_hits = 0, cache_misses = 0, stale_hits = 0;
  double queue_admitted = 0, queue_shed = 0, queue_completed = 0;
  double refresh_queued = 0, refresh_shed = 0;
  double builds = 0, build_seconds = 0, flight_joins = 0;
  double asset_lookups = 0, asset_hits = 0;
  double tier_answers = 0, stale_answers = 0;
  /// Queue-wait percentiles of each origin's histogram (since its start).
  std::vector<double> wait_p50_s, wait_p90_s;
  /// Gauges at the last window's end.
  double cache_resident_bytes = 0, asset_resident_bytes = 0;

  void add(const Counters& before, const Counters& after) {
    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    cache_hits += d(after.cache.hits, before.cache.hits);
    cache_misses += d(after.cache.misses, before.cache.misses);
    stale_hits += d(after.cache.stale_hits, before.cache.stale_hits);
    queue_admitted += d(after.queue.admitted, before.queue.admitted);
    queue_shed += d(after.queue.shed, before.queue.shed);
    queue_completed += d(after.queue.completed, before.queue.completed);
    refresh_queued += d(after.m.stale_refreshes_queued, before.m.stale_refreshes_queued);
    refresh_shed += d(after.m.stale_refresh_sheds, before.m.stale_refresh_sheds);
    builds += d(after.m.build_seconds.count, before.m.build_seconds.count);
    build_seconds += after.m.build_seconds.sum - before.m.build_seconds.sum;
    flight_joins += d(after.flight.joins, before.flight.joins);
    asset_lookups += d(after.asset.lookups, before.asset.lookups);
    asset_hits += d(after.asset.exact_hits + after.asset.semantic_hits,
                    before.asset.exact_hits + before.asset.semantic_hits);
    tier_answers += d(after.m.served_paw_tier + after.m.served_preference_tier,
                      before.m.served_paw_tier + before.m.served_preference_tier);
    stale_answers += d(after.m.ladder_stale, before.m.ladder_stale);
    wait_p50_s.push_back(after.queue.queue_wait_seconds.p50);
    wait_p90_s.push_back(after.queue.queue_wait_seconds.p90);
    cache_resident_bytes = static_cast<double>(after.cache.resident_bytes);
    asset_resident_bytes = static_cast<double>(after.asset.resident_bytes);
  }
};

double ratio(double part, double whole) { return whole == 0.0 ? 0.0 : part / whole; }

// --------------------------------------------------------------------------
// Phases.
// --------------------------------------------------------------------------

struct Phase {
  Tally tally;
  double seconds = 0.0;    ///< measured wall time
  std::uint64_t work = 0;  ///< answers (reads) or sites built (cold_build)
  /// Work per second: of the whole phase (reads) or of each pass (cold_build).
  std::vector<double> rps;
  ServingActivity serving;

  double throughput() const { return median(rps); }
  /// Median over windows of the per-window percentile; over all requests
  /// when the phase has no windows (cold_build).
  double latency_ms(double q) const {
    if (tally.windows.empty()) return tally.latency.percentile_nanos(q) * 1e-6;
    std::vector<double> per_window;
    for (const LatencyHistogram& w : tally.windows) per_window.push_back(w.percentile_nanos(q));
    return median(per_window) * 1e-6;
  }
};

std::size_t window_count(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds / kWindowSeconds)));
}

std::size_t window_of(Clock::time_point at, Clock::time_point start, double window_seconds) {
  const double offset = seconds_between(start, at);
  return offset < 0.0 ? 0 : static_cast<std::size_t>(offset / window_seconds);
}

/// Runs `body(thread_index, tally)` on every client thread, released together.
template <typename Body>
Tally run_clients(Body body, const std::function<void()>& while_running = {}) {
  const int threads = client_threads();
  std::vector<Tally> tallies(static_cast<std::size_t>(threads));
  std::latch start(threads + 1);
  std::vector<std::thread> clients;
  clients.reserve(tallies.size());
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t, tallies[static_cast<std::size_t>(t)]);
    });
  }
  start.arrive_and_wait();
  if (while_running) while_running();
  for (std::thread& client : clients) client.join();
  Tally merged;
  for (const Tally& tally : tallies) merged.merge(tally);
  return merged;
}

/// Sleeps until shortly before `due`, then spins to it. A timer wake-up in a
/// virtual machine can land tens of microseconds late, which the open loop
/// would otherwise report as the origin's latency. The spin does not yield:
/// a yield hands the core to a rebuild for a whole time slice.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(30);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// Open loop: read i is due at start + i / read_rps whatever the origin's
/// state; clients claim due reads in order, and latency runs from the due
/// time. With push_hz > 0 a pusher flags a Zipf-drawn site stale every
/// 1 / push_hz seconds.
Phase open_loop_reads(const Inputs& inputs, serving::OriginServer& origin, double seconds,
                      double read_rps, double push_hz, std::size_t first_push,
                      const Probe* probe) {
  Phase phase;
  const Counters before = read_counters(origin);
  const auto reads = static_cast<std::uint64_t>(read_rps * seconds);
  const auto pushes = static_cast<std::uint64_t>(push_hz * seconds);
  std::atomic<std::uint64_t> next{0};
  const auto started = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](std::uint64_t i, double rate) {
    return started + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  const std::size_t windows = window_count(seconds);
  const double window_seconds = seconds / static_cast<double>(windows);
  phase.tally = run_clients(
      [&](int, Tally& tally) {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake at the due time, not 50 us later
        tally.windows.resize(windows);
        for (std::uint64_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < reads;) {
          const auto due = due_at(i, read_rps);
          wait_until(due);
          tally.lag.record(nanos_between(due, Clock::now()));
          const auto done =
              exchange(inputs, origin, inputs.stream[i % inputs.stream.size()], probe, tally);
          tally.record(nanos_between(due, done), window_of(due, started, window_seconds));
        }
      },
      [&] {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (std::uint64_t p = 0; p < pushes; ++p) {
          std::this_thread::sleep_until(due_at(p, push_hz));
          const std::size_t site = inputs.pushes[(first_push + p) % inputs.pushes.size()];
          origin.invalidate_host(inputs.sites[site].host);
        }
      });
  phase.seconds = seconds_between(started, Clock::now());
  phase.work = phase.tally.attempted;
  // The offered load is fixed, so per-window counts are too: the answer rate
  // is taken over the whole phase, which stretches when answers fall behind.
  phase.rps.push_back(static_cast<double>(phase.work) / phase.seconds);
  phase.serving.add(before, read_counters(origin));
  return phase;
}

/// Permutation of the sites a cold_build pass claims them in.
std::vector<std::size_t> pass_order(std::uint64_t seed, std::uint64_t pass) {
  std::vector<std::size_t> order(kSites);
  for (std::size_t i = 0; i < kSites; ++i) order[i] = i;
  Rng rng = Rng(seed).fork("passes").fork(pass);
  rng.shuffle(order);
  return order;
}

/// One cold_build pass: a fresh origin, every client claiming never-built
/// sites in the pass's shuffled order. Returns the origin for verification.
std::unique_ptr<serving::OriginServer> cold_pass(const Inputs& inputs, std::uint64_t seed,
                                                 std::uint64_t pass, const Probe* probe,
                                                 Phase& phase) {
  auto origin = std::make_unique<serving::OriginServer>(inputs.sites);
  const std::vector<std::size_t> order = pass_order(seed, pass);
  const Counters before = read_counters(*origin);
  std::atomic<std::size_t> next{0};
  const auto started = Clock::now();
  Tally tally = run_clients([&](int, Tally& t) {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < order.size();) {
      const auto sent = Clock::now();
      t.latency.record(nanos_between(
          sent, exchange(inputs, *origin, inputs.build_requests[order[i]], probe, t)));
    }
  });
  const double pass_seconds = seconds_between(started, Clock::now());
  phase.seconds += pass_seconds;
  phase.work += order.size();
  phase.rps.push_back(static_cast<double>(order.size()) / pass_seconds);
  if (const std::string error = partition_error(*origin); !error.empty()) tally.fail(error);
  phase.tally.merge(tally);
  phase.serving.add(before, read_counters(*origin));
  return origin;
}

/// Whole passes until `seconds` of pass time have been measured.
Phase cold_passes(const Inputs& inputs, std::uint64_t seed, double seconds,
                  std::uint64_t& pass, const Probe* probe,
                  std::unique_ptr<serving::OriginServer>& last) {
  Phase phase;
  while (phase.seconds < seconds) last = cold_pass(inputs, seed, pass++, probe, phase);
  return phase;
}

// --------------------------------------------------------------------------
// Outcome guards: the condition matrix.
// --------------------------------------------------------------------------

struct Outcome {
  double savings_ratio = 0.0;
  double paw_met_ratio = 0.0;
  std::uint64_t digest = 0;
};

/// Answers every site x condition once, single-threaded, and computes the
/// deterministic outcome guards over the answers.
Outcome verify_matrix(const Inputs& inputs, const serving::OriginServer& origin, Tally& tally) {
  Outcome outcome;
  double served_bytes = 0.0;
  double original_bytes = 0.0;
  std::uint64_t geo_answers = 0;
  std::uint64_t geo_met = 0;
  std::uint64_t digest = 1469598103934665603ULL;
  for (const std::string& wire : inputs.matrix) {
    ++tally.attempted;
    const auto request = net::parse_request(wire);
    if (!request) {
      tally.fail("matrix request did not parse");
      continue;
    }
    const net::HttpResponse response = origin.handle(*request);
    const std::string wire_out = net::serialize(response);
    const std::size_t site = check_answer(inputs, *request, response, wire_out, tally);
    if (site == kSites) continue;
    if (!net::parse_response(wire_out)) {
      tally.fail("matrix answer did not serialize to a parsable response");
      continue;
    }
    const serving::OriginSite& origin_site = inputs.sites[site];
    const Bytes original = origin_site.page.transfer_size();
    digest = hash_mix(digest, static_cast<std::uint64_t>(response.content_length));
    for (const char c : tier_of(response)) {
      digest = hash_mix(digest, static_cast<std::uint64_t>(c));
    }
    if (!request->save_data()) continue;
    served_bytes += static_cast<double>(response.content_length);
    original_bytes += static_cast<double>(original);
    if (const auto code = request->country_hint()) {
      const dataset::Country* country = dataset::find_country_by_code(*code);
      if (country == nullptr) {
        tally.fail("matrix country " + *code + " unknown");
        continue;
      }
      ++geo_answers;
      const Bytes target =
          core::per_url_target(original, core::paw_index(*country, origin_site.plan));
      if (response.content_length <= target) ++geo_met;
    }
  }
  outcome.savings_ratio = 1.0 - ratio(served_bytes, original_bytes);
  outcome.paw_met_ratio = ratio(static_cast<double>(geo_met), static_cast<double>(geo_answers));
  outcome.digest = digest;
  return outcome;
}

// --------------------------------------------------------------------------
// Workloads.
// --------------------------------------------------------------------------

/// A set-up that is timed `repeats` times, keeping the last one's state.
template <typename State, typename Make>
State timed_setup(int repeats, Make make, double& setup_s) {
  std::vector<double> times;
  State state;
  for (int r = 0; r < repeats; ++r) {
    state = State();  // the previous repeat's memory is released first
    const auto started = Clock::now();
    state = make();
    times.push_back(seconds_between(started, Clock::now()));
  }
  setup_s = median(times);
  return state;
}

/// Warm origin for warm_read and push_storm: inputs, an origin at library
/// defaults, every site's ladder built through handle() by the clients, then
/// one pass of the read stream per client (the warm-up, excluded from timing).
struct WarmState {
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<serving::OriginServer> origin;
};

WarmState make_warm(std::uint64_t seed) {
  WarmState state;
  state.inputs = std::make_unique<Inputs>(make_inputs(seed, /*measure_qfs=*/true));
  const Inputs& inputs = *state.inputs;
  state.origin = std::make_unique<serving::OriginServer>(inputs.sites);
  const serving::OriginServer& origin = *state.origin;
  std::atomic<std::size_t> next{0};
  const std::size_t stride = inputs.stream.size() / static_cast<std::size_t>(client_threads());
  const Tally warmup = run_clients([&](int t, Tally& tally) {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < kSites;) {
      exchange(inputs, origin, inputs.build_requests[i], nullptr, tally);
    }
    const std::size_t first = static_cast<std::size_t>(t) * stride;
    for (std::size_t i = first; i < first + stride; ++i) {
      exchange(inputs, origin, inputs.stream[i], nullptr, tally);
    }
  });
  if (warmup.failed != 0) throw std::runtime_error("set-up failed: " + warmup.first_failure);
  return state;
}

/// cold_build's set-up: inputs plus one warm-up pass on a throwaway origin.
struct ColdState {
  std::unique_ptr<Inputs> inputs;
};

ColdState make_cold(std::uint64_t seed) {
  ColdState state;
  state.inputs = std::make_unique<Inputs>(make_inputs(seed, /*measure_qfs=*/false));
  Phase warmup;
  cold_pass(*state.inputs, seed, /*pass=*/0, nullptr, warmup);
  if (warmup.tally.failed != 0) {
    throw std::runtime_error("set-up failed: " + warmup.tally.first_failure);
  }
  return state;
}

/// The end-to-end metrics of a measured phase.
void add_end_to_end(const Phase& phase, double setup_s, const Outcome& outcome,
                    std::vector<Metric>& out) {
  out.push_back({"setup_s", "s", setup_s});
  out.push_back({"throughput_rps", "1/s", phase.throughput()});
  out.push_back({"latency_p50_ms", "ms", phase.latency_ms(0.50)});
  out.push_back({"latency_p90_ms", "ms", phase.latency_ms(0.90)});
  out.push_back({"savings_ratio", "ratio", outcome.savings_ratio});
  out.push_back({"paw_met_ratio", "ratio", outcome.paw_met_ratio});
  out.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
}

/// Measurements reported beside the bounded metrics: outcome ratios that are
/// zero by design on some workloads, and a tail percentile that swings with
/// the host's scheduling far more than any bound allows.
void add_unbounded(const Phase& phase, std::vector<Metric>& out) {
  const Tally& t = phase.tally;
  out.push_back({"latency_p99_ms", "ms", phase.latency_ms(0.99)});
  out.push_back({"error_ratio", "ratio",
                 ratio(static_cast<double>(t.non_200), static_cast<double>(t.attempted))});
  out.push_back({"degraded_ratio", "ratio",
                 ratio(static_cast<double>(t.degraded), static_cast<double>(t.attempted))});
  out.push_back({"stale_ratio", "ratio",
                 ratio(phase.serving.stale_answers, phase.serving.tier_answers)});
}

/// The per-layer metrics of a traced phase plus the probe.
void add_per_layer(const Phase& traced, const Phase& untraced, const Probe& probe,
                   std::vector<Metric>& out) {
  const Tally& t = traced.tally;
  const ServingActivity& s = traced.serving;
  const double us = 1e-3;
  const double handle_us = t.handle_ns.mean() * us;
  const double answer_us = t.answer_ns.mean() * us;
  out.push_back({"net.parse_us", "us", t.parse_ns.mean() * us});
  out.push_back({"net.serialize_us", "us", t.serialize_ns.mean() * us});
  out.push_back({"serving.handle_us.p50", "us", t.handle.percentile_nanos(0.50) * us});
  out.push_back({"serving.handle_us.p99", "us", t.handle.percentile_nanos(0.99) * us});
  out.push_back({"serving.self_us", "us", handle_us - answer_us});
  out.push_back({"core.answer_us", "us", answer_us});
  out.push_back({"serving.cache.hit_ratio", "ratio",
                 ratio(s.cache_hits, s.cache_hits + s.cache_misses)});
  out.push_back({"serving.cache.stale_hits", "count", s.stale_hits});
  out.push_back({"serving.queue.wait_ms.p50", "ms", 1e3 * median(s.wait_p50_s)});
  out.push_back({"serving.queue.wait_ms.p90", "ms", 1e3 * median(s.wait_p90_s)});
  out.push_back({"serving.queue.admitted", "count", s.queue_admitted});
  out.push_back({"serving.queue.shed", "count", s.queue_shed});
  out.push_back({"serving.queue.completed", "count", s.queue_completed});
  out.push_back({"serving.refresh.queued", "count", s.refresh_queued});
  out.push_back({"serving.refresh.shed", "count", s.refresh_shed});
  out.push_back({"serving.build_ms", "ms", 1e3 * ratio(s.build_seconds, s.builds)});
  out.push_back({"serving.flight.joins", "count", s.flight_joins});
  out.push_back({"serving.asset.hit_ratio", "ratio", ratio(s.asset_hits, s.asset_lookups)});
  out.push_back({"serving.asset.lookups", "count", s.asset_lookups});
  out.push_back({"serving.asset.resident_bytes", "bytes", s.asset_resident_bytes});
  out.push_back({"serving.cache.resident_bytes", "bytes", s.cache_resident_bytes});
  out.push_back({"core.build_tiers_ms", "ms", probe.build_tiers_ms});
  out.push_back({"core.stage1_ms", "ms", probe.stage1_ms});
  out.push_back({"core.stage2_ms", "ms", probe.stage2_ms});
  out.push_back({"core.prewarm_ms", "ms", probe.prewarm_ms});
  out.push_back({"core.ultra_ms", "ms", probe.ultra_ms});
  out.push_back({"core.quality_ms", "ms", probe.quality_ms});
  out.push_back({"imaging.encode_ms", "ms", probe.encode_ms});
  out.push_back({"imaging.ssim_ms", "ms", probe.ssim_ms});
  out.push_back({"imaging.prepare_ms", "ms", probe.prepare_ms});
  out.push_back({"imaging.encodes", "count", probe.encodes});
  out.push_back({"imaging.prepares", "count", probe.prepares});
  out.push_back({"imaging.encoded_bytes", "bytes", probe.encoded_bytes});
  out.push_back({"build.unattributed_ms", "ms", probe.unattributed_ms});
  out.push_back({"loadgen.lag_p99_ms", "ms", t.lag.percentile_nanos(0.99) * 1e-6});
  out.push_back({"trace.overhead_ratio", "ratio",
                 ratio(traced.latency_ms(0.50), untraced.latency_ms(0.50))});
  add_unbounded(traced, out);
}

/// Shared tail of every workload: outcome guards, partitions, result fields.
RunResult finish(const RunOptions& options, const Inputs& inputs,
                 const serving::OriginServer& origin, const std::vector<const Phase*>& phases,
                 double setup_s, const Probe* probe) {
  RunResult result;
  Tally checks;
  for (const Phase* phase : phases) checks.merge(phase->tally);
  if (const std::string error = partition_error(origin); !error.empty()) checks.fail(error);
  const Outcome outcome = verify_matrix(inputs, origin, checks);
  if (const std::string error = partition_error(origin); !error.empty()) checks.fail(error);

  const Phase& measured = *phases.front();
  if (options.trace) {
    add_per_layer(*phases.back(), measured, *probe, result.metrics);
  } else {
    add_end_to_end(measured, setup_s, outcome, result.metrics);
    add_unbounded(measured, result.detail);
  }
  result.detail.push_back({"savings_ratio", "ratio", outcome.savings_ratio});
  result.detail.push_back({"paw_met_ratio", "ratio", outcome.paw_met_ratio});
  result.detail.push_back({"matrix_answers", "count", static_cast<double>(inputs.matrix.size())});
  result.attempted = checks.attempted;
  result.failed = checks.failed;
  result.correct = checks.failed == 0;
  result.first_failure = checks.first_failure;
  result.outcome_digest = outcome.digest;
  return result;
}

RunResult run_reads(const RunOptions& options, bool storm) {
  double setup_s = 0.0;
  WarmState state = timed_setup<WarmState>(
      options.trace ? 1 : kSetupRepeats, [&] { return make_warm(options.seed); }, setup_s);
  const Inputs& inputs = *state.inputs;
  serving::OriginServer& origin = *state.origin;
  std::unique_ptr<Probe> probe;
  if (options.trace) probe = std::make_unique<Probe>(run_probe(inputs, storm ? 2 : 1));

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const double push_hz = storm ? options.push_hz : 0.0;
  const auto phase = [&](const Probe* traced, std::size_t first_push) {
    return open_loop_reads(inputs, origin, seconds, options.read_rps, push_hz, first_push,
                           traced);
  };
  const Phase measured = phase(nullptr, 0);
  if (!options.trace) return finish(options, inputs, origin, {&measured}, setup_s, nullptr);
  const Phase traced = phase(probe.get(), inputs.pushes.size() / 2);
  return finish(options, inputs, origin, {&measured, &traced}, setup_s, probe.get());
}

RunResult run_cold_build(const RunOptions& options) {
  double setup_s = 0.0;
  ColdState state = timed_setup<ColdState>(
      options.trace ? 1 : kSetupRepeats, [&] { return make_cold(options.seed); }, setup_s);
  const Inputs& inputs = *state.inputs;
  std::unique_ptr<Probe> probe;
  if (options.trace) probe = std::make_unique<Probe>(run_probe(inputs, 1));

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  std::uint64_t pass = 1;  // pass 0 was the set-up's warm-up
  std::unique_ptr<serving::OriginServer> last;
  const Phase measured = cold_passes(inputs, options.seed, seconds, pass, nullptr, last);
  if (!options.trace) return finish(options, inputs, *last, {&measured}, setup_s, nullptr);
  const Phase traced = cold_passes(inputs, options.seed, seconds, pass, probe.get(), last);
  return finish(options, inputs, *last, {&measured, &traced}, setup_s, probe.get());
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "warm_read") return run_reads(options, /*storm=*/false);
  if (options.workload == "push_storm") return run_reads(options, /*storm=*/true);
  if (options.workload == "cold_build") return run_cold_build(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
