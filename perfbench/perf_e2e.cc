// perf_e2e: end-to-end benchmark of the blackholing monitor.
//
// Drives the public api::AnalysisSession — kLiveFeed, 2 shards, a
// segment-log persist_dir with a checkpoint cadence, one subscribed
// counting sink, default §9 grouping — from MRT bytes, and reports:
//
//   --trace 0  end-to-end metrics (setup_s, resident_mb,
//              detect_p50/p99_ms), medians over the timed passes;
//   --trace 1  per-layer metrics: producer-side spans the harness
//              records around its own calls into each layer, plus one
//              telemetry() snapshot per traced pass (and gauge peaks
//              sampled from the same registry while it runs), and the
//              untraced passes' throughput and CPU per update.
//
//   perf_e2e --workload storm_replay|churn_replay|paced_monitor
//            --seed <n> --seconds <s> --trace 0|1
//            [--work-dir <dir>] [--smoke]
//
// A run builds its input from the seed, makes untimed warm-up passes in
// the same process (the first passes of a fresh process run far below
// the rest) and set-up probes, then spends --seconds on timed passes:
// closed-loop ones and a paced one (storm_replay, churn_replay) or a
// paced one alone (paced_monitor).  Every pass, the warm-ups included,
// goes through the correctness gate: the session's events against the sequential engine,
// its §9 groups against batch correlate()+group_events(), sink == store
// == spill == segment log, and no shed, lost or quarantined input.  The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; perfbench/README.md defines every metric.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/query.h"
#include "api/session.h"
#include "api/sink.h"
#include "storage/segment_reader.h"
#include "telemetry/metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bgpbh;
using perfbench::Input;
using perfbench::Reference;

namespace {

// ---- workload shapes ----------------------------------------------------
// Sizes and rates are fixed here so that every seed measures the same
// amount of work; --smoke shrinks them for the correctness smoke test.
//
// Latencies are measured open-loop in every workload: a closed loop
// runs the system saturated, where detection latency is only the
// backlog of whichever stage is nearest saturation, and reads from run
// to run like noise.  storm_replay and churn_replay therefore end with
// paced passes over the first dumps of their stream: storm_replay's
// take the last two thirds of --seconds, churn_replay's only
// kChurnPacedSeconds, since paced_monitor measures the churn mix's
// latencies at length and the closed loop is churn_replay's business.
// paced_monitor makes paced passes alone.  The rates sit well under
// closed-loop capacity: at twice the churn rate, detect_p99_ms followed
// few-ms scheduling hiccups of the producer thread and moved by a
// factor of two between runs.  The storm rate still carries about 5k
// blackholing events per second.
constexpr std::size_t kClosedUpdates = 200000;
constexpr double kPacedRate = 40000;       // updates/s, churn mix
constexpr double kStormPacedRate = 10000;  // updates/s, ~5k events/s
constexpr auto kPaceQuantum = std::chrono::milliseconds(1);
constexpr auto kQueryPeriod = std::chrono::milliseconds(4);
constexpr util::SimTime kQueryWindow = util::kHour;
constexpr std::size_t kMinReads = 1000;
constexpr std::size_t kMinClosedPasses = 5;
// Paced passes per untraced run; latency and memory are medians over
// them, so one slow stretch of the host moves one pass, not the result.
constexpr std::size_t kPacedPasses = 3;
constexpr double kChurnPacedSeconds = 7.5;
// Untimed closed-loop passes before timing, at least kWarmupPasses and
// kWarmupSeconds: the first passes of a process grow the allocator's
// heap and its per-thread arenas, and storm_replay ran at half speed
// for its first 2-3 s.
constexpr std::size_t kWarmupPasses = 3;
constexpr double kWarmupSeconds = 3;
// Set-up probes after the warm-up and after each paced pass (one more
// before each closed-loop pass): setup_s is their median.
constexpr std::size_t kSetupProbes = 5;
constexpr std::size_t kShards = 2;
constexpr double kUnattributedFlag = 0.10;

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Process CPU time, all threads: {user, system} seconds.
std::pair<double, double> cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

// CPU time of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// VmRSS / VmHWM from /proc/self/status, in KiB (0 when unreadable).
std::uint64_t status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

// Resets VmHWM to the current RSS (Linux clear_refs "5"), so the peak
// read after a pass belongs to that pass alone.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// Flushes the file system holding `dir`, so writes and deletes of
// earlier passes are not paid for by the next fsync.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Quantile of a registry histogram, interpolated linearly inside the
// bucket that holds it (the snapshot's own percentile() returns bucket
// upper bounds, which repeat exactly from run to run).
double hist_quantile(const telemetry::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t prev_cum = 0;
  for (const auto& [upper, cum] : h.buckets) {
    if (static_cast<double>(cum) >= target) {
      const std::size_t b = telemetry::LatencyHistogram::bucket_for(upper);
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(
                       telemetry::LatencyHistogram::bucket_upper_bound(b - 1));
      const double hi = static_cast<double>(upper);
      const double in_bucket = static_cast<double>(cum - prev_cum);
      const double frac =
          in_bucket > 0 ? (target - static_cast<double>(prev_cum)) / in_bucket
                        : 1.0;
      return std::clamp(lo + (hi - lo) * frac,
                        static_cast<double>(h.min), static_cast<double>(h.max));
    }
    prev_cum = cum;
  }
  return static_cast<double>(h.max);
}

// ---- tracing ------------------------------------------------------------
// Spans recorded by the harness around its own calls into each layer.
// Kept in memory per thread and written out when the run ends.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t items = 0;  // updates pushed / events returned
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Opens a span; returns its id (0 when tracing is off).
  std::uint32_t open(const char* name, std::uint32_t parent) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }
  void close(std::uint32_t id, std::uint64_t items = 0) {
    if (id == 0) return;
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = t;
    spans_[id - 1].items = items;
  }
  // Total duration and items of `name` spans under `parent`.
  std::pair<double, std::uint64_t> total(const char* name,
                                         std::uint32_t parent) const {
    std::lock_guard<std::mutex> lock(mu_);
    double ns = 0;
    std::uint64_t items = 0;
    for (const auto& s : spans_) {
      if (s.parent == parent && std::strcmp(s.name, name) == 0) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
        items += s.items;
      }
    }
    return {ns, items};
  }
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"items\": %llu}%s\n",
                   s.id, s.parent, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.items),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- the subscribed sink ------------------------------------------------
// Counts deliveries and stamps each closed event on arrival; the stamps
// are matched to the closing update after the pass.  The stamp buffer
// is sized and written up front, so its pages are resident before a
// pass's memory baseline is taken.
class CountingSink : public api::EventSink {
 public:
  explicit CountingSink(std::size_t expected) : stamps_(expected) {}
  void on_event_closed(const core::PeerEvent& e) override {
    const std::pair<std::uint64_t, std::uint64_t> stamp{
        perfbench::closer_key(e), now_ns()};
    if (delivered_ < stamps_.size()) {
      stamps_[delivered_] = stamp;
    } else {
      stamps_.push_back(stamp);
    }
    ++delivered_;
  }
  std::size_t delivered() const { return delivered_; }
  // The stamps of the delivered events, in arrival order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> arrivals() const {
    return {stamps_.begin(),
            stamps_.begin() + static_cast<std::ptrdiff_t>(delivered_)};
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps_;
  std::size_t delivered_ = 0;
};

// A stop flag a sleeping thread can be woken by.
class Stop {
 public:
  void set() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }
  // Sleeps until `t` or until set(); true when set.
  bool wait_until(Clock::time_point t) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, t, [this] { return stopped_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

// ---- run configuration ----------------------------------------------------
enum class Workload { kStorm, kChurn, kPaced };

struct Options {
  Workload workload = Workload::kStorm;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
};

// Outcome of one pass.
struct Pass {
  bool paced = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_ns_per_update = 0;
  double sys_share = 0;  // system share of the CPU time
  double resident_mb = 0;
  double updates_per_s = 0;
  std::vector<double> detect_ms;
  double late_p99_ms = 0;       // paced passes: how late sends ran
  double read_late_p99_ms = 0;  // paced passes: how late reads started
  double reader_cpu_s = 0;      // paced passes: the reader thread's CPU
  std::vector<double> query_ms;
  std::uint64_t checkpoints = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // traced passes only
};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void add(const Pass& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (!p.failures.empty()) correct = false;
  }
};

// One input and its sequential reference.
struct Workset {
  Input input;
  Reference ref;
};

class Harness {
 public:
  explicit Harness(Options opt) : opt_(std::move(opt)), spans_(opt_.trace) {}

  static api::SessionConfig session_config(const Input& input,
                                           const std::string& dir) {
    api::SessionConfig c;
    c.mode = api::SessionConfig::Mode::kLiveFeed;
    c.study = input.study;
    c.num_shards = kShards;
    c.persist_dir = dir;
    // One cadence cut per pass, at >= 0.6 N accepted updates: a second
    // would need 1.2 N, and the last 0.4 N leave the 20 ms cadence poll
    // time to see the first, so the count does not drift with timing.
    c.checkpoint_every = std::max<std::uint64_t>(input.updates * 3 / 5, 1);
    return c;
  }

  double setup_probe(const Input& input, std::size_t n) {
    const std::string dir = pass_dir("setup", n);
    CountingSink sink(0);
    const std::uint64_t t0 = now_ns();
    double setup = 0;
    {
      api::AnalysisSession session(session_config(input, dir));
      session.subscribe(sink);
      session.start();
      setup = static_cast<double>(now_ns() - t0) / 1e9;
      session.close(input.close_time);
    }
    std::filesystem::remove_all(dir);
    return setup;
  }

  // One pass: fresh session, timed ingest of the whole input, gate.
  // `rate` > 0 paces the feed at that many updates/s (open loop, with
  // concurrent reads) and measures the resident peak; 0 feeds it as
  // fast as the session accepts.
  Pass run_pass(const Workset& w, std::size_t n, double rate, bool traced) {
    Pass pass;
    pass.paced = rate > 0;
    const bool paced = pass.paced;
    const std::string dir = pass_dir("pass", n);
    const std::uint32_t pass_span =
        traced ? spans_.open(paced ? "bench.paced_pass" : "bench.pass", 0) : 0;
    CountingSink sink(w.ref.events.size() + 1024);
    std::string error;
    // A paced pass decodes every dump before the session is built: an
    // open-loop feed's decode is not on its latency path, and the
    // decoded feed is input, not the session's memory.  (Closed-loop
    // passes decode dump by dump inside the timed interval.)  The
    // decoded input outlives close(), so releasing it is not timed and
    // does not hold back the last events' delivery.
    std::vector<perfbench::Slice> slices;
    std::vector<float> late_ms;
    std::uint64_t base_kib = 0;
    bool hwm_ok = false;
    if (paced) {
      const std::uint32_t span =
          traced ? spans_.open("bgp.decode", pass_span) : 0;
      for (const auto& raw : w.input.slices) {
        auto slice = perfbench::decode(raw, &error);
        if (!slice) break;
        slices.push_back(std::move(*slice));
      }
      spans_.close(span);
      late_ms.assign(w.input.updates, 0.0f);
      // Resident baseline: the MRT bytes, the reference, the decoded
      // feed and the harness's own buffers are in memory; nothing of
      // the session is.  The trim returns what earlier passes left
      // with the allocator.
      malloc_trim(0);
      base_kib = status_kib("VmRSS");
      hwm_ok = reset_peak_rss();
    }

    const std::uint64_t s0 = now_ns();
    api::AnalysisSession session(session_config(w.input, dir));
    session.subscribe(sink);
    session.start();
    pass.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

    Sampler sampler(session, traced);
    const auto cpu0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    std::uint64_t accepted = 0;
    std::uint64_t sched0 = 0;
    double period_ns = 0;
    if (!paced) {
      // Dump by dump: decode one slice, feed it, let it go.  The
      // decode span also covers releasing the previous decoded slice.
      std::vector<perfbench::Slice> one;
      for (const auto& raw : w.input.slices) {
        std::uint32_t span = traced ? spans_.open("bgp.decode", pass_span) : 0;
        one.clear();
        auto slice = perfbench::decode(raw, &error);
        if (slice) one.push_back(std::move(*slice));
        spans_.close(span);
        if (!slice) break;
        perfbench::MergedSource merged(one);
        span = traced ? spans_.open("api.feed", pass_span) : 0;
        const std::uint64_t fed = session.feed(merged);
        spans_.close(span, fed);
        accepted += fed;
      }
      const std::uint32_t span =
          traced ? spans_.open("bgp.decode", pass_span) : 0;
      one.clear();
      spans_.close(span);
    } else if (error.empty()) {
      perfbench::MergedSource merged(slices);
      period_ns = 1e9 / rate;
      sched0 = now_ns() + 1000000;
      std::atomic<util::SimTime> sim_now{w.input.first_time};
      Stop stop;
      std::thread reader([&] {
        read_loop(w, session, sched0, stop, sim_now, pass, traced, pass_span);
      });
      try {
        accepted = paced_feed(session, merged, sched0, period_ns, sim_now,
                              late_ms, traced, pass_span);
      } catch (...) {
        stop.set();
        reader.join();
        throw;
      }
      stop.set();
      reader.join();
    }
    if (!error.empty()) fail(pass, "decode: " + error);
    // The resident peak of a running monitor: up to the end of the
    // feed, before close() merges the store for the final reads.
    const std::uint64_t hwm_kib = status_kib("VmHWM");
    const std::uint32_t span =
        traced ? spans_.open("api.close", pass_span) : 0;
    session.close(w.input.close_time);
    spans_.close(span);
    const std::uint64_t t1 = now_ns();
    const auto cpu1 = cpu_seconds();
    spans_.close(pass_span, w.input.updates);
    sampler.stop();

    pass.wall_s = static_cast<double>(t1 - t0) / 1e9;
    pass.updates_per_s = static_cast<double>(w.input.updates) / pass.wall_s;
    // The feed's cost: everything but the reader, whose reads are the
    // api.query_* metrics' business.
    const double user = cpu1.first - cpu0.first;
    const double sys = cpu1.second - cpu0.second;
    pass.cpu_ns_per_update = (user + sys - pass.reader_cpu_s) * 1e9 /
                             static_cast<double>(w.input.updates);
    pass.sys_share = user + sys > 0 ? sys / (user + sys) : 0;
    if (paced) {
      pass.resident_mb =
          hwm_ok && hwm_kib > base_kib
              ? static_cast<double>(hwm_kib - base_kib) / 1024.0
              : 0.0;
      if (pass.resident_mb <= 0) fail(pass, "peak RSS unavailable");
    }
    pass.attempted += w.input.updates;
    if (accepted != w.input.updates) {
      pass.failed += w.input.updates - accepted;
      pass.failures.push_back("refused updates: " +
                              std::to_string(w.input.updates - accepted));
    }
    pass.checkpoints = session.checkpoints_written();

    // Detection latency: from the closing update's scheduled send time
    // to the sink's arrival stamp.  Force-closed events (end ==
    // close_time) have no closing update and are left out.
    for (const auto& [key, arrival] : sink.arrivals()) {
      if (!paced) break;
      auto it = w.ref.closer_index.find(key);
      if (it == w.ref.closer_index.end()) continue;
      const double due = static_cast<double>(sched0) +
                         period_ns * static_cast<double>(it->second);
      pass.detect_ms.push_back((static_cast<double>(arrival) - due) / 1e6);
    }
    if (paced && pass.detect_ms.empty()) {
      fail(pass, "no detection-latency samples");
    }

    if (paced) {
      std::vector<double> late(late_ms.begin(), late_ms.end());
      pass.late_p99_ms = quantile(late, 0.99);
    }
    gate(w, session, sink, dir, pass);
    if (traced) layer_metrics(w, session, sampler, pass, pass_span);
    std::filesystem::remove_all(dir);
    return pass;
  }

  SpanLog& spans() { return spans_; }

 private:
  // Samples gauge peaks from the session's registry on traced passes.
  class Sampler {
   public:
    Sampler(api::AnalysisSession& session, bool enabled) : session_(session) {
      if (!enabled) return;
      thread_ = std::thread([this] {
        do {
          sample();
        } while (!stop_.wait_until(Clock::now() + std::chrono::milliseconds(5)));
      });
    }
    ~Sampler() { stop(); }
    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;
    void stop() {
      stop_.set();
      if (thread_.joinable()) thread_.join();
    }
    double peak(const std::string& name) const {
      auto it = peaks_.find(name);
      return it == peaks_.end() ? 0.0 : it->second;
    }

   private:
    void sample() {
      const auto snap = session_.telemetry().snapshot();
      for (const char* name :
           {"stream.shard.open_events", "api.dispatch.lag_events",
            "storage.spill.queue_chunks"}) {
        double& p = peaks_[name];
        p = std::max(p, snap.value_or(name));
      }
    }
    api::AnalysisSession& session_;
    std::map<std::string, double> peaks_;
    Stop stop_;
    std::thread thread_;
  };

  std::string pass_dir(const char* what, std::size_t n) const {
    return opt_.work_dir + "/" + what + "-" + std::to_string(n);
  }

  static void fail(Pass& pass, std::string why) {
    ++pass.failed;
    pass.failures.push_back(std::move(why));
  }

  // Open-loop producer: update i is due at sched0 + i * period.  The
  // thread sleeps (never spins) until the next update is due, at least
  // kPaceQuantum at a time, then pushes every update that is due.  How
  // late update i went out is written to late_ms[i].
  std::uint64_t paced_feed(api::AnalysisSession& session,
                           stream::UpdateSource& source, std::uint64_t sched0,
                           double period_ns,
                           std::atomic<util::SimTime>& sim_now,
                           std::vector<float>& late_ms, bool traced,
                           std::uint32_t parent) {
    auto due_ns = [&](std::size_t k) {
      return static_cast<double>(sched0) + period_ns * static_cast<double>(k);
    };
    std::uint64_t accepted = 0;
    std::size_t i = 0;
    auto last_wake = Clock::now();
    const routing::FeedUpdate* fu = source.next();
    while (fu != nullptr) {
      const Clock::time_point due(
          std::chrono::nanoseconds(static_cast<std::uint64_t>(due_ns(i))));
      if (due > Clock::now()) {
        const std::uint32_t s =
            traced ? spans_.open("gen.pace_sleep", parent) : 0;
        std::this_thread::sleep_until(std::max(due, last_wake + kPaceQuantum));
        spans_.close(s);
        last_wake = Clock::now();
      }
      const std::uint32_t s = traced ? spans_.open("api.push", parent) : 0;
      const std::uint64_t burst_start = now_ns();
      std::size_t burst = 0;
      util::SimTime latest = 0;
      while (fu != nullptr) {
        const double due_i = due_ns(i);
        if (due_i > static_cast<double>(burst_start)) break;
        if (i < late_ms.size()) {
          late_ms[i] = static_cast<float>(
              (static_cast<double>(burst_start) - due_i) / 1e6);
        }
        latest = fu->update.time;
        if (session.push(*fu)) ++accepted;
        fu = source.next();
        ++i;
        ++burst;
      }
      spans_.close(s, burst);
      if (burst > 0) sim_now.store(latest, std::memory_order_relaxed);
    }
    return accepted;
  }

  // Open-loop reader: one recent-window read due every kQueryPeriod
  // while the producer runs, each timed from its issue to its return.
  // Reads take a fraction of the period, so a read starts late only
  // when the reader thread itself was held up — by the timer's wake-up
  // (50-100 us here) or by a pause of the whole VM (up to 11 ms); timed
  // from the schedule, those moved the read p99 by 200% between runs.
  // How late reads start is reported as gen.read_late_p99_ms.  The
  // reader's own CPU time is kept apart from the feed's.  Mid-stream a
  // read can only be checked for containment in the reference.
  void read_loop(const Workset& w, api::AnalysisSession& session,
                 std::uint64_t sched0, Stop& stop,
                 const std::atomic<util::SimTime>& sim_now, Pass& pass,
                 bool traced, std::uint32_t parent) {
    const double cpu0 = thread_cpu_seconds();
    std::vector<double> latencies, late;
    std::uint64_t attempted = 0, failed = 0;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due_ns =
          sched0 + k * static_cast<std::uint64_t>(
                           std::chrono::nanoseconds(kQueryPeriod).count());
      if (stop.wait_until(Clock::time_point(std::chrono::nanoseconds(due_ns)))) {
        break;
      }
      const std::uint64_t issue = now_ns();
      const util::SimTime hi = sim_now.load(std::memory_order_relaxed) + 1;
      const util::SimTime lo = hi - kQueryWindow;
      const std::uint32_t s = traced ? spans_.open("api.query", parent) : 0;
      std::vector<core::PeerEvent> got;
      bool threw = false;
      try {
        got = session.events(api::EventQuery().between(lo, hi));
      } catch (const std::exception&) {
        threw = true;
      }
      const std::uint64_t end = now_ns();
      spans_.close(s, got.size());
      ++attempted;
      latencies.push_back(static_cast<double>(end - issue) / 1e6);
      late.push_back(static_cast<double>(issue - std::min(issue, due_ns)) / 1e6);
      if (threw || !contained(w.ref, got, lo, hi)) ++failed;
    }
    pass.query_ms = std::move(latencies);
    pass.read_late_p99_ms = quantile(late, 0.99);
    pass.reader_cpu_s = thread_cpu_seconds() - cpu0;
    pass.attempted += attempted;
    if (failed > 0) {
      pass.failed += failed;
      pass.failures.push_back(std::to_string(failed) + " reads disagreed");
    }
  }

  // Every event overlaps [lo, hi) and is one the reference produced.
  static bool contained(const Reference& ref,
                        const std::vector<core::PeerEvent>& got,
                        util::SimTime lo, util::SimTime hi) {
    for (const auto& e : got) {
      if (!core::overlaps_window(e.start, e.end, lo, hi)) return false;
      auto it = std::lower_bound(ref.events.begin(), ref.events.end(), e,
                                 core::canonical_less);
      if (it == ref.events.end() || !(*it == e)) return false;
    }
    return true;
  }

  // The correctness gate.
  void gate(const Workset& w, api::AnalysisSession& session,
            const CountingSink& sink,
            const std::string& dir, Pass& pass) {
    const std::vector<core::PeerEvent> got = session.events();
    if (got != w.ref.events) {
      std::vector<core::PeerEvent> diff;
      std::set_symmetric_difference(got.begin(), got.end(),
                                    w.ref.events.begin(), w.ref.events.end(),
                                    std::back_inserter(diff),
                                    core::canonical_less);
      const std::size_t n = std::max<std::size_t>(diff.size(), 1);
      pass.failed += n;
      pass.failures.push_back(std::to_string(n) +
                              " events differ from the sequential engine");
    }
    if (session.grouped_events() != w.ref.grouped) {
      fail(pass, "grouped_events() differs from batch correlate+group_events");
    }
    const std::uint64_t stored = got.size();
    const auto segments = storage::SegmentSet::open(dir);
    const std::uint64_t on_disk = segments ? segments->size() : 0;
    if (sink.delivered() != stored || session.events_persisted() != stored ||
        on_disk != stored) {
      const std::uint64_t worst = std::max(
          {stored - std::min<std::uint64_t>(stored, sink.delivered()),
           stored - std::min<std::uint64_t>(stored, session.events_persisted()),
           stored - std::min<std::uint64_t>(stored, on_disk),
           std::uint64_t{1}});
      pass.failed += worst;
      pass.failures.push_back(
          "conservation: stored " + std::to_string(stored) + ", delivered " +
          std::to_string(sink.delivered()) + ", persisted " +
          std::to_string(session.events_persisted()) + ", on disk " +
          std::to_string(on_disk));
    }
    const std::uint64_t lossy =
        session.events_shed() + session.events_lost() + session.poison_rejected();
    if (lossy > 0) {
      pass.failed += lossy;
      pass.failures.push_back("shed/lost/poison: " + std::to_string(lossy));
    }
    pass.attempted += w.ref.events.size();
  }

  void layer_metrics(const Workset& w, api::AnalysisSession& session,
                     const Sampler& sampler,
                     Pass& pass, std::uint32_t pass_span) {
    const auto snap = session.telemetry().snapshot();
    auto hist = [&](const char* name) -> telemetry::HistogramSnapshot {
      const auto* m = snap.find(name);
      return m ? m->hist : telemetry::HistogramSnapshot{};
    };
    auto shard_values = [&](const char* name) {
      std::vector<double> v;
      if (const auto* m = snap.find(name)) {
        for (const auto& [shard, value] : m->per_shard) v.push_back(value);
      }
      return v;
    };
    const double n = static_cast<double>(w.input.updates);
    const double wall_ns = pass.wall_s * 1e9;
    auto& L = pass.layer;

    const auto [decode_ns, decoded] = spans_.total("bgp.decode", pass_span);
    const auto [feed_ns, fed] = spans_.total("api.feed", pass_span);
    const auto [push_ns, pushed] = spans_.total("api.push", pass_span);
    const auto [close_ns, closes] = spans_.total("api.close", pass_span);
    const auto [sleep_ns, sleeps] = spans_.total("gen.pace_sleep", pass_span);
    (void)decoded, (void)fed, (void)pushed, (void)closes, (void)sleeps;
    L["bgp.decode_ns_per_update"] = decode_ns / n;
    L["api.push_ns_per_update"] = (feed_ns + push_ns) / n;
    L["api.close_ms"] = close_ns / 1e6;
    // A paced pass decodes before its timed interval.
    const double unattributed = wall_ns - (pass.paced ? 0 : decode_ns) -
                                feed_ns - push_ns - close_ns - sleep_ns;
    L["api.unattributed_ms"] = unattributed / 1e6;
    if (unattributed > kUnattributedFlag * wall_ns) {
      std::fprintf(stderr,
                   "perf_e2e: WARNING producer spans leave %.1f%% of the "
                   "timed interval unattributed\n",
                   100.0 * unattributed / wall_ns);
    }

    const auto batch = hist("stream.worker.batch_ns");
    L["stream.worker.busy_share"] =
        static_cast<double>(batch.sum) / (wall_ns * kShards);
    L["stream.worker.batch_p99_us"] = hist_quantile(batch, 0.99) / 1e3;
    const auto processed = shard_values("stream.shard.processed");
    double sum = 0, mx = 0;
    for (double v : processed) sum += v, mx = std::max(mx, v);
    L["stream.shard.skew"] =
        sum > 0 ? mx / (sum / static_cast<double>(processed.size())) : 0;
    L["stream.queue.producer_stalls_per_kupdate"] =
        snap.value_or("stream.queue.producer_stalls") * 1e3 / n;
    L["stream.queue.wakes_per_kupdate"] =
        (snap.value_or("stream.queue.producer_wakes") +
         snap.value_or("stream.queue.consumer_wakes")) *
        1e3 / n;
    const auto peaks = shard_values("stream.queue.peak");
    L["stream.queue.peak"] =
        peaks.empty() ? 0 : *std::max_element(peaks.begin(), peaks.end());

    L["core.engine_ns_per_update"] =
        w.ref.engine_seconds * 1e9 / static_cast<double>(w.ref.updates);
    L["core.events_per_kupdate"] =
        static_cast<double>(w.ref.events.size()) * 1e3 / n;
    L["core.open_events_peak"] = sampler.peak("stream.shard.open_events");

    L["api.dispatch.deliver_p99_us"] =
        hist_quantile(hist("api.dispatch.deliver_ns"), 0.99) / 1e3;
    L["api.dispatch.lag_peak_events"] = sampler.peak("api.dispatch.lag_events");
    L["e2e.detect_p99_ms_inproc"] =
        hist_quantile(hist("e2e.detect_latency_ns"), 0.99) / 1e6;
    L["e2e.delivery_p99_ms_inproc"] =
        hist_quantile(hist("e2e.delivery_latency_ns"), 0.99) / 1e6;
    const auto [query_ns, returned] = spans_.total("api.query", pass_span);
    // Only the pass that ran reads reports their cost.
    if (returned > 0) {
      L["api.query_us_per_kevent"] =
          (query_ns / 1e3) / (static_cast<double>(returned) / 1e3);
    }
    if (!pass.query_ms.empty()) {
      L["api.query_p50_ms"] = quantile(pass.query_ms, 0.5);
      L["api.query_p99_ms"] = quantile(pass.query_ms, 0.99);
    }

    L["storage.spill.append_p99_us"] =
        hist_quantile(hist("storage.spill.append_ns"), 0.99) / 1e3;
    L["storage.spill.sync_p99_us"] =
        hist_quantile(hist("storage.spill.sync_ns"), 0.99) / 1e3;
    L["storage.bytes_per_event"] =
        session.events_persisted() > 0
            ? static_cast<double>(session.persisted_bytes()) /
                  static_cast<double>(session.events_persisted())
            : 0;
    L["storage.spill.queue_peak_chunks"] =
        sampler.peak("storage.spill.queue_chunks");

    // The bootstrap cut at construction is setup; count cadence cuts.
    L["recovery.checkpoints"] =
        static_cast<double>(pass.checkpoints > 0 ? pass.checkpoints - 1 : 0);
    L["recovery.checkpoint_p50_ms"] =
        hist_quantile(hist("recovery.checkpoint.duration_ns"), 0.5) / 1e6;

    L["gen.late_p99_ms"] = pass.late_p99_ms;
    L["gen.read_late_p99_ms"] = pass.read_late_p99_ms;
  }

  Options opt_;
  SpanLog spans_;
};

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (arg == "--workload") {
      opt.workload_name = v;
      have_workload = true;
      if (opt.workload_name == "storm_replay") {
        opt.workload = Workload::kStorm;
      } else if (opt.workload_name == "churn_replay") {
        opt.workload = Workload::kChurn;
      } else if (opt.workload_name == "paced_monitor") {
        opt.workload = Workload::kPaced;
      } else {
        return false;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
      if (!(opt.seconds > 0)) return false;
    } else if (arg == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_metric(std::string& out, const std::string& name, double value,
                  const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name.c_str(), value, unit);
  out += buf;
}

// Per-layer metrics that describe the latency path: in storm_replay and
// churn_replay they come from the paced pass, the rest from the traced
// closed-loop passes.
bool latency_layer(const std::string& name) {
  static const char* const kNames[] = {
      "stream.worker.batch_p99_us", "stream.queue.peak",
      "api.dispatch.deliver_p99_us", "api.dispatch.lag_peak_events",
      "e2e.detect_p99_ms_inproc", "e2e.delivery_p99_ms_inproc",
      "api.query_us_per_kevent", "api.query_p50_ms", "api.query_p99_ms",
      "gen.late_p99_ms", "gen.read_late_p99_ms"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

const std::map<std::string, const char*>& layer_units() {
  static const std::map<std::string, const char*> kUnits = {
      {"bgp.decode_ns_per_update", "ns"},
      {"api.push_ns_per_update", "ns"},
      {"api.close_ms", "ms"},
      {"api.unattributed_ms", "ms"},
      {"stream.worker.busy_share", "ratio"},
      {"stream.worker.batch_p99_us", "us"},
      {"stream.shard.skew", "ratio"},
      {"stream.queue.producer_stalls_per_kupdate", "count"},
      {"stream.queue.wakes_per_kupdate", "count"},
      {"stream.queue.peak", "count"},
      {"core.engine_ns_per_update", "ns"},
      {"core.events_per_kupdate", "count"},
      {"core.open_events_peak", "count"},
      {"api.dispatch.deliver_p99_us", "us"},
      {"api.dispatch.lag_peak_events", "count"},
      {"e2e.detect_p99_ms_inproc", "ms"},
      {"e2e.delivery_p99_ms_inproc", "ms"},
      {"api.query_us_per_kevent", "us"},
      {"api.query_p50_ms", "ms"},
      {"api.query_p99_ms", "ms"},
      {"storage.spill.append_p99_us", "us"},
      {"storage.spill.sync_p99_us", "us"},
      {"storage.bytes_per_event", "count"},
      {"storage.spill.queue_peak_chunks", "count"},
      {"recovery.checkpoints", "count"},
      {"recovery.checkpoint_p50_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"gen.read_late_p99_ms", "ms"},
      {"bench.ingest_updates_per_s", "updates/s"},
      {"bench.cpu_ns_per_update", "ns"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kUnits;
}

int run(const Options& opt) {
  const bool monitor = opt.workload == Workload::kPaced;
  const bool storm = opt.workload == Workload::kStorm;
  const double seconds = opt.smoke ? 1.5 : opt.seconds;
  const std::size_t closed_updates =
      opt.smoke ? kClosedUpdates / 20 : kClosedUpdates;
  const double rate = storm ? kStormPacedRate : kPacedRate;
  // Time in paced passes: all of paced_monitor's --seconds, the last
  // two thirds of storm_replay's, kChurnPacedSeconds of churn_replay's.
  // It is split into kPacedPasses passes over the same input; a traced
  // run makes one pass of that length (paced_monitor: an untraced and a
  // traced one).
  const double paced_seconds =
      monitor ? seconds
      : storm ? seconds * 2 / 3
              : (opt.smoke ? 0.5 : kChurnPacedSeconds);
  const std::size_t paced_passes =
      opt.trace ? (monitor ? 2 : 1) : kPacedPasses;
  const auto paced_updates = static_cast<std::size_t>(
      paced_seconds / static_cast<double>(kPacedPasses) * rate);
  const auto g0 = Clock::now();
  auto make_workset = [&](Input input) {
    Workset w{std::move(input), {}};
    core::Study substrates(w.input.study);
    w.ref = perfbench::make_reference(w.input, substrates);
    return w;
  };
  const Workset full = make_workset(perfbench::make_input(
      storm ? perfbench::Kind::kStorm : perfbench::Kind::kChurn, opt.seed,
      std::max(closed_updates, paced_updates)));
  // Closed-loop and paced passes replay the first dumps of one stream.
  auto first = [&](std::size_t updates) -> std::optional<Workset> {
    if (full.input.updates <= updates + perfbench::kSliceUpdates) {
      return std::nullopt;
    }
    return make_workset(perfbench::head(full.input, updates));
  };
  const std::optional<Workset> closed_head = first(closed_updates);
  const std::optional<Workset> paced_head = first(paced_updates);
  const Workset& closed_set = closed_head ? *closed_head : full;
  const Workset& paced_set = paced_head ? *paced_head : full;
  std::fprintf(stderr,
               "perf_e2e: %s seed %llu: %zu x %zu updates paced at %.0f/s "
               "(%zu reference events), %zu closed-loop (%zu), input ready "
               "in %.2f s\n",
               opt.workload_name.c_str(),
               static_cast<unsigned long long>(opt.seed), paced_passes,
               paced_set.input.updates, rate, paced_set.ref.events.size(),
               closed_set.input.updates, closed_set.ref.events.size(),
               std::chrono::duration<double>(Clock::now() - g0).count());

  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  Harness harness(opt);
  Totals totals;
  auto report = [&](const char* what, const Pass& p) {
    std::fprintf(stderr,
                 "perf_e2e:   %-8s setup %.3f s  wall %.3f s  %.0f upd/s  "
                 "cpu %.0f ns/upd (sys %.0f%%)  rss %.1f MiB  detect p50 %.2f ms  "
                 "p99 %.2f ms  late p99 %.2f ms  reads %zu  checkpoints %llu%s\n",
                 what, p.setup_s, p.wall_s, p.updates_per_s,
                 p.cpu_ns_per_update, 100 * p.sys_share, p.resident_mb, median(p.detect_ms),
                 quantile(p.detect_ms, 0.99), p.late_p99_ms, p.query_ms.size(),
                 static_cast<unsigned long long>(p.checkpoints),
                 p.failures.empty() ? "" : "  FAILED");
    for (const auto& f : p.failures) {
      std::fprintf(stderr, "perf_e2e:     gate: %s\n", f.c_str());
    }
    totals.add(p);
  };

  // Warm-up: same input, same process, untimed, closed loop.
  std::size_t n = 1;
  const auto w0 = Clock::now();
  for (std::size_t k = 0;
       opt.smoke ? k < 1
                 : (k < kWarmupPasses ||
                    std::chrono::duration<double>(Clock::now() - w0).count() <
                        kWarmupSeconds);
       ++k) {
    report("warm-up", harness.run_pass(closed_set, n++, 0, false));
  }
  // Set-up probes, spread over the run: a 20 ms set-up follows the
  // host's speed at the moment, which drifts over seconds.
  std::vector<double> setups;
  auto probe = [&](std::size_t count) {
    sync_dir(opt.work_dir);
    for (std::size_t k = 0; k < count; ++k) {
      setups.push_back(harness.setup_probe(closed_set.input, setups.size()));
    }
  };
  probe(kSetupProbes);

  // Closed-loop passes (storm/churn) until the time left is the paced
  // passes'; traced runs alternate untraced and traced passes.
  std::vector<Pass> closed, paced;
  if (!monitor) {
    const std::size_t min_passes =
        (opt.smoke ? 1 : kMinClosedPasses) * (opt.trace ? 2 : 1);
    const double budget = opt.smoke ? 0.0 : seconds - paced_seconds;
    const auto m0 = Clock::now();
    while (closed.size() < min_passes ||
           std::chrono::duration<double>(Clock::now() - m0).count() < budget) {
      const bool traced = opt.trace && n % 2 == 0;
      probe(1);
      closed.push_back(harness.run_pass(closed_set, n++, 0, traced));
      report(traced ? "traced" : "timed", closed.back());
    }
  }
  // The paced passes.  A traced run traces its last one, after an
  // untraced twin for paced_monitor (whose traced run has no
  // closed-loop passes to compare the tracing overhead against).
  for (std::size_t k = 0; k < paced_passes; ++k) {
    const bool traced = opt.trace && k + 1 == paced_passes;
    paced.push_back(harness.run_pass(paced_set, n++, rate, traced));
    report(traced ? "paced+tr" : "paced", paced.back());
    // After the pass: probes just before one moved its resident peak
    // by 30%, through the allocator state their sessions left.
    probe(kSetupProbes);
  }

  std::fprintf(stderr,
               "perf_e2e:   %zu set-up probes: min %.4f s  median %.4f s  "
               "max %.4f s\n",
               setups.size(), *std::min_element(setups.begin(), setups.end()),
               median(setups), *std::max_element(setups.begin(), setups.end()));
  // Throughput and CPU come from the closed loop where there is one;
  // paced_monitor reports its paced passes.  They are per-layer metrics
  // (README: "Throughput and CPU are not end-to-end metrics").  The
  // resident peak is the paced passes' in every workload (no backlog
  // transients, and each baseline follows a heap trim).
  const std::vector<Pass>& loop = monitor ? paced : closed;
  std::size_t reads = 0;
  for (const Pass& p : paced) reads += p.query_ms.size();
  if (reads < kMinReads && !opt.smoke && !opt.trace) {
    totals.correct = false;
    std::fprintf(stderr, "perf_e2e: only %zu reads (need %zu)\n", reads,
                 kMinReads);
  }
  std::string metrics;
  if (!opt.trace) {
    std::vector<double> rate_v, cpu, rss;
    for (const Pass& p : loop) {
      rate_v.push_back(p.updates_per_s);
      cpu.push_back(p.cpu_ns_per_update);
    }
    std::fprintf(stderr,
                 "perf_e2e: %s: median pass %.0f updates/s, %.0f ns of CPU "
                 "per update\n",
                 opt.workload_name.c_str(), median(rate_v), median(cpu));
    for (const Pass& p : paced) rss.push_back(p.resident_mb);
    std::vector<double> detect_p50, detect_p99;
    std::size_t samples = 0;
    for (const Pass& p : paced) {
      detect_p50.push_back(quantile(p.detect_ms, 0.5));
      detect_p99.push_back(quantile(p.detect_ms, 0.99));
      samples += p.detect_ms.size();
    }
    print_metric(metrics, "setup_s", median(setups), "s");
    // The largest pass peak: a pass that reuses memory earlier passes
    // left resident reads low, never high.
    print_metric(metrics, "resident_mb",
                 *std::max_element(rss.begin(), rss.end()), "MiB");
    print_metric(metrics, "detect_p50_ms", median(detect_p50), "ms");
    print_metric(metrics, "detect_p99_ms", median(detect_p99), "ms");
    std::fprintf(stderr,
                 "perf_e2e: %s: %zu detection samples over %zu paced "
                 "pass(es)\n",
                 opt.workload_name.c_str(), samples, paced.size());
  } else {
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> traced_cpu;
    for (const Pass& p : loop) {
      if (!p.layer.empty()) {
        traced_cpu.push_back(p.cpu_ns_per_update);
        continue;
      }
      layers["bench.ingest_updates_per_s"].push_back(p.updates_per_s);
      layers["bench.cpu_ns_per_update"].push_back(p.cpu_ns_per_update);
    }
    for (const std::vector<Pass>* set : {&closed, &paced}) {
      const bool from_paced = set == &paced;
      for (const Pass& p : *set) {
        for (const auto& [k, v] : p.layer) {
          if (monitor || latency_layer(k) == from_paced) layers[k].push_back(v);
        }
      }
    }
    const double untraced = median(layers["bench.cpu_ns_per_update"]);
    layers["bench.trace_overhead_pct"].push_back(
        untraced > 0 ? 100.0 * (median(traced_cpu) - untraced) / untraced : 0);
    for (const auto& [name, unit] : layer_units()) {
      auto it = layers.find(name);
      if (it == layers.end()) {
        totals.correct = false;
        std::fprintf(stderr, "perf_e2e: per-layer metric %s missing\n",
                     name.c_str());
        continue;
      }
      print_metric(metrics, name, median(it->second), unit);
    }
    const std::string trace_path = opt.work_dir + "-trace.json";
    if (!harness.spans().write(trace_path)) {
      std::fprintf(stderr, "perf_e2e: cannot write %s\n", trace_path.c_str());
    }
  }
  std::filesystem::remove_all(opt.work_dir);

  std::printf("{\"meta\": {\"hardware_threads\": %u, \"build_type\": \"%s\", "
              "\"closed_passes\": %zu, \"paced_passes\": %zu}}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              closed.size(), paced.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              totals.correct && totals.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perf_e2e: refusing to measure an unoptimized build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perf_e2e --workload storm_replay|churn_replay|"
                 "paced_monitor --seed <n> --seconds <s> --trace 0|1 "
                 "[--work-dir <dir>] [--smoke]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s\n", e.what());
    return 1;
  }
}
