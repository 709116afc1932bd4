// Shared declarations of the end-to-end benchmark (README.md).
//
// The benchmark drives PARDIS only through its public API: it builds the
// seeded inputs, wraps its own spans around calls into each module, reads
// public counters (MetricsRegistry::snapshot, getrusage) and checks every
// reply against values it computed itself.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pardis/obs/metrics.hpp"

namespace spmdbench {

using Clock = std::chrono::steady_clock;

/// Fails the run: the message goes to stderr and the process exits nonzero
/// without printing a result line.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed(`what`) unless `ok`.
void check(bool ok, const std::string& what);

/// splitmix64: the one generator behind every seeded input.
std::uint64_t mix(std::uint64_t x);

/// FNV-1a over a byte range: the echo checksum both sides compute.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

double seconds_between(Clock::time_point a, Clock::time_point b);

// ---- spans -------------------------------------------------------------

/// In-memory span recorder owned by the benchmark, so a change to the
/// program's own tracing cannot change how the benchmark measures.  Spans
/// nest per thread; the recorder keeps the first kMaxSpans and counts the
/// rest as dropped.  Disabled (the untraced runs) it records nothing.
class Spans {
 public:
  static constexpr std::size_t kMaxSpans = 50'000;

  struct Span {
    const char* name = "";  // a string literal
    std::int64_t start_ns = 0;  // since the recorder's origin
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0: a root span
    std::uint32_t thread = 0;
  };

  static Spans& global();

  void enable(Clock::time_point origin);

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  /// Duration of every recorded span named `name`, in milliseconds.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Writes all spans (JSON lines) plus `summary` as the first line.
  void write(const std::string& path, const std::string& summary) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_{};
};

/// RAII span on the global recorder.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(Spans::global().begin(name)) {}
  ~SpanScope() { Spans::global().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t id_;
};

// ---- workloads -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Traced runs write their spans here (JSON lines) when set.
  std::string trace_file;
  /// Self-test of the reply checks: corrupt one received element or byte.
  bool corrupt = false;
  Clock::time_point process_start{};
};

/// getrusage(RUSAGE_SELF) fields the benchmark reports, and the peak
/// resident set size (VmHWM).
struct Usage {
  double cpu_s = 0;
  long minor_faults = 0;
  long ctx_switches = 0;
  long max_rss_kib = 0;
  static Usage now();
};

/// Counts and sums of the registry instruments the benchmark reads.
struct Counters {
  std::uint64_t server_requests = 0;
  std::uint64_t server_pipeline_requests = 0;
  std::uint64_t reactor_wakeups = 0;
  std::uint64_t tcp_connects = 0;
  double writev_iovecs_sum = 0;
  double writev_bytes_sum = 0;
  double queue_wait_us_sum = 0;
  std::uint64_t queue_wait_us_n = 0;
  double exec_us_sum = 0;
  std::uint64_t exec_us_n = 0;
  double credit_wait_us_sum = 0;
  std::uint64_t credit_wait_us_n = 0;
  static Counters read(const pardis::obs::MetricsRegistry& registry);
};

/// The latency of every completed operation, kept as counts in fixed
/// log-linear buckets of nanoseconds: exact below 2,048 ns, then 1,024
/// buckets per octave, so a reported quantile is within 0.05% of the sample
/// it stands for.  The buckets (112 KiB) are allocated and touched up front,
/// so the benchmark's own memory does not grow with the run's length or the
/// program's throughput (it would otherwise show in peak_rss_mib).
class Latency {
 public:
  Latency();
  void add_us(double us);
  std::uint64_t count() const { return count_; }
  /// q-quantile in microseconds, interpolating linearly between the
  /// closest ranks; 0 when empty.
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 10;   // 2^kSubBits buckets per octave
  static constexpr int kMaxOctave = 36;  // longer samples (> 137 s) clamp
  static std::size_t bucket_of(std::uint64_t ns);
  static double midpoint_ns(std::size_t bucket);
  /// Value of the k-th smallest sample (0-based), in nanoseconds.
  double rank_ns(std::uint64_t k) const;

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// The gated tail: the 95th percentile of each window of `window`
/// consecutive operations, and the median over the windows (run.py pools
/// the windows of a run's processes).  A host that takes the cores away
/// for part of a run raises the p95 of the whole run as soon as it slows
/// more than 5% of the operations, but it raises only the windows it falls
/// in, and the median window stays one it missed.  So this figure follows
/// the program's own tail more than the host's (README.md has the figures).
class WindowedTail {
 public:
  explicit WindowedTail(std::size_t window = 1);
  void add_us(double us);
  std::size_t window() const { return window_; }
  /// The p95 of each complete window, in microseconds, in run order.
  const std::vector<double>& tails() const { return tails_; }
  /// Median over the complete windows of their p95.  The operations of
  /// the last, incomplete window count only when no window is complete
  /// (short runs); 0 when empty.
  double p95_us() const;

 private:
  std::size_t window_;
  std::vector<double> open_;  // the window being filled
  std::vector<double> tails_;  // p95 of each complete window
};

/// What one workload run measured; main.cpp turns it into metrics.
struct Result {
  double setup_s = 0;
  std::uint64_t attempted = 0;
  double loop_s = 0;          // wall time of the timed loop
  double invoke_s = 0;        // time inside the timed calls (bulk)
  double payload_bytes = 0;   // both directions
  Latency latency;            // one sample per completed operation
  WindowedTail tail;          // the same samples, for the gated p95
  Usage usage_before, usage_after;
  Counters counters_before, counters_after;
  /// Traced runs of the bulk workloads: per-invocation sums of the reduced
  /// client/server phase times (index = pardis::Phase).
  std::vector<double> client_phase_ms, server_phase_ms;
  std::uint64_t phase_samples = 0;
};

Result run_bulk(const Options& opt, bool multiport);
Result run_rpc(const Options& opt, bool pipelined);

// ---- probes --------------------------------------------------------------

struct ProbeResult {
  double cdr_encode_gb_per_s = 0;
  double cdr_decode_gb_per_s = 0;
  double dseq_plan_us = 0;
  double rts_gather_ms = 0;
  double rts_scatter_ms = 0;
  double rts_bcast_us = 0;
  double transport_rtt_us = 0;
  double transport_stream_mb_per_s = 0;
};

/// Times each module's public calls at the workloads' own sizes (traced
/// runs only).
ProbeResult run_probes(std::uint64_t seed);

/// q-quantile of ascending `sorted`, interpolating linearly between the
/// closest ranks; 0 when empty.
template <typename T>
double quantile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Median of `v`; 0 when empty.
double median(std::vector<double> v);

}  // namespace spmdbench
