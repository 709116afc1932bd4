// The benchmark's own span recorder and small shared helpers.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "spmdbench.hpp"

namespace spmdbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ull;
  }
  return h;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

// ---- Latency -------------------------------------------------------------

// Buckets 0 .. 2^(kSubBits+1)-1 hold one nanosecond each; above that,
// octave e (values in [2^e, 2^(e+1))) holds 2^kSubBits buckets.
Latency::Latency()
    : counts_(bucket_of(~std::uint64_t{0}) + 1, 0) {}  // zero-filled: touched

std::size_t Latency::bucket_of(std::uint64_t ns) {
  constexpr std::uint64_t kLinear = std::uint64_t{1} << (kSubBits + 1);
  ns = std::min(ns, (std::uint64_t{1} << (kMaxOctave + 1)) - 1);
  if (ns < kLinear) return static_cast<std::size_t>(ns);
  const int octave = std::bit_width(ns) - 1;
  const int shift = octave - kSubBits;
  const std::uint64_t mantissa = ns >> shift;  // in [2^kSubBits, 2^(kSubBits+1))
  return static_cast<std::size_t>(
      kLinear + (static_cast<std::uint64_t>(octave - kSubBits - 1) << kSubBits) +
      (mantissa - (std::uint64_t{1} << kSubBits)));
}

double Latency::midpoint_ns(std::size_t bucket) {
  constexpr std::size_t kLinear = std::size_t{1} << (kSubBits + 1);
  if (bucket < kLinear) return static_cast<double>(bucket);
  const std::size_t j = bucket - kLinear;
  const int shift = static_cast<int>(j >> kSubBits) + 1;
  const std::uint64_t mantissa =
      (std::uint64_t{1} << kSubBits) + (j & ((std::size_t{1} << kSubBits) - 1));
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return static_cast<double>(mantissa << shift) + (width - 1) / 2;
}

void Latency::add_us(double us) {
  const double ns = std::max(0.0, us * 1e3);
  ++counts_[bucket_of(static_cast<std::uint64_t>(std::llround(ns)))];
  ++count_;
}

double Latency::rank_ns(std::uint64_t k) const {
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen > k) return midpoint_ns(b);
  }
  return midpoint_ns(counts_.size() - 1);
}

double Latency::quantile_us(double q) const {
  if (count_ == 0) return 0;
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  const double lo_ns = rank_ns(lo);
  return (lo_ns + frac * (rank_ns(hi) - lo_ns)) / 1e3;
}

// ---- WindowedTail --------------------------------------------------------

WindowedTail::WindowedTail(std::size_t window) : window_(window) {
  open_.reserve(window_);
}

void WindowedTail::add_us(double us) {
  open_.push_back(us);
  if (open_.size() < window_) return;
  std::sort(open_.begin(), open_.end());
  tails_.push_back(quantile_sorted(open_, 0.95));
  open_.clear();
}

double WindowedTail::p95_us() const {
  if (!tails_.empty()) return median(tails_);
  std::vector<double> open = open_;
  std::sort(open.begin(), open.end());
  return quantile_sorted(open, 0.95);
}

namespace {

std::mutex g_mu;
std::vector<Spans::Span> g_spans;  // guarded by g_mu
std::uint64_t g_dropped = 0;       // guarded by g_mu
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

struct ThreadState {
  std::uint32_t thread = g_next_thread.fetch_add(1);
  /// Open spans of this thread: (id, name, start).
  struct Open {
    std::uint32_t id;
    const char* name;
    std::int64_t start_ns;
  };
  std::vector<Open> open;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

void Spans::enable(Clock::time_point origin) {
  origin_ = origin;
  enabled_ = true;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.reserve(kMaxSpans);
}

std::uint32_t Spans::begin(const char* name) {
  if (!enabled_) return 0;
  const std::uint32_t id = g_next_id.fetch_add(1);
  const auto start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - origin_)
                         .count();
  thread_state().open.push_back({id, name, start});
  return id;
}

void Spans::end(std::uint32_t id) {
  if (id == 0) return;
  const auto end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  ThreadState& ts = thread_state();
  // Spans close in LIFO order per thread (SpanScope is RAII).
  const ThreadState::Open open = ts.open.back();
  ts.open.pop_back();
  Span span;
  span.name = open.name;
  span.start_ns = open.start_ns;
  span.end_ns = end_ns;
  span.id = open.id;
  span.parent = ts.open.empty() ? 0 : ts.open.back().id;
  span.thread = ts.thread;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_spans.size() < kMaxSpans) {
    g_spans.push_back(span);
  } else {
    ++g_dropped;
  }
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<double> out;
  for (const Span& s : g_spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void Spans::write(const std::string& path, const std::string& summary) const {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream out(path);
  out << "{\"summary\": " << summary << ", \"spans\": " << g_spans.size()
      << ", \"dropped\": " << g_dropped << "}\n";
  for (const Span& s : g_spans) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  if (!out) {
    std::fprintf(stderr, "spmdbench: could not write %s\n", path.c_str());
  }
}

}  // namespace spmdbench
