// spmdbench: one workload per process, one result line.
//
//   spmdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--corrupt]
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics when --trace is 0, the per-layer metrics when it
// is 1.  With --trace 0 the line before it is {"tail_windows_us": [...]},
// the p95 of each window of the gated tail (WindowedTail).  A failed check
// prints its reason on stderr and exits 1 with no result line; --corrupt
// flips one received element or byte to show that the checks catch it.
// README.md defines every metric.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "pardis/common/timing.hpp"
#include "spmdbench.hpp"

using namespace spmdbench;

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

double per_op(double delta, std::uint64_t ops) {
  return ops == 0 ? 0.0 : delta / static_cast<double>(ops);
}

double mean_of(double sum_after, double sum_before, std::uint64_t n_after,
               std::uint64_t n_before) {
  if (n_after == n_before) return 0.0;
  return (sum_after - sum_before) / static_cast<double>(n_after - n_before);
}

std::vector<Metric> end_to_end(const Result& r, const Usage& at_exit) {
  const double p50 = r.latency.quantile_us(0.5);
  const double p95 = r.tail.p95_us();
  return {
      {"setup_s", r.setup_s, "s"},
      {"bulk_mb_per_s", r.payload_bytes / r.invoke_s / 1e6, "MB/s"},
      {"invoke_ms_p50", p50 / 1e3, "ms"},
      {"invoke_ms_p95", p95 / 1e3, "ms"},
      {"rpc_per_s", static_cast<double>(r.attempted) / r.loop_s, "inv/s"},
      {"rpc_us_p50", p50, "us"},
      {"rpc_us_p95", p95, "us"},
      {"cpu_us_per_op",
       per_op((r.usage_after.cpu_s - r.usage_before.cpu_s) * 1e6, r.attempted),
       "us"},
      {"peak_rss_mib", static_cast<double>(at_exit.max_rss_kib) / 1024.0,
       "MiB"},
  };
}

/// Mean per traced invocation of one reduced phase; 0 off the bulk path.
double phase_mean(const Result& r, const std::vector<double>& sums,
                  pardis::Phase phase) {
  if (r.phase_samples == 0) return 0.0;
  return sums[static_cast<std::size_t>(phase)] /
         static_cast<double>(r.phase_samples);
}

std::vector<Metric> per_layer(const Result& r, const ProbeResult& p,
                              double bind_ms) {
  using pardis::Phase;
  auto client = [&](Phase ph) { return phase_mean(r, r.client_phase_ms, ph); };
  auto server = [&](Phase ph) { return phase_mean(r, r.server_phase_ms, ph); };
  const auto& c0 = r.counters_before;
  const auto& c1 = r.counters_after;
  const std::uint64_t n = r.attempted;
  return {
      {"transfer.client.gather_ms", client(Phase::kGather), "ms"},
      {"transfer.client.pack_ms", client(Phase::kPack), "ms"},
      {"transfer.client.send_ms", client(Phase::kSend), "ms"},
      {"transfer.client.recv_ms", client(Phase::kRecv), "ms"},
      {"transfer.client.unpack_ms", client(Phase::kUnpack), "ms"},
      {"transfer.client.barrier_ms", client(Phase::kBarrier), "ms"},
      {"transfer.server.recv_ms", server(Phase::kRecv), "ms"},
      {"transfer.server.unpack_ms", server(Phase::kUnpack), "ms"},
      {"transfer.server.scatter_ms", server(Phase::kScatter), "ms"},
      {"cdr.encode_gb_per_s", p.cdr_encode_gb_per_s, "GB/s"},
      {"cdr.decode_gb_per_s", p.cdr_decode_gb_per_s, "GB/s"},
      {"dseq.plan_us", p.dseq_plan_us, "us"},
      {"rts.gather_ms", p.rts_gather_ms, "ms"},
      {"rts.scatter_ms", p.rts_scatter_ms, "ms"},
      {"rts.bcast_us", p.rts_bcast_us, "us"},
      {"transport.rtt_us", p.transport_rtt_us, "us"},
      {"transport.stream_mb_per_s", p.transport_stream_mb_per_s, "MB/s"},
      {"orb.bind_ms", bind_ms, "ms"},
      {"process.minor_faults_per_op",
       per_op(static_cast<double>(r.usage_after.minor_faults -
                                  r.usage_before.minor_faults),
              n),
       "faults/op"},
      {"process.ctx_switches_per_op",
       per_op(static_cast<double>(r.usage_after.ctx_switches -
                                  r.usage_before.ctx_switches),
              n),
       "switches/op"},
      {"server.pipeline.queue_wait_us",
       mean_of(c1.queue_wait_us_sum, c0.queue_wait_us_sum, c1.queue_wait_us_n,
               c0.queue_wait_us_n),
       "us"},
      {"server.pipeline.exec_us",
       mean_of(c1.exec_us_sum, c0.exec_us_sum, c1.exec_us_n, c0.exec_us_n),
       "us"},
      {"client.pipeline.credit_wait_us",
       mean_of(c1.credit_wait_us_sum, c0.credit_wait_us_sum,
               c1.credit_wait_us_n, c0.credit_wait_us_n),
       "us"},
      {"tcp.reactor.wakeups_per_op",
       per_op(static_cast<double>(c1.reactor_wakeups - c0.reactor_wakeups), n),
       "wakeups/op"},
      {"tcp.writev.iovecs_per_op",
       per_op(c1.writev_iovecs_sum - c0.writev_iovecs_sum, n), "iovecs/op"},
      {"tcp.writev.bytes_per_op",
       per_op(c1.writev_bytes_sum - c0.writev_bytes_sum, n), "B/op"},
      {"tcp.connects", static_cast<double>(c1.tcp_connects), "count"},
  };
}

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr,
               "spmdbench: %s\nusage: spmdbench --workload "
               "bulk_multiport|bulk_centralized|rpc_sync|rpc_pipelined "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
               "[--corrupt]\n",
               what);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.process_start = Clock::now();
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--trace-file") {
      opt.trace_file = value();
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage_error(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) usage_error("missing arguments");
  if (!(opt.seconds > 0) || opt.seconds > 120) usage_error("bad --seconds");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.trace) Spans::global().enable(opt.process_start);
  try {
    Result r;
    if (opt.workload == "bulk_multiport") {
      r = run_bulk(opt, true);
    } else if (opt.workload == "bulk_centralized") {
      r = run_bulk(opt, false);
    } else if (opt.workload == "rpc_sync") {
      r = run_rpc(opt, false);
    } else if (opt.workload == "rpc_pipelined") {
      r = run_rpc(opt, true);
    } else {
      usage_error(("unknown workload " + opt.workload).c_str());
    }
    check(r.attempted > 0, "no operation completed in the timed loop");

    const std::vector<Metric> e2e = end_to_end(r, Usage::now());
    std::vector<Metric> printed = e2e;
    if (opt.trace) {
      const ProbeResult probes = run_probes(opt.seed);
      double bind_ms = 0;
      for (double ms : Spans::global().durations_ms("bind")) {
        bind_ms = std::max(bind_ms, ms);
      }
      // The transport round trip is the floor of every small call.
      const double rpc_us_p50 = r.latency.quantile_us(0.5);
      check(probes.transport_rtt_us <= rpc_us_p50,
            "transport.rtt_us above this run's rpc_us_p50");
      printed = per_layer(r, probes, bind_ms);
      if (!opt.trace_file.empty()) {
        // The traced run's own end-to-end figures ride along in the trace,
        // so traced minus untraced gives the tracing overhead.
        Spans::global().write(opt.trace_file,
                              "{\"workload\": \"" + opt.workload +
                                  "\", \"seed\": " + std::to_string(opt.seed) +
                                  ", \"end_to_end\": " + json_metrics(e2e) +
                                  ", \"per_layer\": " +
                                  json_metrics(printed) + "}");
      }
    }
    std::fprintf(stderr,
                 "%s: %llu samples, latency us p50 %.1f p90 %.1f p95 %.1f "
                 "p99 %.1f p99.9 %.1f; median p95 of %zu windows of %zu "
                 "%.1f\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(r.latency.count()),
                 r.latency.quantile_us(0.5), r.latency.quantile_us(0.9),
                 r.latency.quantile_us(0.95), r.latency.quantile_us(0.99),
                 r.latency.quantile_us(0.999), r.tail.tails().size(),
                 r.tail.window(), r.tail.p95_us());
    for (const Metric& m : printed) {
      std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
    if (!opt.trace) {
      // run.py pools the windows of a run's processes for the gated p95.
      std::ostringstream windows;
      windows.precision(12);
      for (double us : r.tail.tails()) {
        windows << (windows.tellp() == 0 ? "" : ", ") << us;
      }
      std::printf("{\"tail_windows_us\": [%s]}\n", windows.str().c_str());
    }
    // Every operation of these workloads must succeed: a failed call or a
    // wrong reply ends the run above, so `failed` is always 0.
    std::printf(
        "{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
        "\"metrics\": %s}\n",
        static_cast<unsigned long long>(r.attempted),
        json_metrics(printed).c_str());
    return 0;
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "spmdbench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmdbench: %s\n", e.what());
    return 2;
  }
}
