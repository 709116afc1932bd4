// The four workloads: one PARDIS scenario each over the tcp transport on
// loopback, client and server in this process, every loop closed.

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>

#include "pardis/cdr/decoder.hpp"
#include "pardis/cdr/encoder.hpp"
#include "pardis/rts/collectives.hpp"
#include "pardis/sim/scenario.hpp"
#include "pardis/transfer/spmd_client.hpp"
#include "pardis/transfer/spmd_server.hpp"
#include "spmdbench.hpp"

namespace spmdbench {

using namespace pardis;

namespace {

constexpr const char* kObject = "bench";
constexpr const char* kTypeId = "IDL:spmdbench/bench:1.0";

// Bulk workloads: K=2 client ranks, P=2 server ranks, 2^19 doubles.
constexpr int kClientRanks = 2;
constexpr int kServerRanks = 2;
constexpr std::uint64_t kBulkLength = 1u << 19;
/// Input values are integers below 2^20, so doubles hold them exactly and
/// the sums below are exact.
constexpr std::uint64_t kValueMask = (1u << 20) - 1;
constexpr int kBulkWarmup = 10;
/// Invocations per window of the gated p95 (WindowedTail), about 0.15 s on
/// the reference host: as short as a window can be and still hold a tail.
constexpr std::size_t kBulkTailWindow = 20;

// Rpc workloads: one client thread, P=2 server ranks.
constexpr std::size_t kPayloadPool = 1024;
constexpr std::size_t kPipelineWindow = 16;
constexpr int kRpcWarmup = 200;
/// Calls per window of the gated p95, about 25 ms of `rpc_pipelined`.
constexpr std::size_t kRpcTailWindow = 1024;

double bulk_value(std::uint64_t key, std::uint64_t index) {
  return static_cast<double>(mix(key + index) & kValueMask);
}

/// Exact sum and global-index-weighted checksum (mod 2^64) of a block of
/// integer-valued doubles starting at global index `first`.
struct Sums {
  std::uint64_t sum = 0;
  std::uint64_t weighted = 0;
};

Sums sums_of(const double* data, std::size_t count, std::uint64_t first) {
  Sums s;
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = static_cast<std::uint64_t>(data[i]);
    s.sum += v;
    s.weighted += (first + i + 1) * v;
  }
  return s;
}

/// The server side of every workload.
///   transform (inout dseq): returns the sums of what arrived, then x -> 2x+1
///   consume   (in dseq):    returns the sums of what arrived
///   echo      (ulonglong tag, octet sequence): returns tag, FNV-1a of the
///             payload, and the payload
/// echo is stateless, so the pipelined worker pool may run it concurrently.
class BenchServant : public transfer::SpmdServant {
 public:
  const char* type_id() const override { return kTypeId; }

  void dispatch(transfer::ServerCall& call) override {
    if (call.operation() == "echo") {
      auto dec = call.args();
      const cdr::ULongLong tag = dec.get_ulonglong();
      const Bytes payload = dec.get_octet_sequence();
      call.results().put_ulonglong(tag);
      call.results().put_ulonglong(fnv1a(payload.data(), payload.size()));
      call.results().put_octet_sequence(payload);
      return;
    }
    const bool transform = call.operation() == "transform";
    if (!transform && call.operation() != "consume") {
      throw BAD_OPERATION(call.operation());
    }
    auto seq = call.take_dseq<double>(0);
    rts::Communicator& comm = call.comm();
    const Sums local =
        sums_of(seq.local_data(), seq.local_length(),
                seq.distribution().offset(comm.rank()));
    call.results().put_ulonglong(rts::allreduce_value(comm, local.sum));
    call.results().put_ulonglong(rts::allreduce_value(comm, local.weighted));
    if (transform) {
      double* data = seq.local_data();
      for (std::size_t i = 0; i < seq.local_length(); ++i) {
        data[i] = 2 * data[i] + 1;
      }
      call.put_dseq(0, seq);
    }
  }
};

sim::ScenarioConfig scenario_config(int client_ranks) {
  sim::ScenarioConfig cfg;
  cfg.server.nranks = kServerRanks;
  cfg.client.nranks = client_ranks;
  cfg.orb.transport = transport::Kind::kTcp;
  return cfg;
}

void serve(sim::Scenario& scenario, rts::Communicator& comm,
           transfer::ArgDistPolicy policy) {
  transfer::SpmdServer server(scenario.orb(), comm,
                              scenario.config().server.host);
  BenchServant servant;
  server.activate(kObject, servant, std::move(policy));
  server.serve();
}

/// Latest bind completion over the client ranks.
class BindClock {
 public:
  void done() {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    last_ = std::max(last_, now);
  }
  Clock::time_point last() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
  }

 private:
  mutable std::mutex mu_;
  Clock::time_point last_{};
};

}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.minor_faults = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  // The peak of this program's own address space.  ru_maxrss would not do:
  // Linux carries the launching process's peak across exec, so a small
  // workload started by run.py would report the Python driver's memory.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.max_rss_kib = std::stol(line.substr(6));
    }
  }
  return u;
}

Counters Counters::read(const obs::MetricsRegistry& registry) {
  Counters c;
  for (const auto& s : registry.snapshot()) {
    const double sum = s.stat.mean() * static_cast<double>(s.stat.count());
    if (s.name == "server.requests") c.server_requests = s.count;
    if (s.name == "server.pipeline.requests") {
      c.server_pipeline_requests = s.count;
    }
    if (s.name == "tcp.reactor.wakeups") c.reactor_wakeups = s.count;
    if (s.name == "tcp.connects") c.tcp_connects = s.count;
    if (s.name == "tcp.writev.iovecs") c.writev_iovecs_sum = sum;
    if (s.name == "tcp.writev.bytes") c.writev_bytes_sum = sum;
    if (s.name == "server.pipeline.queue_wait_us") {
      c.queue_wait_us_sum = sum;
      c.queue_wait_us_n = s.stat.count();
    }
    if (s.name == "server.pipeline.exec_us") {
      c.exec_us_sum = sum;
      c.exec_us_n = s.stat.count();
    }
    if (s.name == "client.pipeline.credit_wait_us") {
      c.credit_wait_us_sum = sum;
      c.credit_wait_us_n = s.stat.count();
    }
  }
  return c;
}

// ---- bulk_multiport / bulk_centralized -------------------------------------

Result run_bulk(const Options& opt, bool multiport) {
  const std::uint64_t key = mix(opt.seed ^ (multiport ? 0xb1u : 0xb2u));
  const char* operation = multiport ? "transform" : "consume";
  const orb::ArgDir dir = multiport ? orb::ArgDir::kInOut : orb::ArgDir::kIn;

  sim::Scenario scenario(scenario_config(kClientRanks));
  transfer::ArgDistPolicy policy;
  if (multiport) policy.set(operation, 0, dseq::Proportions(1, 3));

  Result r;
  BindClock bind_clock;
  scenario.run(
      [&](rts::Communicator& comm) { serve(scenario, comm, policy); },
      [&](rts::Communicator& comm) {
        auto binding = [&] {
          const SpanScope span("bind");
          return transfer::SpmdBinding::bind(
              scenario.orb(), comm, scenario.config().client.host, kObject,
              kTypeId);
        }();
        bind_clock.done();
        const int rank = comm.rank();

        // Seeded input: this rank's block of the global sequence, plus the
        // sums of the whole sequence for the reply checks.
        const dseq::DistTempl block =
            dseq::DistTempl::block(kBulkLength, comm.size());
        const std::uint64_t first = block.offset(rank);
        std::vector<double> input(block.count(rank));
        for (std::size_t i = 0; i < input.size(); ++i) {
          input[i] = bulk_value(key, first + i);
        }
        Sums expected;
        for (std::uint64_t i = 0; i < kBulkLength; ++i) {
          const auto v = static_cast<std::uint64_t>(bulk_value(key, i));
          expected.sum += v;
          expected.weighted += (i + 1) * v;
        }
        dseq::DSequence<double> seq(comm, kBulkLength);
        check(seq.local_length() == input.size(), "client block size");

        transfer::CallOptions opts;
        opts.method = multiport ? orb::TransferMethod::kMultiPort
                                : orb::TransferMethod::kCentralized;
        const double bytes_per_call =
            static_cast<double>(kBulkLength * sizeof(double)) *
            (multiport ? 2 : 1);

        auto call_once = [&](std::uint64_t iteration, bool corrupt) {
          std::memcpy(seq.local_data(), input.data(),
                      input.size() * sizeof(double));
          transfer::TypedDSeqArg<double> arg(seq, dir);
          cdr::Encoder enc;
          enc.put_ulonglong(iteration);
          const auto t0 = Clock::now();
          Bytes reply;
          {
            const SpanScope span("invoke");
            reply = binding.invoke(operation, enc.take(), {&arg}, opts);
          }
          const auto t1 = Clock::now();

          cdr::Decoder dec{BytesView(reply)};
          Sums got;
          got.sum = dec.get_ulonglong();
          got.weighted = dec.get_ulonglong();
          // The multiport self-test corrupts a returned element instead.
          if (corrupt && !multiport) got.weighted ^= 1;
          check(got.sum == expected.sum, "server sum of received elements");
          check(got.weighted == expected.weighted,
                "server index-weighted checksum of received elements");
          if (multiport) {
            check(seq.local_length() == input.size(), "reply block size");
            double* out = seq.local_data();
            if (corrupt) out[input.size() / 2] += 1;
            for (std::size_t i = 0; i < input.size(); ++i) {
              if (out[i] != 2 * input[i] + 1) {
                check(false, "returned element " + std::to_string(first + i) +
                                 " != 2x+1");
              }
            }
          }
          return seconds_between(t0, t1) * 1e6;
        };

        for (int i = 0; i < kBulkWarmup; ++i) {
          (void)call_once(static_cast<std::uint64_t>(i), false);
        }

        std::vector<double> client_phase(kPhaseCount, 0.0);
        std::vector<double> server_phase(kPhaseCount, 0.0);
        std::uint64_t n = 0;
        double invoke_us = 0;
        Latency latency;
        WindowedTail tail(kBulkTailWindow);
        Usage usage_before;
        Counters counters_before;
        if (rank == 0) {
          usage_before = Usage::now();
          counters_before = Counters::read(scenario.orb().metrics());
        }
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(opt.seconds));
        for (;;) {
          // Rank 0 owns the clock; every rank makes the same decision.
          if (!rts::bcast_value(comm, rank == 0 && Clock::now() < deadline,
                                0)) {
            break;
          }
          const double us = call_once(kBulkWarmup + n, opt.corrupt && n == 0);
          latency.add_us(us);
          tail.add_us(us);
          invoke_us += us;
          ++n;
          if (opt.trace) {
            const auto client =
                transfer::reduce_stats(comm, binding.last_stats());
            const auto& server = binding.last_server_stats();
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
              client_phase[p] += client[p];
              if (p < server.size()) server_phase[p] += server[p];
            }
          }
        }
        const auto stop = Clock::now();
        if (rank == 0) {
          r.usage_after = Usage::now();
          r.counters_after = Counters::read(scenario.orb().metrics());
          r.usage_before = usage_before;
          r.counters_before = counters_before;
          r.attempted = n;
          r.loop_s = seconds_between(start, stop);
          r.invoke_s = invoke_us / 1e6;
          r.payload_bytes = bytes_per_call * static_cast<double>(n);
          r.latency = std::move(latency);
          r.tail = std::move(tail);
          r.client_phase_ms = client_phase;
          r.server_phase_ms = server_phase;
          r.phase_samples = opt.trace ? n : 0;
        }
        binding.unbind();
      },
      kObject);
  r.setup_s = seconds_between(opt.process_start, bind_clock.last());
  check(r.counters_after.server_requests - r.counters_before.server_requests ==
            r.attempted * kServerRanks,
        "server.requests delta != attempted x server ranks");
  return r;
}

// ---- rpc_sync / rpc_pipelined ----------------------------------------------

Result run_rpc(const Options& opt, bool pipelined) {
  const std::uint64_t key = mix(opt.seed ^ (pipelined ? 0xa2u : 0xa1u));

  sim::Scenario scenario(scenario_config(1));
  Result r;
  BindClock bind_clock;
  scenario.run(
      [&](rts::Communicator& comm) { serve(scenario, comm, {}); },
      [&](rts::Communicator&) {
        auto binding = [&] {
          const SpanScope span("bind");
          return transfer::DirectBinding::bind(
              scenario.orb(), scenario.config().client.host, kObject, kTypeId);
        }();
        bind_clock.done();

        // Payload pool, cycled in order.  The multiset of sizes is the same
        // for every seed, so seeds change bytes and order but not the mix.
        // rpc_sync: tiny, 8-64 bytes.  rpc_pipelined: half 16-384 bytes,
        // half 640-4096 bytes, so frames fall on both sides of the
        // transport's 512-byte single-buffer cutoff.
        std::vector<std::size_t> sizes(kPayloadPool);
        for (std::size_t i = 0; i < kPayloadPool; ++i) {
          const std::size_t j = i / 2;
          const std::size_t half = kPayloadPool / 2;
          sizes[i] = !pipelined ? 8 + i % 57
                     : i % 2 == 0 ? 16 + j * 369 / half
                                  : 640 + j * 3457 / half;
        }
        for (std::size_t i = kPayloadPool - 1; i > 0; --i) {
          std::swap(sizes[i], sizes[mix(key + i) % (i + 1)]);
        }
        std::vector<Bytes> pool(kPayloadPool);
        std::vector<std::uint64_t> pool_fnv(kPayloadPool);
        for (std::size_t i = 0; i < kPayloadPool; ++i) {
          pool[i].resize(sizes[i]);
          for (std::size_t b = 0; b < sizes[i]; ++b) {
            pool[i][b] = static_cast<std::uint8_t>(mix(key ^ (i << 20) ^ b));
          }
          pool_fnv[i] = fnv1a(pool[i].data(), pool[i].size());
        }

        if (pipelined) {
          check(binding.window() >= kPipelineWindow,
                "negotiated window below the workload's 16 outstanding calls");
        }

        auto request = [&](std::uint64_t i) {
          cdr::Encoder enc;
          enc.put_ulonglong(mix(key ^ i));
          enc.put_octet_sequence(pool[i % kPayloadPool]);
          return enc.take();
        };
        auto verify = [&](std::uint64_t i, const Bytes& reply, bool corrupt) {
          cdr::Decoder dec{BytesView(reply)};
          check(dec.get_ulonglong() == mix(key ^ i), "echo tag");
          check(dec.get_ulonglong() == pool_fnv[i % kPayloadPool],
                "echo checksum");
          Bytes payload = dec.get_octet_sequence();
          if (corrupt) payload[payload.size() / 2] ^= 1;
          check(payload == pool[i % kPayloadPool], "echo payload");
        };
        auto payload_bytes = [&](std::uint64_t i) {
          return 2.0 * static_cast<double>(pool[i % kPayloadPool].size());
        };

        // Warm-up takes the measured path, so the pipelined worker pool,
        // which the server starts on the first pipelined request, is up.
        for (int i = 0; i < kRpcWarmup; ++i) {
          verify(i,
                 pipelined ? binding.invoke_nb("echo", request(i)).get()
                           : binding.invoke("echo", request(i)),
                 false);
        }

        Latency latency;
        WindowedTail tail(kRpcTailWindow);
        r.usage_before = Usage::now();
        r.counters_before = Counters::read(scenario.orb().metrics());
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(opt.seconds));
        std::uint64_t next = kRpcWarmup;
        double bytes = 0;
        if (!pipelined) {
          while (Clock::now() < deadline) {
            const std::uint64_t i = next++;
            Bytes req = request(i);
            const auto t0 = Clock::now();
            Bytes reply;
            {
              const SpanScope span("invoke");
              reply = binding.invoke("echo", std::move(req));
            }
            const double us = seconds_between(t0, Clock::now()) * 1e6;
            latency.add_us(us);
            tail.add_us(us);
            verify(i, reply, opt.corrupt && i == kRpcWarmup);
            bytes += payload_bytes(i);
          }
        } else {
          struct Pending {
            orb::Future<Bytes> future;
            Clock::time_point issued;
            std::uint64_t index;
          };
          std::deque<Pending> window;
          auto collect = [&] {
            Pending p = std::move(window.front());
            window.pop_front();
            Bytes reply;
            {
              const SpanScope span("Future::get");
              reply = p.future.get();
            }
            const double us = seconds_between(p.issued, Clock::now()) * 1e6;
            latency.add_us(us);
            tail.add_us(us);
            verify(p.index, reply, opt.corrupt && p.index == kRpcWarmup);
            bytes += payload_bytes(p.index);
          };
          while (Clock::now() < deadline) {
            if (window.size() == kPipelineWindow) collect();
            const std::uint64_t i = next++;
            Bytes req = request(i);
            const auto issued = Clock::now();
            const SpanScope span("invoke_nb issue");
            window.push_back({binding.invoke_nb("echo", std::move(req)),
                              issued, i});
          }
          while (!window.empty()) collect();
        }
        const auto stop = Clock::now();
        r.usage_after = Usage::now();
        r.counters_after = Counters::read(scenario.orb().metrics());
        r.attempted = next - kRpcWarmup;
        r.loop_s = seconds_between(start, stop);
        r.invoke_s = r.loop_s;
        r.payload_bytes = bytes;
        r.latency = std::move(latency);
        r.tail = std::move(tail);
        binding.unbind();
      },
      kObject);
  r.setup_s = seconds_between(opt.process_start, bind_clock.last());
  if (pipelined) {
    check(r.counters_after.server_pipeline_requests -
                  r.counters_before.server_pipeline_requests ==
              r.attempted,
          "server.pipeline.requests delta != attempted");
  } else {
    check(r.counters_after.server_requests -
                  r.counters_before.server_requests ==
              r.attempted * kServerRanks,
          "server.requests delta != attempted x server ranks");
  }
  return r;
}

}  // namespace spmdbench
