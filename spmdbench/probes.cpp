// Per-layer probes: each times one module's public calls at the sizes the
// workloads use, so a per-layer number can be set beside the end-to-end
// metric it bounds (README.md has the map).

#include <exception>
#include <thread>

#include "pardis/cdr/decoder.hpp"
#include "pardis/cdr/encoder.hpp"
#include "pardis/dseq/plan.hpp"
#include "pardis/orb/orb.hpp"
#include "pardis/rts/team.hpp"
#include "spmdbench.hpp"

namespace spmdbench {

using namespace pardis;

namespace {

/// Half of a bulk sequence: one client rank's block.
constexpr std::size_t kCdrDoubles = 1u << 18;
constexpr std::size_t kRtsBytes = 2u << 20;
/// About the size of an encoded request header.
constexpr std::size_t kHeaderBytes = 96;
constexpr std::size_t kStreamFrame = 1u << 20;
constexpr int kStreamFrames = 32;

void probe_cdr(std::uint64_t seed, ProbeResult& out) {
  std::vector<double> data(kCdrDoubles);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(mix(seed + i) & 0xfffff);
  }
  std::vector<double> back(kCdrDoubles);
  const double bytes = static_cast<double>(kCdrDoubles * sizeof(double));
  std::vector<double> enc_ms, dec_ms;
  for (int rep = 0; rep < 64; ++rep) {
    Bytes wire;
    {
      const SpanScope span("probe.cdr.encode");
      const auto t0 = Clock::now();
      cdr::Encoder enc;
      enc.put_array(data.data(), data.size());
      wire = enc.take();
      enc_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    {
      const SpanScope span("probe.cdr.decode");
      const auto t0 = Clock::now();
      cdr::Decoder dec{BytesView(wire)};
      dec.get_array_into(back.data(), back.size());
      dec_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    check(back == data, "cdr probe round trip");
  }
  out.cdr_encode_gb_per_s = bytes / (median(enc_ms) / 1e3) / 1e9;
  out.cdr_decode_gb_per_s = bytes / (median(dec_ms) / 1e3) / 1e9;
}

void probe_dseq(ProbeResult& out) {
  const std::uint64_t length = 1u << 19;
  const auto src = dseq::DistTempl::block(length, 2);
  const auto dst =
      dseq::DistTempl::proportional(length, dseq::Proportions(1, 3), 2);
  constexpr int kBatch = 100;
  std::vector<double> per_plan_us;
  std::size_t segments = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const SpanScope span("probe.dseq.plan");
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const dseq::RedistributionPlan plan(src, dst);
      segments += plan.outgoing(i % 2).size();
    }
    per_plan_us.push_back(seconds_between(t0, Clock::now()) * 1e6 / kBatch);
  }
  // block(2) -> (1,3) has three intersections: rank 0 -> {0, 1}, rank 1 -> 1.
  check(segments == 200u * kBatch / 2 * 3, "dseq probe segment count");
  out.dseq_plan_us = median(per_plan_us);
}

void probe_rts(ProbeResult& out) {
  rts::Team team("probe", 2);
  std::vector<double> gather_ms, scatter_ms, bcast_us;
  team.run([&](rts::Communicator& comm) {
    const int rank = comm.rank();
    const Bytes block(kRtsBytes, static_cast<std::uint8_t>(rank + 1));
    for (int rep = 0; rep < 20; ++rep) {
      comm.barrier();
      const SpanScope span("probe.rts.gather");
      const auto t0 = Clock::now();
      auto parts = comm.gather_bytes(block, 0);
      if (rank == 0) {
        gather_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        check(parts.size() == 2 && parts[1] == Bytes(kRtsBytes, 2),
              "rts gather probe");
      }
    }
    std::vector<Bytes> parts;
    if (rank == 0) parts.assign(2, block);
    for (int rep = 0; rep < 20; ++rep) {
      comm.barrier();
      const SpanScope span("probe.rts.scatter");
      const auto t0 = Clock::now();
      const Bytes mine = comm.scatter_bytes(parts, 0);
      // The root's scatter returns once its sends are queued; rank 1's
      // receive completes the operation, so time it there.
      if (rank == 1) {
        scatter_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        check(mine == Bytes(kRtsBytes, 1), "rts scatter probe");
      }
    }
    // A bcast from each rank in turn is one round trip; half of it is the
    // one-way latency of a header-sized broadcast.
    for (int rep = 0; rep < 2200; ++rep) {
      Bytes header(kHeaderBytes, static_cast<std::uint8_t>(rep));
      const SpanScope span("probe.rts.bcast");
      const auto t0 = Clock::now();
      comm.bcast_bytes(header, 0);
      comm.bcast_bytes(header, 1);
      if (rank == 0 && rep >= 200) {
        bcast_us.push_back(seconds_between(t0, Clock::now()) * 1e6 / 2);
        check(header.size() == kHeaderBytes, "rts bcast probe");
      }
    }
  });
  out.rts_gather_ms = median(gather_ms);
  // scatter_ms was written by rank 1 only; team.run joined it.
  out.rts_scatter_ms = median(scatter_ms);
  out.rts_bcast_us = median(bcast_us);
}

void probe_transport(ProbeResult& out) {
  orb::OrbConfig cfg;
  cfg.transport = transport::Kind::kTcp;
  auto orb = orb::Orb::create(cfg);
  auto listener = orb->transport().listen("probe-server", 0);
  auto client = orb->transport().connect("probe-client", listener->address());
  auto server = listener->accept();
  check(server != nullptr, "transport probe accept");

  constexpr int kPings = 2200;
  constexpr int kStreamReps = 5;
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      for (int i = 0; i < kPings; ++i) server->send(server->recv_or_throw());
      for (int rep = 0; rep < kStreamReps; ++rep) {
        std::size_t got = 0;
        for (int f = 0; f < kStreamFrames; ++f) {
          got += server->recv_or_throw().size();
        }
        server->send(Bytes(8, got == kStreamFrames * kStreamFrame ? 1 : 0));
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });

  // Checks wait until the echo thread has been joined.
  bool echoed = true;
  std::vector<double> rtt_us;
  std::vector<double> mb_per_s;
  try {
    for (int i = 0; i < kPings; ++i) {
      const SpanScope span("probe.transport.rtt");
      const auto t0 = Clock::now();
      client->send(Bytes(8, static_cast<std::uint8_t>(i)));
      const Bytes back = client->recv_or_throw();
      if (i >= 200) rtt_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      echoed = echoed && back == Bytes(8, static_cast<std::uint8_t>(i));
    }
    const Bytes frame(kStreamFrame, 0x5a);
    for (int rep = 0; rep < kStreamReps; ++rep) {
      const SpanScope span("probe.transport.stream");
      const auto t0 = Clock::now();
      for (int f = 0; f < kStreamFrames; ++f) {
        io::GatherList gl;
        gl.append_view(frame);
        client->sendv(std::move(gl));
      }
      const Bytes ack = client->recv_or_throw();
      const double s = seconds_between(t0, Clock::now());
      echoed = echoed && ack == Bytes(8, 1);
      mb_per_s.push_back(kStreamFrames * kStreamFrame / s / 1e6);
    }
  } catch (...) {
    client->close();
    server->close();
    echo.join();
    throw;
  }
  echo.join();
  client->close();
  server->close();
  listener->close();
  if (echo_error) std::rethrow_exception(echo_error);
  check(echoed, "transport probe echo");
  out.transport_rtt_us = median(rtt_us);
  out.transport_stream_mb_per_s = median(mb_per_s);
}

}  // namespace

ProbeResult run_probes(std::uint64_t seed) {
  ProbeResult out;
  probe_cdr(mix(seed ^ 0xcd), out);
  probe_dseq(out);
  probe_rts(out);
  probe_transport(out);
  return out;
}

}  // namespace spmdbench
