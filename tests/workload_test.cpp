// Tests for workload profiles, trace generation, and trace I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload/analysis.hpp"
#include "workload/profile.hpp"
#include "workload/trace_io.hpp"
#include "workload/tracegen.hpp"

namespace clara::workload {
namespace {

TEST(Profile, ParseDefaults) {
  const auto p = parse_profile("");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value().tcp_fraction, 0.8);
  EXPECT_EQ(p.value().flows, 10000u);
}

TEST(Profile, ParseFullSpec) {
  const auto p = parse_profile("tcp=0.6 flows=500 zipf=1.2 payload=200:1400 pps=30000 packets=5000 arrivals=poisson seed=7");
  ASSERT_TRUE(p.ok()) << p.error().message;
  const auto& v = p.value();
  EXPECT_DOUBLE_EQ(v.tcp_fraction, 0.6);
  EXPECT_EQ(v.flows, 500u);
  EXPECT_DOUBLE_EQ(v.zipf_alpha, 1.2);
  EXPECT_EQ(v.payload_min, 200);
  EXPECT_EQ(v.payload_max, 1400);
  EXPECT_DOUBLE_EQ(v.pps, 30000.0);
  EXPECT_EQ(v.packets, 5000u);
  EXPECT_EQ(v.arrivals, ArrivalProcess::kPoisson);
  EXPECT_EQ(v.seed, 7u);
}

TEST(Profile, SerializeRoundTrip) {
  auto p = parse_profile("tcp=0.5 flows=100 payload=64:1500 pps=1000 packets=42").value();
  const auto p2 = parse_profile(p.serialize());
  ASSERT_TRUE(p2.ok()) << p2.error().message;
  EXPECT_DOUBLE_EQ(p2.value().tcp_fraction, p.tcp_fraction);
  EXPECT_EQ(p2.value().payload_max, p.payload_max);
  EXPECT_EQ(p2.value().packets, p.packets);

  // Doubles past the stream default's 6 significant digits survive
  // exactly, and the values in everyday use print as before.
  p = parse_profile("tcp=0.123456789 zipf=1.0000001 pps=1234567").value();
  const auto exact = parse_profile(p.serialize());
  ASSERT_TRUE(exact.ok()) << exact.error().message;
  EXPECT_EQ(exact.value().tcp_fraction, 0.123456789);
  EXPECT_EQ(exact.value().zipf_alpha, 1.0000001);
  EXPECT_EQ(exact.value().pps, 1234567.0);
  EXPECT_NE(p.serialize().find("pps=1234567 "), std::string::npos) << p.serialize();
  EXPECT_EQ(parse_profile("tcp=0.8 zipf=1 pps=60000").value().serialize(),
            "tcp=0.8 flows=10000 zipf=1 payload=300 pps=60000 packets=100000 "
            "arrivals=deterministic seed=42");

  // A seed above 2^63, as a sweep point derives from seed 42, re-runs as a spec.
  const std::string high = "tcp=0.8 flows=10000 zipf=1 payload=300 pps=60000 packets=100000 "
                           "arrivals=deterministic seed=13679457532755275413";
  const auto reseeded = parse_profile(high);
  ASSERT_TRUE(reseeded.ok()) << reseeded.error().message;
  EXPECT_EQ(reseeded.value().seed, 13679457532755275413ull);
  EXPECT_EQ(reseeded.value().serialize(), high);
}

TEST(Profile, RejectsBadInput) {
  // Each is kParse naming the offending key (or token).
  for (const char* bad :
       {"tcp=1.5", "flows=0", "flows=-3", "payload=1400:200", "pps=0", "arrivals=sometimes",
        "unknown_key=1", "garbage", "flows=4294967296", "flows=4294967297", "flows=1.5",
        "packets=1000000000000000", "tcp=nan", "zipf=inf", "pps=nan", "pps=1e-300",
        "payload=9001", "payload=1:", "seed=18446744073709551616", "seed=-1", "seed="}) {
    const auto p = parse_profile(std::string("packets=10 ") + bad);
    ASSERT_FALSE(p.ok()) << bad;
    EXPECT_EQ(p.error().code, ErrorCode::kParse) << bad;
    const std::string_view token(bad);
    EXPECT_NE(p.error().message.find(token.substr(0, token.find('='))), std::string::npos)
        << bad << ": " << p.error().message;
  }
  EXPECT_NE(parse_profile("flow=3").error().message.find("did you mean 'flows'"), std::string::npos);
}

TEST(TraceGen, Deterministic) {
  const auto profile = parse_profile("packets=1000 seed=9").value();
  const auto a = generate_trace(profile);
  const auto b = generate_trace(profile);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.packets[i].flow_id, b.packets[i].flow_id);
    EXPECT_EQ(a.packets[i].arrival_ns, b.packets[i].arrival_ns);
  }
}

TEST(TraceGen, TcpFractionApproximatelyRespected) {
  const auto profile = parse_profile("tcp=0.7 packets=20000 flows=2000").value();
  const auto trace = generate_trace(profile);
  EXPECT_NEAR(trace.tcp_fraction(), 0.7, 0.05);
}

TEST(TraceGen, PayloadRangeRespected) {
  const auto profile = parse_profile("payload=100:200 packets=5000").value();
  const auto trace = generate_trace(profile);
  for (const auto& p : trace.packets) {
    EXPECT_GE(p.payload_len, 100);
    EXPECT_LE(p.payload_len, 200);
  }
  EXPECT_NEAR(trace.mean_payload(), 150.0, 5.0);
}

TEST(TraceGen, FixedPayload) {
  const auto profile = parse_profile("payload=300 packets=100").value();
  const auto trace = generate_trace(profile);
  for (const auto& p : trace.packets) EXPECT_EQ(p.payload_len, 300);
}

TEST(TraceGen, DeterministicArrivalSpacing) {
  const auto profile = parse_profile("pps=1000000 packets=100").value();  // 1000 ns apart
  const auto trace = generate_trace(profile);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace.packets[i].arrival_ns - trace.packets[i - 1].arrival_ns, 1000u);
  }
}

TEST(TraceGen, PoissonArrivalsMeanRate) {
  auto profile = parse_profile("pps=1000000 packets=50000 arrivals=poisson").value();
  const auto trace = generate_trace(profile);
  const double span_ns = static_cast<double>(trace.packets.back().arrival_ns);
  const double observed_pps = static_cast<double>(trace.size()) / (span_ns / 1e9);
  EXPECT_NEAR(observed_pps / 1e6, 1.0, 0.05);
}

TEST(TraceGen, FirstTcpPacketOfFlowIsSyn) {
  const auto profile = parse_profile("packets=5000 flows=500 tcp=1.0").value();
  const auto trace = generate_trace(profile);
  std::unordered_map<std::uint32_t, bool> seen;
  for (const auto& p : trace.packets) {
    if (!seen[p.flow_id]) {
      EXPECT_TRUE(p.is_syn()) << "first packet of flow " << p.flow_id;
      seen[p.flow_id] = true;
    } else {
      EXPECT_FALSE(p.is_syn());
    }
  }
}

TEST(TraceGen, ZipfSkewsFlowPopularity) {
  const auto skewed = generate_trace(parse_profile("packets=20000 flows=1000 zipf=1.3").value());
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const auto& p : skewed.packets) ++counts[p.flow_id];
  // The most popular flow should hold far more than 1/1000 of traffic.
  std::uint64_t top = 0;
  for (const auto& [f, c] : counts) top = std::max(top, c);
  EXPECT_GT(static_cast<double>(top) / 20000.0, 0.05);
}

TEST(TraceGen, FlowInvariantsStable) {
  // All packets of a flow share the 5-tuple and protocol.
  const auto trace = generate_trace(parse_profile("packets=5000 flows=100").value());
  std::unordered_map<std::uint32_t, PacketMeta> first;
  for (const auto& p : trace.packets) {
    const auto it = first.find(p.flow_id);
    if (it == first.end()) {
      first[p.flow_id] = p;
    } else {
      EXPECT_EQ(p.src_ip, it->second.src_ip);
      EXPECT_EQ(p.dst_port, it->second.dst_port);
      EXPECT_EQ(p.proto, it->second.proto);
      EXPECT_EQ(p.flow_hash(), it->second.flow_hash());
    }
  }
}

TEST(PacketMetaTest, FrameLenByProto) {
  PacketMeta tcp;
  tcp.proto = 6;
  tcp.payload_len = 100;
  EXPECT_EQ(tcp.frame_len(), 154u);
  PacketMeta udp;
  udp.proto = 17;
  udp.payload_len = 100;
  EXPECT_EQ(udp.frame_len(), 142u);
}

TEST(PacketMetaTest, FlowHashDependsOnTuple) {
  PacketMeta a;
  a.src_ip = 1;
  PacketMeta b;
  b.src_ip = 2;
  EXPECT_NE(a.flow_hash(), b.flow_hash());
  PacketMeta c = a;
  EXPECT_EQ(a.flow_hash(), c.flow_hash());
}

TEST(TraceIo, RoundTrip) {
  const auto trace = generate_trace(parse_profile("packets=2000 payload=64:1500").value());
  const std::string path = "/tmp/clara_trace_test.cltr";
  ASSERT_TRUE(write_trace(trace, path).ok());
  const auto loaded = read_trace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.packets[i];
    const auto& b = loaded.value().packets[i];
    EXPECT_EQ(a.flow_id, b.flow_id);
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.proto, b.proto);
    EXPECT_EQ(a.tcp_flags, b.tcp_flags);
    EXPECT_EQ(a.payload_len, b.payload_len);
    EXPECT_EQ(a.arrival_ns, b.arrival_ns);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_FALSE(read_trace("/tmp/definitely_missing_clara_trace.cltr").ok());
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = "/tmp/clara_bad_magic.cltr";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE00000000000000", 1, 16, f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedRecords) {
  const auto trace = generate_trace(parse_profile("packets=10").value());
  const std::string path = "/tmp/clara_trunc.cltr";
  ASSERT_TRUE(write_trace(trace, path).ok());
  // Truncate mid-record.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 10), 0);
  EXPECT_FALSE(read_trace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceIo, RefusesHeaderCountsBeyondTheFileOrTheCap) {
  const std::string path = "/tmp/clara_huge_count.cltr";
  const auto write_header = [&path](std::uint64_t count, long size) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    unsigned char header[16] = {'C', 'L', 'T', 'R', 1};
    for (int i = 0; i < 8; ++i) header[8 + i] = static_cast<unsigned char>(count >> (8 * i));
    const bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
    std::fclose(f);
    return ok && truncate(path.c_str(), size) == 0;  // past 16 bytes, a sparse hole
  };
  // 2^60 packets over no records; the cap over a file as long as it claims.
  for (const auto& [count, size] : {std::pair<std::uint64_t, long>{1ull << 60, 16},
                                    {kMaxPackets + 1, static_cast<long>(16 + 28 * (kMaxPackets + 1))}}) {
    ASSERT_TRUE(write_header(count, size));
    const auto loaded = read_trace(path);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_EQ(loaded.error().code, ErrorCode::kParse);
    EXPECT_NE(loaded.error().message.find(path), std::string::npos) << loaded.error().message;
  }
  std::remove(path.c_str());
}

// A trace file's profile is echoed on every response as a workload spec,
// so it must be one the parser takes. What the file fixes is checked: an
// empty file and a 9,001-byte payload are refused. What its packets only
// estimate is held to the spec range: three packets 1 ns apart read 10^9
// pps, not 1.5x10^9.
TEST(TraceIo, ProfileIsAlwaysASpecTheParserTakes) {
  const std::string path = "/tmp/clara_out_of_range.cltr";
  // Writes the CLTR bytes by hand: a header, then one 28-byte record per
  // (arrival_ns, payload) pair, each packet a TCP flow of its own.
  const auto write = [&path](const std::vector<std::pair<std::uint64_t, std::uint16_t>>& packets) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    unsigned char header[16] = {'C', 'L', 'T', 'R', 1};
    header[8] = static_cast<unsigned char>(packets.size());
    bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      unsigned char record[28] = {static_cast<unsigned char>(i)};
      record[16] = 6;
      record[18] = static_cast<unsigned char>(packets[i].second & 0xff);
      record[19] = static_cast<unsigned char>(packets[i].second >> 8);
      for (int b = 0; b < 8; ++b) record[20 + b] = static_cast<unsigned char>(packets[i].first >> (8 * b));
      ok = ok && std::fwrite(record, 1, sizeof(record), f) == sizeof(record);
    }
    return std::fclose(f) == 0 && ok;
  };
  const struct {
    std::vector<std::pair<std::uint64_t, std::uint16_t>> packets;
    const char* refusal;
  } refused[] = {
      {{}, "packets=0 must be an integer in [1, 16777216]"},
      {{{0, 9001}}, "payload=9001 must be n or lo:hi with lo <= hi, each an integer in [0, 9000]"},
  };
  for (const auto& c : refused) {
    ASSERT_TRUE(write(c.packets));
    const auto loaded = read_trace(path);
    ASSERT_FALSE(loaded.ok()) << c.refusal;
    EXPECT_EQ(loaded.error().code, ErrorCode::kParse);
    EXPECT_NE(loaded.error().message.find(path), std::string::npos) << loaded.error().message;
    EXPECT_NE(loaded.error().message.find(c.refusal), std::string::npos) << loaded.error().message;
  }
  const struct {
    std::vector<std::pair<std::uint64_t, std::uint16_t>> packets;
    double pps;
  } read[] = {
      {{{0, 300}, {1, 300}, {2, 300}}, kMaxPps},
      {{{0, 9000}, {1'000'000, 9000}, {2'000'000, 9000}}, 1500.0},
  };
  for (const auto& c : read) {
    ASSERT_TRUE(write(c.packets));
    const auto loaded = read_trace(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const WorkloadProfile& profile = loaded.value().profile;
    EXPECT_EQ(profile.pps, c.pps);
    EXPECT_EQ(profile.payload_max, c.packets.front().second);
    EXPECT_TRUE(parse_profile(profile.serialize()).ok()) << profile.serialize();
  }
  std::remove(path.c_str());
}

// `clara trace-gen` output at a range's edge reads back, though what its
// packets measure can land past the range: some zipf=8 files fit a slope
// above 8, and a Poisson trace just under the rate cap can count more
// packets over its span than the cap allows.
TEST(TraceIo, GeneratedTracesAtARangesEdgeReadBack) {
  const std::string path = "/tmp/clara_range_edge.cltr";
  std::vector<std::string> specs;
  for (int seed = 1; seed <= 8; ++seed) {
    for (const char* flows : {"100", "5000"}) {
      specs.push_back(std::string("zipf=8 packets=20000 flows=") + flows + " seed=" + std::to_string(seed));
    }
  }
  for (int seed = 1; seed <= 4; ++seed) {
    specs.push_back("arrivals=poisson pps=999999999 packets=3000 seed=" + std::to_string(seed));
  }
  int past_zipf = 0, past_pps = 0;
  for (const auto& spec : specs) {
    const auto trace = generate_trace(parse_profile(spec).value());
    const auto measured = analyze_trace(trace, 0);
    past_zipf += measured.zipf_alpha > kMaxZipf ? 1 : 0;
    past_pps += measured.observed_pps > kMaxPps ? 1 : 0;
    ASSERT_TRUE(write_trace(trace, path).ok()) << spec;
    const auto loaded = read_trace(path);
    ASSERT_TRUE(loaded.ok()) << spec << ": " << loaded.error().message;
    const WorkloadProfile& profile = loaded.value().profile;
    EXPECT_LE(profile.zipf_alpha, kMaxZipf) << spec;
    EXPECT_LE(profile.pps, kMaxPps) << spec;
    EXPECT_TRUE(parse_profile(profile.serialize()).ok()) << spec << " -> " << profile.serialize();
  }
  // The specs reach past both ranges, so the clamps above were exercised.
  EXPECT_GT(past_zipf, 0);
  EXPECT_GT(past_pps, 0);
  std::remove(path.c_str());
}

// A trace's rate is its packets over its last arrival, however few gaps
// it has: one- and two-packet files read back at the rate they were
// generated at, not the profile's default 60,000 pps.
TEST(TraceIo, ShortTracesReadBackTheirRate) {
  const std::string path = "/tmp/clara_short_trace.cltr";
  for (const char* packets : {"1", "2", "3"}) {
    const auto trace = generate_trace(parse_profile(std::string("pps=1000 packets=") + packets).value());
    ASSERT_TRUE(write_trace(trace, path).ok()) << packets;
    const auto loaded = read_trace(path);
    ASSERT_TRUE(loaded.ok()) << packets << ": " << loaded.error().message;
    EXPECT_EQ(loaded.value().profile.pps, 1000.0) << "packets=" << packets;
    EXPECT_EQ(analyze_trace(loaded.value(), 0).observed_pps, 1000.0) << "packets=" << packets;
  }
  std::remove(path.c_str());
}

TEST(TraceStats, DistinctFlows) {
  const auto trace = generate_trace(parse_profile("packets=10000 flows=300 zipf=0.5").value());
  EXPECT_LE(trace.distinct_flows(), 300u);
  EXPECT_GT(trace.distinct_flows(), 250u);  // most flows appear
}

}  // namespace
}  // namespace clara::workload
