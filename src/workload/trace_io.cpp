#include "workload/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/strings.hpp"
#include "workload/analysis.hpp"

namespace clara::workload {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr long kHeaderSize = 16;
constexpr std::size_t kRecordSize = 28;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void put_u16(unsigned char* p, std::uint16_t v) {
  p[0] = v & 0xff;
  p[1] = (v >> 8) & 0xff;
}
void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
}
std::uint16_t get_u16(const unsigned char* p) { return static_cast<std::uint16_t>(p[0] | (p[1] << 8)); }
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

Status write_trace(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return make_error("cannot open for writing: " + path);

  unsigned char header[kHeaderSize];
  std::memcpy(header, kMagic, 4);
  put_u32(header + 4, kVersion);
  put_u64(header + 8, trace.packets.size());
  if (std::fwrite(header, 1, sizeof(header), f.get()) != sizeof(header)) {
    return make_error("short write on header: " + path);
  }

  unsigned char rec[kRecordSize];
  for (const auto& p : trace.packets) {
    put_u32(rec + 0, p.flow_id);
    put_u32(rec + 4, p.src_ip);
    put_u32(rec + 8, p.dst_ip);
    put_u16(rec + 12, p.src_port);
    put_u16(rec + 14, p.dst_port);
    rec[16] = p.proto;
    rec[17] = p.tcp_flags;
    put_u16(rec + 18, p.payload_len);
    put_u64(rec + 20, p.arrival_ns);
    if (std::fwrite(rec, 1, kRecordSize, f.get()) != kRecordSize) {
      return make_error("short write on record: " + path);
    }
  }
  return {};
}

Result<Trace> read_trace(const std::string& path) {
  const auto fail = [&path](const std::string& what) {
    return make_error(ErrorCode::kParse, strf("trace %s: %s", path.c_str(), what.c_str()));
  };
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail("cannot open for reading");

  unsigned char header[kHeaderSize];
  if (std::fread(header, 1, sizeof(header), f.get()) != sizeof(header)) {
    return fail("truncated header");
  }
  if (std::memcmp(header, kMagic, 4) != 0) return fail("bad magic (not a CLTR trace)");
  const std::uint32_t version = get_u32(header + 4);
  if (version != kVersion) return fail(strf("unsupported trace version %u", version));
  const std::uint64_t count = get_u64(header + 8);
  // Bound the count by the records the file holds and the cap before it sizes anything.
  const long size = std::fseek(f.get(), 0, SEEK_END) == 0 ? std::ftell(f.get()) : -1;
  if (size < kHeaderSize || std::fseek(f.get(), kHeaderSize, SEEK_SET) != 0) return fail("cannot seek");
  const std::uint64_t records = static_cast<std::uint64_t>(size - kHeaderSize) / kRecordSize;
  if (count > std::min(records, kMaxPackets)) {
    return fail(strf("header declares %llu packets; the file holds %llu, the limit is %llu",
                     (unsigned long long)count, (unsigned long long)records, (unsigned long long)kMaxPackets));
  }

  Trace trace;
  trace.packets.reserve(count);
  unsigned char rec[kRecordSize];
  for (std::uint64_t i = 0; i < count; ++i) {
    if (std::fread(rec, 1, kRecordSize, f.get()) != kRecordSize) {
      return fail(strf("truncated record %llu", (unsigned long long)i));
    }
    PacketMeta p;
    p.flow_id = get_u32(rec + 0);
    p.src_ip = get_u32(rec + 4);
    p.dst_ip = get_u32(rec + 8);
    p.src_port = get_u16(rec + 12);
    p.dst_port = get_u16(rec + 14);
    p.proto = rec[16];
    p.tcp_flags = rec[17];
    p.payload_len = get_u16(rec + 18);
    p.arrival_ns = get_u64(rec + 20);
    trace.packets.push_back(p);
  }
  // The profile the packets show must be a spec the parser takes, since a
  // response echoes it as one. Its estimates are held to their ranges, so
  // what is refused is what the file fixes: no packets, or a payload above
  // the spec's.
  auto profile = parse_profile(profile_from_trace(trace).serialize());
  if (!profile) return fail(profile.error().message);
  trace.profile = profile.value();
  return trace;
}

}  // namespace clara::workload
