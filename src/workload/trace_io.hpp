// Binary trace persistence ("pcap-lite").
//
// A compact fixed-record format standing in for pcap in this repository
// (DESIGN.md §6): Clara only consumes packet metadata, so records carry
// the 5-tuple, flags, sizes and arrival timestamps. Layout (little
// endian):
//
//   header:  magic "CLTR" | u32 version | u64 packet count
//   record:  u32 flow_id | u32 src_ip | u32 dst_ip | u16 src_port |
//            u16 dst_port | u8 proto | u8 tcp_flags | u16 payload_len |
//            u64 arrival_ns                                   (28 bytes)
#pragma once

#include <string>

#include "common/result.hpp"
#include "workload/tracegen.hpp"

namespace clara::workload {

/// Serializes packets only; the generating profile is not persisted.
Status write_trace(const Trace& trace, const std::string& path);

/// The trace's profile is what its packets show (profile_from_trace), checked
/// against the spec ranges. Errors are kParse naming the file; a count beyond the
/// file or kMaxPackets is refused unread, and an empty file or a payload above the
/// spec's names the key and its range.
Result<Trace> read_trace(const std::string& path);

}  // namespace clara::workload
