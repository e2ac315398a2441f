// Serve subsystem tests (ctest label `serve`): Request/Response JSON
// round-trips are byte-identical, unknown fields are rejected with a
// typed kParse error and a did-you-mean suggestion, so is a field of the
// wrong type, docs/api.md lists every wire key and docs/workloads.md
// every workload-spec key, the Service answers
// identical requests with byte-identical payloads at every jobs level,
// a warm daemon answers repeated analyses without re-solving the ILP,
// a warm one answers spec workloads from the summary stage without
// generating a trace, every request kind answers byte-identically with
// the cache on or off, trace files are re-read on every request and
// priced at their own rate, hostile spec values and trace headers get
// one typed error each from a daemon that keeps serving, deadline
// expiry degrades instead of erroring, and the admission gate
// rejects overload with typed responses rather than dropped
// connections. Dispatch: an idle daemon's reader answers a lone
// request, a pipelined burst or a line with bytes behind it (read or
// still in the socket) goes to the pool, a request sent while the
// reader answers another waits for that answer, both paths answer the
// same bytes, at most jobs requests execute at once, drain and stop
// still answer a request the reader holds, and one-shot connections
// leave no recorder ring or simulator behind; a repair reuses the last
// repair's faulted analyzer. The resilience half (docs/robustness.md "Serve
// resilience"): a seeded mutation-fuzz corpus over the wire parser,
// hostile-client limits (oversized lines, newline-less floods,
// slow-loris drips, connection caps), accept-loop errno survival,
// connection-slot reaping, bounded drain, and the chaos loadgen
// contract — every request ends in exactly one response or one typed
// client error, reproducibly at jobs=1/2/8. Clean under
// -DCLARA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cir/printer.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "core/request.hpp"
#include "fault/fault.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "workload/profile.hpp"
#include "workload/trace_io.hpp"
#include "workload/tracegen.hpp"
#include "wire_corpus.hpp"

namespace clara::serve {
namespace {

using core::Request;
using core::RequestKind;
using core::Response;

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(parallel::jobs()) { parallel::set_jobs(n); }
  ~JobsGuard() { parallel::set_jobs(saved_); }

 private:
  std::size_t saved_;
};

/// Clears the process-wide analysis cache on entry and exit so tests
/// don't see each other's entries or hit counters.
class CacheGuard {
 public:
  CacheGuard() { core::analysis_cache().clear(); }
  ~CacheGuard() { core::analysis_cache().clear(); }
};

constexpr const char* kSmallWorkload =
    "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=42";

Request small_analyze(const char* nf = "lpm") {
  Request request;
  request.id = "t";
  request.kind = RequestKind::kAnalyze;
  request.nf = nf;
  request.workload = kSmallWorkload;
  return request;
}

std::string temp_socket(const char* tag) {
  return strf("/tmp/clara-serve-test-%s-%d.sock", tag, static_cast<int>(::getpid()));
}

/// Raw AF_UNIX client for hostile-peer tests the typed Client cannot
/// express: garbage bytes, newline-less floods, mid-line stalls. Recv
/// is bounded (2 s) so a daemon bug surfaces as a failed assertion,
/// never a hung test.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_bytes(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;  // EPIPE after a server-side close is expected
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One '\n'-terminated line, or empty on EOF / recv timeout.
  std::string read_line() {
    while (true) {
      if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Whether the server sends anything within `ms`; takes nothing.
  bool bytes_within(int ms) {
    if (!buffer_.empty()) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, ms) > 0;
  }

  /// Drains until the server closes: true on EOF or a reset (a close
  /// with our unread bytes still queued surfaces as ECONNRESET), false
  /// only on a recv timeout — the server is holding us open.
  bool at_eof() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- wire format -------------------------------------------------------------

/// A response with one class row and one sweep row, so every wire key,
/// the rows' included, is emitted.
Response one_row_response() {
  Response response;
  response.classes.emplace_back();
  response.sweep.emplace_back();
  return response;
}

/// Every object key under `json`, as its dotted path (`map.pps`,
/// `classes[0].name`) with its JSON kind.
void wire_keys(const Json& json, const std::string& prefix,
               std::vector<std::pair<std::string, Json::Kind>>& out) {
  if (json.is_array()) {
    for (std::size_t i = 0; i < json.as_array().size(); ++i) {
      wire_keys(json.as_array()[i], strf("%s[%zu]", prefix.c_str(), i), out);
    }
  }
  for (const auto& [key, value] : json.as_object()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    out.emplace_back(path, value.kind());
    wire_keys(value, path, out);
  }
}

std::vector<std::pair<std::string, Json::Kind>> wire_keys(const std::string& line) {
  std::vector<std::pair<std::string, Json::Kind>> out;
  wire_keys(Json::parse(line).value(), "", out);
  return out;
}

/// `json` written back out with the value at dotted path `target`
/// replaced by the raw JSON text `raw`.
std::string splice(const Json& json, const std::string& path, const std::string& target,
                   const std::string& raw) {
  if (path == target) return raw;
  std::string out;
  if (json.is_object()) {
    for (const auto& [key, value] : json.as_object()) {
      out += out.empty() ? "{" : ",";
      const std::string child = path.empty() ? key : path + "." + key;
      out += json_quote(key) + ":" + splice(value, child, target, raw);
    }
    return out.empty() ? "{}" : out + "}";
  }
  if (json.is_array()) {
    for (std::size_t i = 0; i < json.as_array().size(); ++i) {
      out += i == 0 ? "[" : ",";
      out += splice(json.as_array()[i], strf("%s[%zu]", path.c_str(), i), target, raw);
    }
    return out.empty() ? "[]" : out + "]";
  }
  if (json.is_string()) return json_quote(json.as_string());
  if (json.is_number()) return json_number(json.as_double());
  if (json.is_bool()) return json.as_bool() ? "true" : "false";
  return "null";
}

template <class M>
void expect_parse_error(const std::string& line, const std::string& path) {
  auto parsed = M::from_json(line);
  ASSERT_FALSE(parsed.ok()) << line;
  EXPECT_EQ(parsed.error().code, ErrorCode::kParse) << line;
  EXPECT_NE(parsed.error().message.find(path), std::string::npos)
      << path << ": " << parsed.error().message;
}

TEST(ServeWireTest, RequestRoundTripIsByteIdenticalForEveryKind) {
  std::vector<Request> requests;
  {
    Request r = small_analyze();
    r.id = "analyze-1";
    r.nic = "netronome-agilio-cx";
    r.options.stages = core::PipelineStages::no_patterns();
    r.options.map.time_budget_ms = 12.5;
    r.options.predict.payload_buckets = 7;
    r.energy = true;
    r.breakdown = true;
    r.partial = true;
    r.paths = true;
    requests.push_back(std::move(r));
  }
  {
    Request r = small_analyze("nat");
    r.id = "sweep-1";
    r.kind = RequestKind::kSweep;
    r.sweep_pps = {10'000.0, 60'000.0, 123'456.789};
    requests.push_back(std::move(r));
  }
  {
    Request r = small_analyze("nat");
    r.id = "repair-1";
    r.kind = RequestKind::kRepair;
    r.fault_plan = "fail-unit csum\nderate-unit npu0 50\n";
    requests.push_back(std::move(r));
  }
  {
    Request r = small_analyze("rewrite");
    r.id = "validate-\"quoted\"\n";
    r.kind = RequestKind::kValidate;
    r.trace_file = "/tmp/some trace.cltr";
    r.options.use_cache = false;
    r.options.fail_on_unknown_calls = false;
    requests.push_back(std::move(r));
  }
  for (const Request& request : requests) {
    const std::string first = request.to_json();
    auto parsed = Request::from_json(first);
    ASSERT_TRUE(parsed.ok()) << first << "\n" << parsed.error().message;
    EXPECT_EQ(parsed.value().to_json(), first) << "kind=" << to_string(request.kind);
  }
}

TEST(ServeWireTest, ResponseRoundTripIsByteIdentical) {
  Response response;
  response.id = "r-1";
  response.kind = RequestKind::kSweep;
  response.ok = true;
  response.nf_name = "nat";
  response.nic = "netronome-agilio-cx";
  response.workload = kSmallWorkload;
  response.substituted = 3;
  response.patterns = 1;
  response.degraded = true;
  response.repaired = true;
  response.repair_displaced = 2;
  response.repair_pinned = 5;
  response.mean_latency_cycles = 1234.5678901234;
  response.mean_latency_us = 0.1;  // classic binary-unrepresentable
  response.worst_case_cycles = 1e9 + 1;
  response.throughput_pps = 60'000.0;
  response.bottleneck = "emem";
  response.emem_cache_hit_rate = 2.0 / 3.0;
  response.flow_cache_hit_rate = 1e-9;
  response.classes.push_back({"tcp \"syn\"", 0.25, 812.0});
  response.classes.push_back({"udp", 0.75, 97.125});
  response.report = "line one\nline two\n";
  response.breakdown_text = "a\tb\n";
  response.partial_text = "plan 1\n";
  response.paths_text = "NF behaviours (2 paths):\n";
  response.energy_nj_per_packet = 42.0625;
  // A seed above 2^53 would lose precision as a double; the wire format
  // carries seeds as strings.
  response.sweep.push_back({60'000.0, 0xFFFF'FFFF'FFFF'FFFFull, true, "", 1.5, 900.0, "sram"});
  response.sweep.push_back({80'000.0, 7, false, "solver: infeasible", 0.0, 0.0, ""});
  response.predicted_cycles = 811.0;
  response.simulated_cycles = 808.5;
  response.rel_err = 0.0030902348523;
  response.validation_text = "component table\n";

  const std::string first = response.to_json();
  auto parsed = Response::from_json(first);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().to_json(), first);
  EXPECT_EQ(parsed.value().sweep[0].seed, 0xFFFF'FFFF'FFFF'FFFFull);
}

TEST(ServeWireTest, ErrorResponseRoundTripsEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kUnspecified, ErrorCode::kParse, ErrorCode::kVerify, ErrorCode::kUnknownCall,
        ErrorCode::kInfeasible, ErrorCode::kDeadline, ErrorCode::kInternal,
        ErrorCode::kOverloaded}) {
    const Response original = core::error_response(small_analyze(), code, "why: \"because\"");
    const std::string first = original.to_json();
    auto parsed = Response::from_json(first);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().error_code, code);
    EXPECT_EQ(parsed.value().to_json(), first);
  }
}

TEST(ServeWireTest, UnknownFieldRejectedWithSuggestion) {
  const std::string good = small_analyze().to_json();
  // Misspell "workload" -> "worklod": strict parsing must reject it with
  // a typed kParse error and a did-you-mean hint, not silently ignore.
  std::string bad = good;
  const auto pos = bad.find("\"workload\"");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 10, "\"worklod\"");
  auto parsed = Request::from_json(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
  EXPECT_NE(parsed.error().message.find("worklod"), std::string::npos) << parsed.error().message;
  EXPECT_NE(parsed.error().message.find("did you mean \"workload\""), std::string::npos)
      << parsed.error().message;
}

TEST(ServeWireTest, NestedUnknownFieldAndKindTyposRejected) {
  auto nested = Request::from_json(
      R"({"proto":"clara-serve/1","id":"x","kind":"analyze","map":{"time_budget_m":5}})");
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.error().code, ErrorCode::kParse);
  EXPECT_NE(nested.error().message.find("did you mean \"time_budget_ms\""), std::string::npos)
      << nested.error().message;

  auto kind = Request::from_json(R"({"proto":"clara-serve/1","id":"x","kind":"analyse"})");
  ASSERT_FALSE(kind.ok());
  EXPECT_NE(kind.error().message.find("did you mean \"analyze\""), std::string::npos)
      << kind.error().message;
}

TEST(ServeWireTest, CountFieldsRejectNonIntegralAndOutOfRangeValues) {
  auto line = [](const std::string& section, const std::string& field, const std::string& value) {
    return R"({"proto":"clara-serve/1","id":"x","kind":"analyze",")" + section + R"(":{")" + field +
           R"(":)" + value + "}}";
  };
  // Buckets live in 16 bits of a class key, so 65537 would alias; a
  // negative, zero, fractional or non-numeric count has no meaning.
  for (const std::string value : {"-1", "0", "65537", "2.5", "1e300", "\"8\"", "true"}) {
    auto parsed = Request::from_json(line("predict", "payload_buckets", value));
    ASSERT_FALSE(parsed.ok()) << "payload_buckets=" << value;
    EXPECT_EQ(parsed.error().code, ErrorCode::kParse) << "payload_buckets=" << value;
    EXPECT_NE(parsed.error().message.find("predict.payload_buckets"), std::string::npos)
        << parsed.error().message;
  }
  for (const std::string value : {"-1", "0.5", "1e300", "\"5\""}) {
    auto parsed = Request::from_json(line("map", "max_ilp_nodes", value));
    ASSERT_FALSE(parsed.ok()) << "max_ilp_nodes=" << value;
    EXPECT_EQ(parsed.error().code, ErrorCode::kParse) << "max_ilp_nodes=" << value;
    EXPECT_NE(parsed.error().message.find("map.max_ilp_nodes"), std::string::npos) << parsed.error().message;
  }
  for (const auto& [value, expected] : {std::pair{"1", 1u}, std::pair{"65536", 65536u}, std::pair{"3e1", 30u}}) {
    auto parsed = Request::from_json(line("predict", "payload_buckets", value));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().options.predict.payload_buckets, expected);
  }
  auto zero_nodes = Request::from_json(line("map", "max_ilp_nodes", "0"));
  ASSERT_TRUE(zero_nodes.ok()) << zero_nodes.error().message;
  EXPECT_EQ(zero_nodes.value().options.map.max_ilp_nodes, 0u);

  // Each double option has a closed range; a value past it, or one that
  // reads as infinity, is kParse naming the field and the range. Both
  // ends are taken as written.
  const struct {
    const char* section;
    const char* field;
    const char* below;
    const char* above;
    const char* lo;
    const char* hi;
    const char* range;
  } ranged[] = {
      {"map", "pps", "0.5", "1000000001", "1", "1e9", "[1, 1000000000]"},
      {"map", "ctm_state_fraction", "-0.01", "1.01", "0", "1", "[0, 1]"},
      {"map", "time_budget_ms", "-1", "1e10", "0", "1e9", "[0, 1000000000]"},
      {"predict", "nic_share", "0.04", "1.5", "0.05", "1", "[0.05, 1]"},
      {"predict", "foreign_cache_pressure_bytes", "-1", "9007199254740994", "0", "9007199254740992",
       "[0, 9007199254740992]"},
  };
  for (const auto& f : ranged) {
    const std::string path = std::string(f.section) + "." + f.field;
    for (const std::string value : {f.below, f.above, "1e400", "-1e400"}) {
      auto parsed = Request::from_json(line(f.section, f.field, value));
      ASSERT_FALSE(parsed.ok()) << path << "=" << value;
      EXPECT_EQ(parsed.error().code, ErrorCode::kParse) << path << "=" << value;
      EXPECT_EQ(parsed.error().message, "\"" + path + "\" must be a number in " + f.range) << value;
    }
    for (const std::string value : {f.lo, f.hi}) {
      auto parsed = Request::from_json(line(f.section, f.field, value));
      ASSERT_TRUE(parsed.ok()) << path << "=" << value << ": " << parsed.error().message;
      EXPECT_EQ(Json::parse(parsed.value().to_json()).value().get(f.section)->number_at(f.field),
                std::strtod(value.c_str(), nullptr))
          << path << "=" << value;
    }
  }

  // Every field's type is checked: each key of a default request and of
  // a response with one row of each kind, nested keys included, given
  // every JSON type but its own, is kParse naming its dotted path.
  const auto each_wrong_type = [](const std::string& emitted, auto expect) {
    const Json root = Json::parse(emitted).value();
    for (const auto& [path, kind] : wire_keys(emitted)) {
      for (const std::string wrong : {"null", "true", "1", "\"x\"", "[]", "{}"}) {
        if (Json::parse(wrong).value().kind() != kind) expect(splice(root, "", path, wrong), path);
      }
    }
  };
  each_wrong_type(Request().to_json(), expect_parse_error<Request>);
  each_wrong_type(one_row_response().to_json(), expect_parse_error<Response>);

  // Response counts, enum names and u64 strings are range-checked too.
  const auto response = [](const std::string& fields) {
    return R"({"proto":"clara-serve/1","kind":"analyze",)" + fields + "}";
  };
  for (const char* count : {"substituted", "patterns", "repair_displaced", "repair_pinned"}) {
    for (const char* value : {"-1", "1e300", "2.5"}) {
      expect_parse_error<Response>(response(strf(R"("%s":%s)", count, value)), count);
    }
  }
  expect_parse_error<Response>(response(R"("error_code":"bogus")"), "error_code");
  expect_parse_error<Response>(response(R"("classes":{})"), "classes");
  for (const char* seed : {"12abc", "", "-1", " 12", "18446744073709551616"}) {
    expect_parse_error<Response>(response(strf(R"("sweep":[{"seed":"%s"}])", seed)),
                                 "sweep[0].seed");
  }
  auto seed = Response::from_json(response(R"("sweep":[{"seed":"18446744073709551615"}])"));
  ASSERT_TRUE(seed.ok()) << seed.error().message;
  EXPECT_EQ(seed.value().sweep[0].seed, 0xFFFF'FFFF'FFFF'FFFFull);
}

TEST(ServeWireTest, ApiDocListsEveryWireField) {
  std::ifstream file(CLARA_API_DOC);
  ASSERT_TRUE(file) << CLARA_API_DOC;
  const std::string doc{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
  const auto section = [&](const std::string& heading) {
    const auto begin = doc.find(heading);
    if (begin == std::string::npos) return std::string();
    return doc.substr(begin, doc.find("\n### ", begin + 1) - begin);
  };
  const std::pair<std::string, std::string> schemas[] = {
      {"### Request schema", Request().to_json()},
      {"### Response schema", one_row_response().to_json()}};
  for (const auto& [heading, emitted] : schemas) {
    const std::string text = section(heading);
    ASSERT_FALSE(text.empty()) << heading;
    for (auto [path, kind] : wire_keys(emitted)) {
      if (const auto row = path.find("[0]"); row != std::string::npos) path.replace(row, 3, "[]");
      EXPECT_NE(text.find("`" + path + "`"), std::string::npos)
          << heading << " omits `" << path << "`";
    }
  }
}

TEST(ServeWireTest, WorkloadDocListsEverySpecKey) {
  std::ifstream file(CLARA_WORKLOADS_DOC);
  ASSERT_TRUE(file) << CLARA_WORKLOADS_DOC;
  const std::string doc{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
  const auto begin = doc.find("## Profiles");
  ASSERT_NE(begin, std::string::npos);
  const std::string section = doc.substr(begin, doc.find("\n## ", begin + 1) - begin);
  for (const std::string& token : split(workload::WorkloadProfile{}.serialize(), ' ')) {
    const std::string key = token.substr(0, token.find('='));
    EXPECT_NE(section.find("| `" + key + "` |"), std::string::npos)
        << "docs/workloads.md's key table omits `" << key << "`";
  }
}

TEST(ServeWireTest, ForeignProtocolRejected) {
  auto parsed = Request::from_json(R"({"proto":"clara-serve/2","id":"x","kind":"analyze"})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
  EXPECT_NE(parsed.error().message.find("clara-serve/1"), std::string::npos);
}

// --- service -----------------------------------------------------------------

TEST(ServeServiceTest, AnalyzeIsByteIdenticalAcrossJobsLevels) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  std::string reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    const Response response = service.handle(small_analyze());
    ASSERT_TRUE(response.ok) << response.error;
    const std::string line = response.to_json();
    if (reference.empty()) {
      reference = line;
    } else {
      EXPECT_EQ(line, reference) << "jobs=" << jobs_level;
    }
  }
  // The payload carries the effective workload (seed included) but no
  // timing or cache-visibility fields — that is what makes it stable.
  EXPECT_NE(reference.find("seed=42"), std::string::npos);
}

TEST(ServeServiceTest, WarmCacheAnswersWithoutIlpSolves) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  auto& solves = obs::metrics().counter("ilp/solves");

  const Response cold = service.handle(small_analyze("nat"));
  ASSERT_TRUE(cold.ok) << cold.error;

  const auto hits_before = core::analysis_cache().stats().hits;
  const std::uint64_t solves_before = solves.value();
  const Response warm = service.handle(small_analyze("nat"));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(solves.value(), solves_before) << "warm analyze must not re-solve the ILP";
  EXPECT_GT(core::analysis_cache().stats().hits, hits_before);
  EXPECT_EQ(warm.to_json(), cold.to_json());
}

/// One request of every kind on the small nat workload.
std::vector<Request> every_kind() {
  std::vector<Request> requests(4, small_analyze("nat"));
  requests[1].kind = RequestKind::kSweep;
  requests[1].sweep_pps = {40'000.0, 80'000.0};
  requests[2].kind = RequestKind::kRepair;
  requests[2].fault_plan = "fail-unit csum\n";
  requests[3].kind = RequestKind::kValidate;
  return requests;
}

TEST(ServeServiceTest, WarmCacheAnswersWithoutTraceGeneration) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  auto& hits = obs::metrics().counter("cache/hits", "stage=summary");
  auto& misses = obs::metrics().counter("cache/misses", "stage=summary");

  // Summaries a warm request reads: its workload, plus one per sweep point.
  const std::vector<std::pair<Request, std::uint64_t>> cases = {
      {every_kind()[0], 1}, {every_kind()[1], 3}, {every_kind()[2], 1}};
  for (const auto& [request, summaries] : cases) {
    const std::string what = to_string(request.kind);
    const Response cold = service.handle(request);
    ASSERT_TRUE(cold.ok) << what << ": " << cold.error;
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t misses_before = misses.value();
    const Response warm = service.handle(request);
    ASSERT_TRUE(warm.ok) << what << ": " << warm.error;
    EXPECT_EQ(hits.value() - hits_before, summaries) << what;
    EXPECT_EQ(misses.value(), misses_before) << what << " generated a trace";
    EXPECT_EQ(warm.to_json(), cold.to_json()) << what;
  }
}

TEST(ServeServiceTest, ValidateGeneratesItsTraceOnce) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  auto& traces = obs::metrics().counter("workload/traces_generated");
  const Request validate = every_kind()[3];
  Request uncached = validate;
  uncached.options.use_cache = false;
  Request reseeded = validate;
  reseeded.workload += " seed=1";
  const std::string path = strf("/tmp/clara-serve-test-validate-%d.cltr", static_cast<int>(::getpid()));
  ASSERT_TRUE(workload::write_trace(workload::generate_trace(workload::parse_profile(kSmallWorkload).value()), path)
                  .ok());
  Request from_file = validate;
  from_file.workload.clear();
  from_file.trace_file = path;

  // Cold: the summary miss generates the trace, and the simulator replays
  // that same trace. Warm: the summary hits, and the simulator replays the
  // trace the cold request kept. Cache off: the one trace serves both. A
  // new seed generates its own, which its repeat replays in turn. A trace
  // file is read, not generated, and replays the same packets.
  const struct {
    const char* what;
    const Request& request;
    std::uint64_t generated;
  } cases[] = {{"cold", validate, 1},    {"warm", validate, 0},         {"cache off", uncached, 1},
               {"seed=1", reseeded, 1}, {"seed=1 warm", reseeded, 0}, {"trace file", from_file, 0}};
  std::map<std::string, std::string> first;  // workload spec -> its first response
  double simulated_cycles = 0.0;
  for (const auto& c : cases) {
    const std::uint64_t before = traces.value();
    const Response response = service.handle(c.request);
    ASSERT_TRUE(response.ok) << c.what << ": " << response.error;
    EXPECT_EQ(traces.value() - before, c.generated) << c.what;
    const auto [it, inserted] = first.emplace(c.request.workload, response.to_json());
    EXPECT_EQ(response.to_json(), it->second) << c.what;
    if (c.request.trace_file.empty()) {
      if (c.request.workload == validate.workload) simulated_cycles = response.simulated_cycles;
    } else {
      EXPECT_EQ(response.simulated_cycles, simulated_cycles) << c.what;
    }
  }
  ::unlink(path.c_str());
}

// Only validate holds packets: an analyze, a sweep (both points) and a
// repair of a fresh spec summarize it in the generator's own pass, cold
// or with the cache off, and answer the same bytes either way at every
// jobs level.
TEST(ServeServiceTest, SpecRequestsBuildNoTrace) {
  Service service(ServiceOptions{0});
  auto& traces = obs::metrics().counter("workload/traces_generated");
  auto requests = every_kind();
  requests.pop_back();  // validate: ValidateGeneratesItsTraceOnce
  for (auto& request : requests) request.workload = "tcp=0.8 flows=2000 payload=64:1500 packets=2000 seed=4242";
  std::vector<std::string> reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    CacheGuard cache;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string tag = strf("jobs=%zu %s", jobs_level, to_string(requests[i].kind));
      Request uncached = requests[i];
      uncached.options.use_cache = false;
      const std::uint64_t before = traces.value();
      const Response off = service.handle(uncached);
      const Response cold = service.handle(requests[i]);
      EXPECT_EQ(traces.value() - before, 0u) << tag;
      ASSERT_TRUE(off.ok) << tag << ": " << off.error;
      ASSERT_TRUE(cold.ok) << tag << ": " << cold.error;
      if (reference.size() == i) reference.push_back(off.to_json());
      EXPECT_EQ(off.to_json(), reference[i]) << tag << " cache=off";
      EXPECT_EQ(cold.to_json(), reference[i]) << tag << " cache=on cold";
    }
  }
}

TEST(ServeServiceTest, EveryKindIsByteIdenticalCacheOnOrOffAcrossJobsLevels) {
  Service service(ServiceOptions{0});
  const auto requests = every_kind();
  std::vector<std::string> reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    CacheGuard cache;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string tag = strf("jobs=%zu %s", jobs_level, to_string(requests[i].kind));
      Request uncached = requests[i];
      uncached.options.use_cache = false;
      const Response off = service.handle(uncached);
      const Response cold = service.handle(requests[i]);
      const Response warm = service.handle(requests[i]);
      ASSERT_TRUE(off.ok) << tag << ": " << off.error;
      ASSERT_TRUE(cold.ok) << tag << ": " << cold.error;
      ASSERT_TRUE(warm.ok) << tag << ": " << warm.error;
      if (reference.size() == i) reference.push_back(off.to_json());
      EXPECT_EQ(off.to_json(), reference[i]) << tag << " cache=off";
      EXPECT_EQ(cold.to_json(), reference[i]) << tag << " cache=on cold";
      EXPECT_EQ(warm.to_json(), reference[i]) << tag << " cache=on warm";
    }
  }
}

TEST(ServeServiceTest, RewrittenTraceFileAnswersFromItsNewContent) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  const auto write = [](const char* spec, const std::string& path) {
    const auto trace = workload::generate_trace(workload::parse_profile(spec).value());
    return workload::write_trace(trace, path).ok();
  };
  const std::string path = strf("/tmp/clara-serve-test-rewrite-%d.cltr", static_cast<int>(::getpid()));
  const std::string fresh = strf("/tmp/clara-serve-test-fresh-%d.cltr", static_cast<int>(::getpid()));
  const char* kSmall = "tcp=0.8 flows=2000 payload=300 packets=2000 seed=5";
  const char* kLarge = "tcp=0.8 flows=2000 payload=1200 packets=2000 seed=5";
  auto& hits = obs::metrics().counter("cache/hits", "stage=summary");
  auto& misses = obs::metrics().counter("cache/misses", "stage=summary");
  const std::uint64_t lookups_before = hits.value() + misses.value();

  Request request = small_analyze("nat");
  request.trace_file = path;
  ASSERT_TRUE(write(kSmall, path));
  const Response before = service.handle(request);
  ASSERT_TRUE(write(kLarge, path));
  const Response after = service.handle(request);
  ASSERT_TRUE(write(kLarge, fresh));
  Request reference = request;
  reference.trace_file = fresh;
  const Response expected = service.handle(reference);
  ::unlink(path.c_str());
  ::unlink(fresh.c_str());

  ASSERT_TRUE(before.ok) << before.error;
  ASSERT_TRUE(after.ok) << after.error;
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_NE(after.mean_latency_cycles, before.mean_latency_cycles);
  EXPECT_EQ(after.to_json(), expected.to_json());
  EXPECT_EQ(hits.value() + misses.value(), lookups_before)
      << "trace files never reach the summary stage";
}

TEST(ServeServiceTest, TraceFileIsPricedLikeTheSpecThatWroteIt) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  const std::string path = strf("/tmp/clara-serve-test-rate-%d.cltr", static_cast<int>(::getpid()));
  const struct {
    const char* nf;
    const char* spec;
  } cases[] = {
      {"nat", "tcp=0.8 flows=2000 payload=800 pps=3000000 packets=20000 seed=7"},
      {"lpm", "tcp=0.8 flows=2000 payload=64:1500 pps=1500000 packets=20000 seed=7"},
  };
  for (const auto& c : cases) {
    Request spec = small_analyze(c.nf);
    spec.workload = c.spec;
    Request file = spec;
    file.workload.clear();
    file.trace_file = path;
    const auto trace = workload::generate_trace(workload::parse_profile(c.spec).value());
    ASSERT_TRUE(workload::write_trace(trace, path).ok());
    const Response from_spec = service.handle(spec);
    const Response from_file = service.handle(file);
    ::unlink(path.c_str());
    ASSERT_TRUE(from_spec.ok) << from_spec.error;
    ASSERT_TRUE(from_file.ok) << from_file.error;
    // The file's offered rate is the one its arrivals show, not a default.
    const auto echoed = workload::parse_profile(from_file.workload);
    ASSERT_TRUE(echoed.ok()) << from_file.workload;
    EXPECT_NEAR(echoed.value().pps / trace.profile.pps, 1.0, 1e-3) << from_file.workload;
    EXPECT_EQ(strf("%.0f", from_file.mean_latency_cycles), strf("%.0f", from_spec.mean_latency_cycles))
        << c.nf << " " << c.spec;
  }
}

TEST(ServeServiceTest, SpecsDifferingOnlyInSeedOrSeventhDigitDoNotShareASummary) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  auto& misses = obs::metrics().counter("cache/misses", "stage=summary");
  const std::uint64_t misses_before = misses.value();

  Request base = small_analyze("nat");
  Request finer = base;
  finer.workload = "tcp=0.8000001 flows=2000 payload=300 pps=60000 packets=2000 seed=42";
  Request reseeded = base;
  reseeded.workload = "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=43";
  const Response a = service.handle(base);
  const Response b = service.handle(finer);
  const Response c = service.handle(reseeded);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(misses.value() - misses_before, 3u) << "each spec is summarized on its own";
  EXPECT_NE(b.workload.find("tcp=0.8000001 "), std::string::npos) << b.workload;
  EXPECT_NE(a.workload, b.workload);
  EXPECT_NE(c.workload.find("seed=43"), std::string::npos) << c.workload;
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(ServeServiceTest, DeadlineExpiryDegradesInsteadOfFailing) {
  Service service(ServiceOptions{0});
  Request request = small_analyze("nat");
  request.options.use_cache = false;  // force a live solve
  request.options.map.time_budget_ms = 1e-6;
  const Response response = service.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.degraded);
}

TEST(ServeServiceTest, UnknownNfAndNicGetTypedErrors) {
  Service service(ServiceOptions{0});
  Request typo = small_analyze("lmp");
  Response response = service.handle(typo);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, ErrorCode::kParse);
  EXPECT_NE(response.error.find("did you mean \"lpm\""), std::string::npos) << response.error;
  EXPECT_EQ(response.id, typo.id);

  Request nic = small_analyze();
  nic.nic = "no-such-nic";
  response = service.handle(nic);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, ErrorCode::kParse);
}

TEST(ServeServiceTest, ValidateWithoutAComparablePortIsAParseError) {
  Service service(ServiceOptions{0});
  // No hand port; a port on the match-action engine while the mapping
  // keeps the LPM walk in software; and inline CIR named like a ported
  // NF whose state that port cannot serve (an empty table, an extra one).
  cir::Function empty = nf::build_meter_nf();
  empty.state_objects[0].entries = 0;
  cir::Function extra = nf::build_meter_nf();
  extra.state_objects.push_back(extra.state_objects[0]);
  std::vector<std::pair<Request, std::string>> cases = {{small_analyze("csum-loop"), "'csum-loop'"},
                                                        {small_analyze("lpm-nocache"), "'lpm-nocache"}};
  for (const auto& fn : {empty, extra}) {
    cases.emplace_back(small_analyze(""), "'meter'");
    cases.back().first.nf_cir = cir::print_module(cir::Module{fn.name, {fn}});
  }
  // A ported NF on a NIC the simulator does not model.
  for (const char* nic : {"soc-arm", "pipeline-asic"}) {
    cases.emplace_back(small_analyze("nat"), strf("NIC '%s'", nic));
    cases.back().first.nic = nic;
  }
  for (auto& [request, names] : cases) {
    request.kind = RequestKind::kValidate;
    const Response response = service.handle(request);
    ASSERT_FALSE(response.ok) << names;
    EXPECT_EQ(response.error_code, ErrorCode::kParse) << response.error;
    EXPECT_NE(response.error.find(names), std::string::npos) << response.error;
  }
}

TEST(ServeServiceTest, RepairAppliesUnitFaultsPerRequest) {
  CacheGuard cache;
  Service service(ServiceOptions{0});

  const Response healthy = service.handle(small_analyze("nat"));
  ASSERT_TRUE(healthy.ok) << healthy.error;

  Request repair = small_analyze("nat");
  repair.kind = RequestKind::kRepair;
  repair.fault_plan = "fail-unit csum\n";
  const Response repaired = service.handle(repair);
  ASSERT_TRUE(repaired.ok) << repaired.error;
  EXPECT_TRUE(repaired.repaired);
  EXPECT_GE(repaired.repair_displaced, 1u);
  EXPECT_GE(repaired.repair_pinned, 1u);
  EXPECT_FALSE(healthy.repaired);

  // Armed injection sites are process-global; a serve request naming
  // one is rejected rather than silently affecting other clients.
  Request sites = repair;
  sites.fault_plan = "site nicsim/drop p=0.5\n";
  const Response rejected = service.handle(sites);
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, ErrorCode::kParse);
}

// A repair reuses the faulted analyzer the last repair built when its NIC
// and unit faults match (the plan's seed aside); one with other unit
// faults builds its own, which replaces the one kept. Every repair
// answers the same bytes whether its analyzer was kept or built.
TEST(ServeServiceTest, RepairReusesTheLastFaultedAnalyzer) {
  CacheGuard cache;
  Service service(ServiceOptions{0});
  auto& hits = obs::metrics().counter("serve/faulted_analyzers", "result=hit");
  auto& misses = obs::metrics().counter("serve/faulted_analyzers", "result=miss");

  const Request repair = every_kind()[2];
  const Response first = service.handle(repair);
  ASSERT_TRUE(first.ok) << first.error;
  Request reseeded = repair;
  reseeded.fault_plan = "seed 9\n" + repair.fault_plan;
  std::uint64_t hits0 = hits.value();
  std::uint64_t misses0 = misses.value();
  EXPECT_EQ(service.handle(repair).to_json(), first.to_json());
  EXPECT_EQ(service.handle(reseeded).to_json(), first.to_json());
  EXPECT_EQ(misses.value() - misses0, 0u) << "a repeated repair built another analyzer";
  EXPECT_EQ(hits.value() - hits0, 2u);

  Request derated = repair;
  derated.fault_plan = repair.fault_plan + "derate-unit npu0 50\n";
  const Response other = service.handle(derated);
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_NE(other.to_json(), first.to_json()) << "the derated unit changed nothing";
  hits0 = hits.value();
  misses0 = misses.value();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(service.handle(repair).to_json(), first.to_json()) << round;
    EXPECT_EQ(service.handle(derated).to_json(), other.to_json()) << round;
  }
  EXPECT_EQ(misses.value() - misses0, 6u) << "the memo kept more than the last analyzer";
  EXPECT_EQ(hits.value() - hits0, 0u);
}

TEST(ServeServiceTest, SweepValidatesGridAndReturnsPoints) {
  CacheGuard cache;
  Service service(ServiceOptions{0});

  Request empty = small_analyze("nat");
  empty.kind = RequestKind::kSweep;
  Response response = service.handle(empty);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, ErrorCode::kParse);

  Request sweep = small_analyze("nat");
  sweep.kind = RequestKind::kSweep;
  sweep.sweep_pps = {40'000.0, 80'000.0};
  response = service.handle(sweep);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.sweep.size(), 2u);
  EXPECT_EQ(response.sweep[0].pps, 40'000.0);
  EXPECT_TRUE(response.sweep[0].ok) << response.sweep[0].error;
}

TEST(ServeServiceTest, HelloKindIsNotServable) {
  Service service(ServiceOptions{0});
  Request hello = small_analyze();
  hello.kind = RequestKind::kHello;
  const Response response = service.handle(hello);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, ErrorCode::kParse);
}

TEST(ServeServiceTest, InflightGateBoundsAndReleases) {
  InflightGate gate(2);
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_FALSE(gate.try_acquire());
  gate.release();
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_EQ(gate.inflight(), 2u);
  gate.release();
  gate.release();
  EXPECT_EQ(gate.inflight(), 0u);

  InflightGate unlimited(0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_acquire());
}

// --- daemon ------------------------------------------------------------------

TEST(ServeDaemonTest, ConcurrentClientsGetByteIdenticalResponsesAtEveryJobsLevel) {
  CacheGuard cache;
  std::string reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    DaemonOptions options;
    options.socket_path = temp_socket("determinism");
    Daemon daemon(options);
    ASSERT_TRUE(daemon.start().ok());

    constexpr std::size_t kClients = 4;
    std::vector<std::string> lines(kClients);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        auto client = Client::connect(options.socket_path);
        if (!client) return;  // leaves lines[c] empty -> fails below
        Request request = small_analyze();
        request.id = "same-id";  // identical requests, identical bytes
        auto response = client.value().call(request);
        if (response.ok()) lines[c] = response.value().to_json();
      });
    }
    for (auto& worker : workers) worker.join();
    daemon.stop();

    for (std::size_t c = 0; c < kClients; ++c) {
      ASSERT_FALSE(lines[c].empty()) << "jobs=" << jobs_level << " client=" << c;
      EXPECT_EQ(lines[c], lines[0]) << "jobs=" << jobs_level << " client=" << c;
    }
    if (reference.empty()) {
      reference = lines[0];
    } else {
      EXPECT_EQ(lines[0], reference) << "jobs=" << jobs_level;
    }
  }
}

TEST(ServeDaemonTest, DeadlineExceededIsDegradedNotConnectionError) {
  DaemonOptions options;
  options.socket_path = temp_socket("deadline");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  Request request = small_analyze("nat");
  request.id = "deadline-1";
  request.options.use_cache = false;
  request.options.map.time_budget_ms = 1e-6;
  auto response = client.value().call(request);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(response.value().ok) << response.value().error;
  EXPECT_TRUE(response.value().degraded);

  // The connection survives and serves the next request.
  Request next = small_analyze();
  next.id = "after-deadline";
  auto second = client.value().call(next);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_TRUE(second.value().ok);
  daemon.stop();
}

TEST(ServeDaemonTest, HostileSpecValuesAndTraceHeadersGetOneParseErrorEach) {
  CacheGuard cache;
  // A 16-byte trace whose header declares 2^60 packets.
  const std::string huge = strf("/tmp/clara-serve-test-huge-%d.cltr", static_cast<int>(::getpid()));
  {
    std::ofstream out(huge, std::ios::binary);
    const unsigned char header[16] = {'C', 'L', 'T', 'R', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  DaemonOptions options;
  options.socket_path = temp_socket("hostile");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;

  const struct {
    const char* workload;
    std::string trace_file;
    std::string names;
  } hostile[] = {
      {"flows=4294967296", "", "flows=4294967296"},
      {"packets=1000000000000000", "", "packets=1000000000000000"},
      {"", huge, huge},
  };
  for (const auto& h : hostile) {
    Request request = small_analyze();
    request.id = h.names;
    request.workload = h.workload;
    request.trace_file = h.trace_file;
    auto response = client.value().call(request);
    ASSERT_TRUE(response.ok()) << h.names << ": " << response.error().message;
    EXPECT_FALSE(response.value().ok) << h.names;
    EXPECT_EQ(response.value().error_code, ErrorCode::kParse) << h.names;
    EXPECT_NE(response.value().error.find(h.names), std::string::npos) << response.value().error;
  }
  ::unlink(huge.c_str());

  Request next = small_analyze();
  next.id = "after-hostile";
  auto answered = client.value().call(next);
  ASSERT_TRUE(answered.ok()) << answered.error().message;
  EXPECT_TRUE(answered.value().ok) << answered.value().error;
  daemon.stop();
}

TEST(ServeDaemonTest, PipelinedRequestsAnswerByCorrelationId) {
  CacheGuard cache;
  DaemonOptions options;
  options.socket_path = temp_socket("pipeline");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  constexpr std::size_t kPipelined = 8;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    Request request = small_analyze(i % 2 == 0 ? "lpm" : "rewrite");
    request.id = strf("p-%zu", i);
    ASSERT_TRUE(client.value().send(request).ok());
  }
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    auto response = client.value().read_response();
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(response.value().ok) << response.value().error;
    seen.insert(response.value().id);
  }
  EXPECT_EQ(seen.size(), kPipelined) << "every pipelined id answered exactly once";
  daemon.stop();
}

// --- dispatch: the reader or the pool ---------------------------------------

struct DispatchCounts {
  std::uint64_t reader = 0;
  std::uint64_t pool = 0;
  std::uint64_t queued = 0;  // serve/queue_us samples
};

DispatchCounts dispatch_counts() {
  auto& registry = obs::metrics();
  return {registry.counter("serve/dispatch", "path=reader").value(),
          registry.counter("serve/dispatch", "path=pool").value(),
          registry.histogram("serve/queue_us").count()};
}

/// A FIFO that holds a request inside Service::handle: a request naming
/// it as its trace file blocks opening it until a writer comes, then
/// reading it until the writer goes. entered() waits for a request to be
/// blocked there (a non-blocking open for writing succeeds only once the
/// FIFO has a reader); release() lets it finish, answered kParse
/// (truncated header).
class HandleGate {
 public:
  explicit HandleGate(const char* tag)
      : path_(strf("/tmp/clara-serve-test-%s-%d.fifo", tag, static_cast<int>(::getpid()))) {
    ::unlink(path_.c_str());
    ok_ = ::mkfifo(path_.c_str(), 0600) == 0;
  }
  ~HandleGate() {
    // A request still blocked on the gate would hold up the daemon's
    // stop(): one opened for reading, or opening, before the unlink sees
    // this writer come and go; one after it finds no file.
    const int any = ::open(path_.c_str(), O_RDWR | O_NONBLOCK);
    ::unlink(path_.c_str());
    release();
    if (any >= 0) ::close(any);
  }
  HandleGate(const HandleGate&) = delete;
  HandleGate& operator=(const HandleGate&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] Request request(const char* id) const {
    Request request = small_analyze();
    request.id = id;
    request.workload.clear();
    request.trace_file = path_;
    return request;
  }

  bool entered() {
    for (int i = 0; i < 2500 && writer_ < 0; ++i) {
      writer_ = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (writer_ < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return writer_ >= 0;
  }

  void release() {
    if (writer_ >= 0) ::close(writer_);
    writer_ = -1;
  }

 private:
  std::string path_;
  bool ok_ = false;
  int writer_ = -1;
};

// A lone client's requests find the daemon idle and the reader answers
// them; a burst in one write leaves bytes behind every line but the last,
// so those go to the pool and record their wait for a worker.
TEST(ServeDaemonTest, LoneRequestsAnswerOnTheReaderAndABurstOnThePool) {
  CacheGuard cache;
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("dispatch");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  const DispatchCounts before = dispatch_counts();
  for (std::size_t i = 0; i < 20; ++i) {
    Request request = small_analyze(i % 2 == 0 ? "lpm" : "rewrite");
    request.id = strf("lone-%zu", i);
    auto response = client.value().call(request);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(response.value().ok) << response.value().error;
  }
  const DispatchCounts lone = dispatch_counts();
  EXPECT_EQ(lone.reader - before.reader, 20u);
  EXPECT_EQ(lone.pool - before.pool, 0u);
  EXPECT_EQ(lone.queued - before.queued, 0u);

  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";
  std::string burst;
  for (std::size_t i = 0; i < 8; ++i) {
    Request request = small_analyze(i % 2 == 0 ? "lpm" : "rewrite");
    request.id = strf("burst-%zu", i);
    burst += request.to_line();
  }
  ASSERT_TRUE(raw.send_bytes(burst));
  std::set<std::string> ids;
  for (std::size_t i = 0; i < 8; ++i) {
    auto response = Response::from_json(raw.read_line());
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(response.value().ok) << response.value().error;
    ids.insert(response.value().id);
  }
  EXPECT_EQ(ids.size(), 8u);
  const DispatchCounts burst_counts = dispatch_counts();
  EXPECT_GE(burst_counts.pool - lone.pool, 7u);
  EXPECT_GE(burst_counts.queued - lone.queued, 7u);
  EXPECT_EQ(burst_counts.reader + burst_counts.pool - lone.reader - lone.pool, 8u);
  daemon.stop();
}

// Every kind, sent alone (answered on the reader) and twice in one write
// (the first copy, with bytes behind it, answered on the pool), answers
// the same bytes either way at every jobs level. jobs=1 has no pool
// workers, so its reader answers all three.
TEST(ServeDaemonTest, EveryKindAnswersAlikeOnTheReaderAndOnThePool) {
  CacheGuard cache;
  const auto requests = every_kind();
  std::vector<std::string> reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    DaemonOptions options;
    options.socket_path = temp_socket("paths");
    Daemon daemon(options);
    ASSERT_TRUE(daemon.start().ok());
    RawClient raw(options.socket_path);
    ASSERT_TRUE(raw.ok());
    ASSERT_FALSE(raw.read_line().empty()) << "no hello";
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string tag = strf("jobs=%zu %s", jobs_level, to_string(requests[i].kind));
      const DispatchCounts before = dispatch_counts();
      ASSERT_TRUE(raw.send_bytes(requests[i].to_line()));
      const std::string alone = raw.read_line();
      const DispatchCounts mid = dispatch_counts();
      ASSERT_TRUE(raw.send_bytes(requests[i].to_line() + requests[i].to_line()));
      const std::string first = raw.read_line();
      const std::string second = raw.read_line();
      const DispatchCounts after = dispatch_counts();

      EXPECT_EQ(mid.reader - before.reader, 1u) << tag;
      if (jobs_level == 1) {
        EXPECT_EQ(after.reader - mid.reader, 2u) << tag;
      } else {
        EXPECT_GE(after.pool - mid.pool, 1u) << tag;
      }
      auto parsed = Response::from_json(alone);
      ASSERT_TRUE(parsed.ok()) << tag << ": " << alone;
      EXPECT_TRUE(parsed.value().ok) << tag << ": " << parsed.value().error;
      EXPECT_EQ(first, alone) << tag;
      EXPECT_EQ(second, alone) << tag;
      if (reference.size() == i) reference.push_back(alone);
      EXPECT_EQ(alone, reference[i]) << tag;
    }
    daemon.stop();
  }
}

// A reader answering a request reads nothing meanwhile, so a request with
// a partial line behind it goes to the pool: the reader stays free to cut
// the stalled line off at its deadline while the request is still
// running.
TEST(ServeDaemonTest, RequestWithAPartialLineBehindItGoesToThePool) {
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("behind");
  options.read_deadline_ms = 150.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  HandleGate gate("behind");
  ASSERT_TRUE(gate.ok());
  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";

  const DispatchCounts before = dispatch_counts();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(raw.send_bytes(gate.request("gated").to_line() +
                             R"({"proto":"clara-serve/1","id":"stalled")"));
  ASSERT_TRUE(gate.entered());
  const std::string cut = raw.read_line();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(cut.empty()) << "the stalled line was not cut off while the request ran";
  auto timeout = Response::from_json(cut);
  ASSERT_TRUE(timeout.ok()) << cut;
  EXPECT_EQ(timeout.value().id, "stalled");
  EXPECT_EQ(timeout.value().error_code, ErrorCode::kParse);
  EXPECT_NE(timeout.value().error.find("read deadline"), std::string::npos) << timeout.value().error;
  EXPECT_LT(elapsed_ms, 1500.0) << "the read deadline fired late";

  gate.release();
  auto answered = Response::from_json(raw.read_line());
  ASSERT_TRUE(answered.ok()) << answered.error().message;
  EXPECT_EQ(answered.value().id, "gated");
  EXPECT_EQ(answered.value().error_code, ErrorCode::kParse) << answered.value().error;
  EXPECT_TRUE(raw.at_eof());
  const DispatchCounts after = dispatch_counts();
  EXPECT_EQ(after.pool - before.pool, 1u);
  EXPECT_EQ(after.reader - before.reader, 0u);
  daemon.stop();
}

// The reader reads at most 4,096 bytes at a time, so a first line of
// exactly that many leaves it holding a whole line while the line sent
// behind it, in the same write, still waits in the socket. The first
// goes to the pool all the same, and the one behind it overtakes it.
TEST(ServeDaemonTest, RequestWithBytesStillInTheSocketGoesToThePool) {
  CacheGuard cache;
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("queued");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  HandleGate gate("queued");
  ASSERT_TRUE(gate.ok());
  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";

  Request gated = gate.request("gated-");
  gated.id += std::string(4096 - gated.to_line().size(), 'x');
  const std::string first = gated.to_line();
  ASSERT_EQ(first.size(), 4096u);
  Request quick = small_analyze();
  quick.id = "quick";
  const DispatchCounts before = dispatch_counts();
  ASSERT_TRUE(raw.send_bytes(first + quick.to_line()));
  ASSERT_TRUE(gate.entered());
  auto overtook = Response::from_json(raw.read_line());
  ASSERT_TRUE(overtook.ok()) << "the request behind the first did not overtake it";
  EXPECT_EQ(overtook.value().id, "quick");
  EXPECT_TRUE(overtook.value().ok) << overtook.value().error;

  gate.release();
  auto answered = Response::from_json(raw.read_line());
  ASSERT_TRUE(answered.ok()) << answered.error().message;
  EXPECT_EQ(answered.value().id, gated.id);
  EXPECT_EQ(answered.value().error_code, ErrorCode::kParse) << answered.value().error;
  const DispatchCounts after = dispatch_counts();
  EXPECT_EQ(after.pool - before.pool, 2u);
  EXPECT_EQ(after.reader - before.reader, 0u);
  daemon.stop();
}

// A reader answering a request reads nothing meanwhile: on an idle daemon,
// a request sent after the reader took up the one before it waits for
// that answer, then finds the daemon idle and is answered on the reader
// too.
TEST(ServeDaemonTest, RequestSentDuringAReaderAnswerWaitsForIt) {
  CacheGuard cache;
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("after");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  HandleGate gate("after");
  ASSERT_TRUE(gate.ok());
  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";

  const DispatchCounts before = dispatch_counts();
  ASSERT_TRUE(raw.send_bytes(gate.request("gated").to_line()));
  ASSERT_TRUE(gate.entered());
  EXPECT_EQ(dispatch_counts().reader - before.reader, 1u);
  Request quick = small_analyze();
  quick.id = "quick";
  ASSERT_TRUE(raw.send_bytes(quick.to_line()));
  EXPECT_FALSE(raw.bytes_within(200)) << "a request overtook the one its reader was answering";

  gate.release();
  auto answered = Response::from_json(raw.read_line());
  ASSERT_TRUE(answered.ok()) << answered.error().message;
  EXPECT_EQ(answered.value().id, "gated");
  EXPECT_EQ(answered.value().error_code, ErrorCode::kParse) << answered.value().error;
  auto second = Response::from_json(raw.read_line());
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second.value().id, "quick");
  EXPECT_TRUE(second.value().ok) << second.value().error;
  const DispatchCounts after = dispatch_counts();
  EXPECT_EQ(after.reader - before.reader, 2u);
  EXPECT_EQ(after.pool - before.pool, 0u);
  daemon.stop();
}

// begin_drain() or stop() while a reader answers a request: the request
// still gets its own answer, not a draining reject, and stop() returns
// once it is written, well within the drain deadline.
TEST(ServeDaemonTest, DrainOrStopDuringAReaderAnswerStillAnswersIt) {
  JobsGuard jobs(4);
  for (const bool drain : {true, false}) {
    const std::string tag = drain ? "begin_drain" : "stop";
    DaemonOptions options;
    options.socket_path = temp_socket("inline-stop");
    options.drain_deadline_ms = 1000.0;
    Daemon daemon(options);
    ASSERT_TRUE(daemon.start().ok());
    HandleGate gate("inline-stop");
    ASSERT_TRUE(gate.ok());
    auto client = Client::connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.error().message;

    const DispatchCounts before = dispatch_counts();
    ASSERT_TRUE(client.value().send(gate.request("inline")).ok());
    ASSERT_TRUE(gate.entered()) << tag;
    EXPECT_EQ(dispatch_counts().reader - before.reader, 1u) << tag << ": an idle daemon's reader answers";

    double stop_ms = -1.0;
    std::thread stopper;
    if (drain) {
      daemon.begin_drain();
    } else {
      stopper = std::thread([&daemon, &stop_ms] {
        const auto t0 = std::chrono::steady_clock::now();
        daemon.stop();
        stop_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
    auto response = client.value().read_response();
    ASSERT_TRUE(response.ok()) << tag << ": " << response.error().message;
    EXPECT_EQ(response.value().id, "inline") << tag;
    EXPECT_EQ(response.value().error_code, ErrorCode::kParse)
        << tag << ": the request's own answer, not a draining reject: " << response.value().error;
    if (drain) {
      Request late = small_analyze();
      late.id = "late";
      auto rejected = client.value().call(late);
      ASSERT_TRUE(rejected.ok()) << rejected.error().message;
      EXPECT_EQ(rejected.value().error_code, ErrorCode::kOverloaded);
      client.value().close();
      const auto t0 = std::chrono::steady_clock::now();
      daemon.stop();
      stop_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    } else {
      stopper.join();
    }
    EXPECT_GE(stop_ms, 0.0) << tag;
    EXPECT_LT(stop_ms, options.drain_deadline_ms) << tag;
  }
}

// The admission gate inside Service::handle, set to --jobs, is a probe
// of how many requests execute at once: a 16-client flood, more clients
// than lanes, must never trip it. Warm analyses only, which run no
// nested parallel loop.
TEST(ServeDaemonTest, AtMostJobsRequestsExecuteAtOnceUnderAFlood) {
  CacheGuard cache;
  const char* nfs[] = {"lpm", "nat", "rewrite", "meter"};
  for (const std::size_t jobs_level : {2u, 4u}) {
    JobsGuard jobs(jobs_level);
    DaemonOptions options;
    options.socket_path = temp_socket("flood");
    options.max_inflight = jobs_level;
    Daemon daemon(options);
    ASSERT_TRUE(daemon.start().ok());
    {
      auto warm = Client::connect(options.socket_path);
      ASSERT_TRUE(warm.ok()) << warm.error().message;
      for (const char* nf : nfs) ASSERT_TRUE(warm.value().call(small_analyze(nf)).ok());
    }

    constexpr std::size_t kClients = 16;
    constexpr std::size_t kPerClient = 24;
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::size_t> overloaded{0};
    std::atomic<std::size_t> other{0};
    const DispatchCounts before = dispatch_counts();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = Client::connect(options.socket_path);
        if (!client) {
          other.fetch_add(kPerClient);
          return;
        }
        for (std::size_t i = 0; i < kPerClient; ++i) {
          Request request = small_analyze(nfs[(c + i) % 4]);
          request.id = strf("flood-%zu-%zu", c, i);
          auto response = client.value().call(request);
          if (response.ok() && response.value().ok) {
            ok_count.fetch_add(1);
          } else if (response.ok() && response.value().error_code == ErrorCode::kOverloaded) {
            overloaded.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    daemon.stop();
    const DispatchCounts after = dispatch_counts();
    EXPECT_EQ(overloaded.load(), 0u) << "jobs=" << jobs_level << ": more than jobs requests ran at once";
    EXPECT_EQ(other.load(), 0u) << "jobs=" << jobs_level;
    EXPECT_EQ(ok_count.load(), kClients * kPerClient) << "jobs=" << jobs_level;
    EXPECT_GT(after.pool - before.pool, 0u) << "jobs=" << jobs_level;
  }
}

// A reader that answers records into a flight-recorder ring and leases a
// simulator for a validate; both go back for reuse when the request or
// the thread ends, so a daemon serving one-shot clients holds as many as
// threads were alive at once, not one per connection.
TEST(ServeDaemonTest, OneShotConnectionsLeaveNoRingOrSimulatorBehind) {
  CacheGuard cache;
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("oneshot");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  Request validate = every_kind()[3];
  {
    auto client = Client::connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.error().message;
    ASSERT_TRUE(client.value().call(validate).ok());
  }
  const std::size_t rings_before = obs::recorder().ring_count();
  const std::size_t sims_before = nicsim::leased_sims_built();
  const DispatchCounts before = dispatch_counts();
  for (std::size_t i = 0; i < 200; ++i) {
    auto client = Client::connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.error().message;
    validate.id = strf("oneshot-%zu", i);
    auto response = client.value().call(validate);
    ASSERT_TRUE(response.ok()) << response.error().message;
    ASSERT_TRUE(response.value().ok) << response.value().error;
  }
  EXPECT_EQ(dispatch_counts().reader - before.reader, 200u);
  // This thread, the accept thread, three pool workers and the few
  // readers whose connections are still winding down.
  EXPECT_LE(obs::recorder().ring_count() - rings_before, 8u);
  EXPECT_EQ(nicsim::leased_sims_built() - sims_before, 0u)
      << "each validate leased the simulator the one before returned";
  daemon.stop();
}

TEST(ServeDaemonTest, OverloadRejectsWithTypedResponsesNotDrops) {
  CacheGuard cache;
  JobsGuard jobs(4);
  DaemonOptions options;
  options.socket_path = temp_socket("overload");
  options.max_inflight = 1;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  // Warm the cache so the flood turns around quickly.
  {
    auto warm = Client::connect(options.socket_path);
    ASSERT_TRUE(warm.ok());
    Request request = small_analyze();
    request.id = "warm";
    ASSERT_TRUE(warm.value().call(request).ok());
  }

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 12;
  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::size_t> overloaded{0};
  std::atomic<std::size_t> dropped{0};
  std::atomic<std::size_t> other_errors{0};
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto client = Client::connect(options.socket_path);
      if (!client) {
        dropped.fetch_add(1);
        return;
      }
      for (std::size_t i = 0; i < kPerClient; ++i) {
        Request request = small_analyze();
        request.id = strf("flood-%zu-%zu", c, i);
        auto response = client.value().call(request);
        if (!response.ok()) {
          dropped.fetch_add(1);
          return;
        }
        if (response.value().ok) {
          ok_count.fetch_add(1);
        } else if (response.value().error_code == ErrorCode::kOverloaded) {
          overloaded.fetch_add(1);
        } else {
          other_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  daemon.stop();

  EXPECT_EQ(dropped.load(), 0u);
  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_EQ(ok_count.load() + overloaded.load(), kClients * kPerClient);
}

TEST(ServeDaemonTest, LoadgenSustainsMixedLoadWithZeroDrops) {
  CacheGuard cache;
  JobsGuard jobs(4);
  LoadGenOptions options;
  options.requests = 64;  // the full 1000+ bar runs in `clara bench serve`
  options.connections = 8;
  auto report = run_loadgen(options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().dropped_connections, 0u);
  EXPECT_EQ(report.value().failed, 0u);
  EXPECT_EQ(report.value().ok, 64u);
  EXPECT_TRUE(report.value().in_process);
  // A warm daemon answers the repeated analyze/sweep mix from the
  // shared cache; only repair (degraded-profile solve per request) and
  // validate legitimately re-solve, so ILP work stays far below one
  // solve per request. The strict no-solve-on-repeat property for
  // analyze is asserted in WarmCacheAnswersWithoutIlpSolves.
  EXPECT_LT(report.value().warm_ilp_solves, 64u / 4);
  EXPECT_GT(report.value().warm_hit_rate, 0.5);
  EXPECT_GT(report.value().p99_us, 0.0);
  EXPECT_GE(report.value().p99_us, report.value().p50_us);
}

// --- wire fuzz ---------------------------------------------------------------

TEST(ServeWireTest, RetryAfterMsRoundTrips) {
  Response rejected = core::error_response(small_analyze(), ErrorCode::kOverloaded, "busy");
  rejected.retry_after_ms = 12.5;
  const std::string line = rejected.to_json();
  auto parsed = Response::from_json(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().retry_after_ms, 12.5);
  EXPECT_EQ(parsed.value().error_code, ErrorCode::kOverloaded);
  EXPECT_EQ(parsed.value().to_json(), line);
}

// Seeded corpus fuzz over the wire parser: byte mutations of real
// request and response lines must produce typed kParse errors or valid
// parses — never a crash, hang, or abort. Deterministic: the mutation
// stream derives from fixed seeds, so a failure reproduces.
TEST(ServeWireFuzzTest, MutatedWireCorpusNeverCrashes) {
  const auto corpus = wire_corpus::corpus();
  std::size_t parsed_ok = 0, rejected = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::uint64_t round = 0; round < wire_corpus::kRounds; ++round) {
      const std::string mutated = wire_corpus::mutate(corpus[c].text, c, round);
      const auto tally = [&](const auto& parsed) {
        if (parsed.ok()) return void(++parsed_ok);
        ++rejected;
        EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
        EXPECT_FALSE(parsed.error().message.empty());
      };
      if (corpus[c].is_response) {
        tally(Response::from_json(mutated));
      } else {
        tally(Request::from_json(mutated));
      }
    }
  }
  // The corpus is strict JSON, so most mutations must be caught.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(parsed_ok + rejected, corpus.size() * wire_corpus::kRounds);
}

TEST(ServeWireFuzzTest, TruncatedLinesRejectedAtEveryPrefix) {
  Request r = small_analyze();
  r.id = "truncate-me";
  const std::string line = r.to_json();
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    auto parsed = Request::from_json(line.substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << cut << " bytes parsed as a full request";
    EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
  }
}

TEST(ServeWireFuzzTest, FieldReorderingIsAcceptedAndCanonicalized) {
  // Same key/value set, scrambled order: the parser is order-independent
  // and re-serialization is canonical, so both spellings land on
  // identical bytes.
  const std::string in_order = strf(
      R"({"proto":"clara-serve/1","id":"reorder","kind":"analyze","nf":"lpm","workload":"%s"})",
      kSmallWorkload);
  const std::string scrambled = strf(
      R"({"workload":"%s","kind":"analyze","nf":"lpm","id":"reorder","proto":"clara-serve/1"})",
      kSmallWorkload);
  auto a = Request::from_json(in_order);
  auto b = Request::from_json(scrambled);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(a.value().to_json(), b.value().to_json());
}

TEST(ServeWireFuzzTest, DepthBombRejectedWithTypedError) {
  std::string bomb = R"({"proto":"clara-serve/1","id":"bomb","kind":"sweep","sweep_pps":)";
  bomb += std::string(256, '[');
  bomb += "1";
  bomb += std::string(256, ']');
  bomb += "}";
  auto parsed = Request::from_json(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
}

TEST(ServeWireFuzzTest, OversizedLineRejectedBeforeParsing) {
  const std::string huge(core::kMaxWireBytes + 1, ' ');
  auto request = Request::from_json(huge);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.error().code, ErrorCode::kParse);
  auto response = Response::from_json(huge);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ErrorCode::kParse);
}

// --- client retry ------------------------------------------------------------

TEST(ServeClientTest, RetryBackoffIsDeterministicAndBounded) {
  const RetryOptions options;  // base 1 ms, cap 200 ms, seed 42
  // Pure function: same inputs, same backoff.
  EXPECT_EQ(retry_backoff_ms(options, "req-1", 1, 0.0), retry_backoff_ms(options, "req-1", 1, 0.0));
  // Exponential with jitter in [0.5, 1.0) of the base: attempt 1 -> base
  // 1 ms, attempt 5 -> base 16 ms, attempt 20 -> capped at 200 ms.
  const double first = retry_backoff_ms(options, "req-1", 1, 0.0);
  EXPECT_GE(first, 0.5);
  EXPECT_LT(first, 1.0);
  const double fifth = retry_backoff_ms(options, "req-1", 5, 0.0);
  EXPECT_GE(fifth, 8.0);
  EXPECT_LT(fifth, 16.0);
  const double capped = retry_backoff_ms(options, "req-1", 20, 0.0);
  EXPECT_GE(capped, 100.0);
  EXPECT_LT(capped, 200.0);
  // The server's retry_after_ms hint replaces the exponential base.
  const double hinted = retry_backoff_ms(options, "req-1", 1, 40.0);
  EXPECT_GE(hinted, 20.0);
  EXPECT_LT(hinted, 40.0);
  // Different ids draw different jitter (with overwhelming probability).
  EXPECT_NE(retry_backoff_ms(options, "req-1", 1, 0.0), retry_backoff_ms(options, "req-2", 1, 0.0));
}

TEST(ServeClientTest, CallWithRetryReconnectsAcrossDaemonRestart) {
  CacheGuard cache;
  const std::string path = temp_socket("restart");
  DaemonOptions options;
  options.socket_path = path;

  auto first_daemon = std::make_unique<Daemon>(options);
  ASSERT_TRUE(first_daemon->start().ok());
  auto client = Client::connect(path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  Request request = small_analyze();
  request.id = "before-restart";
  ASSERT_TRUE(client.value().call(request).ok());

  first_daemon->stop();
  first_daemon.reset();
  Daemon second_daemon(options);
  ASSERT_TRUE(second_daemon.start().ok());

  // The client still holds the dead socket; call_with_retry notices the
  // transport error and reconnects to the restarted daemon.
  Request after = small_analyze();
  after.id = "after-restart";
  RetryStats stats;
  auto response = client.value().call_with_retry(after, {}, &stats);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(response.value().ok) << response.value().error;
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.retries, 1u);
  second_daemon.stop();
}

// --- daemon hardening --------------------------------------------------------

// Regression (the seed's accept loop exited on any non-EINTR errno): a
// transient EMFILE injected into accept() must back off and retry, not
// kill the listener. serve/accept_fail fires on every other accept
// attempt; all six clients still get served.
TEST(ServeDaemonTest, AcceptLoopSurvivesInjectedEmfile) {
  CacheGuard cache;
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::SiteSpec spec;
  spec.site = "serve/accept_fail";
  spec.every = 2;
  plan.add_site(spec);
  fault::ScopedPlan scoped(plan);

  DaemonOptions options;
  options.socket_path = temp_socket("acceptfail");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  for (std::size_t i = 0; i < 6; ++i) {
    auto client = Client::connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << "connection " << i << ": " << client.error().message;
    Request request = small_analyze();
    request.id = strf("emfile-%zu", i);
    auto response = client.value().call(request);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(response.value().ok) << response.value().error;
  }
  EXPECT_GT(daemon.accept_retries(), 0u);
  daemon.stop();
  EXPECT_EQ(daemon.connections_accepted(), 6u);
}

// Regression (the seed kept one std::thread per connection ever served):
// finished connection slots are reaped by the accept loop, so tracked
// slots stay near the open count instead of growing with churn.
TEST(ServeDaemonTest, FinishedConnectionSlotsAreReaped) {
  CacheGuard cache;
  DaemonOptions options;
  options.socket_path = temp_socket("reap");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  constexpr std::size_t kChurn = 16;
  for (std::size_t i = 0; i < kChurn; ++i) {
    auto client = Client::connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.error().message;
    Request request = small_analyze();
    request.id = strf("churn-%zu", i);
    ASSERT_TRUE(client.value().call(request).ok());
  }  // each destructor closes; the conn thread finishes on EOF

  for (int spin = 0; spin < 500 && daemon.open_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(daemon.open_connections(), 0u);
  // One more accept drives the reap of everything already finished.
  auto last = Client::connect(options.socket_path);
  ASSERT_TRUE(last.ok()) << last.error().message;
  std::size_t tracked = daemon.tracked_connections();
  for (int spin = 0; spin < 500 && tracked > 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tracked = daemon.tracked_connections();
  }
  EXPECT_LE(tracked, 3u) << "finished connection threads must be reaped, not accumulated";
  EXPECT_EQ(daemon.connections_accepted(), kChurn + 1);
  daemon.stop();
}

TEST(ServeDaemonTest, ConnectionLimitRejectsWithTypedOverloadedHello) {
  DaemonOptions options;
  options.socket_path = temp_socket("connlimit");
  options.max_connections = 1;
  options.retry_after_ms = 7.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto first = Client::connect(options.socket_path);
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto second = Client::connect(options.socket_path);
  ASSERT_FALSE(second.ok()) << "second connection must be rejected at max_connections=1";
  EXPECT_EQ(second.error().code, ErrorCode::kOverloaded);
  EXPECT_NE(second.error().message.find("retry_after_ms=7"), std::string::npos)
      << second.error().message;

  // Releasing the slot re-admits (the conn thread must notice the close
  // first, so retry briefly).
  first.value().close();
  bool admitted = false;
  for (int attempt = 0; attempt < 400 && !admitted; ++attempt) {
    auto retry = Client::connect(options.socket_path);
    if (retry.ok()) admitted = true;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(admitted);
  daemon.stop();
}

TEST(ServeDaemonTest, OversizedLineGetsTypedParseCloseNotHang) {
  DaemonOptions options;
  options.socket_path = temp_socket("bigline");
  options.max_line_bytes = 4096;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  Request request = small_analyze();
  request.id = "big";
  request.workload = std::string(8192, 'x');
  ASSERT_TRUE(client.value().send(request).ok());
  auto response = client.value().read_response();
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error_code, ErrorCode::kParse);
  EXPECT_EQ(response.value().id, "big") << "id salvaged from the rejected line";
  auto next = client.value().read_response();
  EXPECT_FALSE(next.ok()) << "connection must be closed after the typed rejection";
  daemon.stop();
}

TEST(ServeDaemonTest, NewlinelessFloodCutOffAtBufferCap) {
  DaemonOptions options;
  options.socket_path = temp_socket("flood");
  options.max_line_bytes = 2048;
  options.max_buffer_bytes = 4096;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";
  // 64 KiB without a newline: the per-connection buffer cap (4 KiB) must
  // cut this off with a typed response — it never accumulates.
  const std::string flood(64 * 1024, 'a');
  (void)raw.send_bytes(flood);  // the server may close us mid-send
  const std::string line = raw.read_line();
  ASSERT_FALSE(line.empty()) << "expected a typed close response";
  auto response = Response::from_json(line);
  ASSERT_TRUE(response.ok()) << line;
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error_code, ErrorCode::kParse);
  EXPECT_TRUE(raw.at_eof());
  daemon.stop();
}

TEST(ServeDaemonTest, SlowLorisStallTimedOutWithinDeadline) {
  DaemonOptions options;
  options.socket_path = temp_socket("loris");
  options.read_deadline_ms = 150.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(raw.send_bytes(R"({"proto":"clara-serve/1","id":"loris")"));
  // ...and never finish the line. The daemon must cut us off with a
  // typed response once read_deadline_ms expires.
  const std::string line = raw.read_line();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(line.empty()) << "expected a typed timeout response";
  auto response = Response::from_json(line);
  ASSERT_TRUE(response.ok()) << line;
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error_code, ErrorCode::kParse);
  EXPECT_EQ(response.value().id, "loris") << "id salvaged from the stalled partial line";
  EXPECT_LT(elapsed_ms, 1500.0) << "connection held far past the read deadline";
  EXPECT_TRUE(raw.at_eof());
  daemon.stop();
}

// The deadline is measured from the FIRST byte of the pending line, so
// a drip of one byte per 30 ms (each gap far below the deadline) cannot
// hold the connection open forever.
TEST(ServeDaemonTest, ByteDripCannotResetReadDeadline) {
  DaemonOptions options;
  options.socket_path = temp_socket("drip");
  options.read_deadline_ms = 120.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  RawClient raw(options.socket_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.read_line().empty()) << "no hello";
  for (int i = 0; i < 12; ++i) {  // ~360 ms of drip against a 120 ms deadline
    (void)raw.send_bytes("x");    // sends start failing once the server closes
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const std::string line = raw.read_line();
  ASSERT_FALSE(line.empty()) << "expected a typed timeout response";
  auto response = Response::from_json(line);
  ASSERT_TRUE(response.ok()) << line;
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error_code, ErrorCode::kParse);
  EXPECT_TRUE(raw.at_eof());
  daemon.stop();
}

// A failed write marks the connection dead, and pooled requests that
// start after it are abandoned (serve/aborted_requests). One write puts
// all six requests on the pool, and at jobs=2 its one worker takes them
// in order: the gated first holds it until the client has gone, so its
// answer meets a dead peer and the five behind it find the connection
// dead.
TEST(ServeDaemonTest, WriteFailureAbortsRemainingPipeline) {
  CacheGuard cache;
  JobsGuard jobs(2);
  DaemonOptions options;
  options.socket_path = temp_socket("writefail");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());
  HandleGate gate("writefail");
  ASSERT_TRUE(gate.ok());

  auto& write_errors = obs::metrics().counter("serve/write_errors");
  auto& aborted = obs::metrics().counter("serve/aborted_requests");
  const std::uint64_t write_errors0 = write_errors.value();
  const std::uint64_t aborted0 = aborted.value();
  const DispatchCounts before = dispatch_counts();
  {
    RawClient raw(options.socket_path);
    ASSERT_TRUE(raw.ok());
    ASSERT_FALSE(raw.read_line().empty()) << "no hello";
    std::string pipeline = gate.request("gone-0").to_line();
    for (std::size_t i = 1; i < 6; ++i) {
      Request request = small_analyze("nat");
      request.id = strf("gone-%zu", i);
      pipeline += request.to_line();
    }
    ASSERT_TRUE(raw.send_bytes(pipeline));
    ASSERT_TRUE(gate.entered());
  }  // close without reading a single response
  gate.release();
  for (int spin = 0; spin < 1000 && daemon.open_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  daemon.stop();
  EXPECT_EQ(dispatch_counts().pool - before.pool, 6u);
  EXPECT_EQ(write_errors.value() - write_errors0, 1u) << "the first answer met a live peer";
  EXPECT_EQ(aborted.value() - aborted0, 5u)
      << "pooled requests behind a failed write must be abandoned, not answered";
}

// Satellite: drain polish. begin_drain() stops accepting, answers new
// requests on live connections with a typed kOverloaded ("draining"),
// and stop() is bounded by drain_deadline_ms even when a client never
// goes away.
TEST(ServeDaemonTest, DrainAnswersTypedAndStopIsBounded) {
  CacheGuard cache;
  DaemonOptions options;
  options.socket_path = temp_socket("drain");
  options.drain_deadline_ms = 250.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  Request request = small_analyze();
  request.id = "pre-drain";
  ASSERT_TRUE(client.value().call(request).ok());

  daemon.begin_drain();
  EXPECT_TRUE(daemon.draining());
  auto late = Client::connect(options.socket_path);
  EXPECT_FALSE(late.ok()) << "listener must be closed while draining";

  Request during = small_analyze();
  during.id = "mid-drain";
  auto response = client.value().call(during);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error_code, ErrorCode::kOverloaded);
  EXPECT_NE(response.value().error.find("draining"), std::string::npos)
      << response.value().error;
  EXPECT_GT(response.value().retry_after_ms, 0.0);

  // The client stays connected forever; stop() must still return within
  // the drain deadline (plus scheduling slack), force-closing it.
  const auto start = std::chrono::steady_clock::now();
  daemon.stop();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed_ms, 2000.0) << "stop() hung past the drain deadline";
}

// --- chaos gate --------------------------------------------------------------

// The chaos loadgen contract, in-process: with all four serve fault
// sites armed, every request ends in exactly one well-formed response
// or one typed client error — zero silent drops — and the retry
// accounting is a pure function of the plan seed, so it reproduces
// bit-identically at jobs=1/2/8.
TEST(ServeChaosTest, ChaosContractHoldsAndRetriesAreDeterministicAcrossJobs) {
  CacheGuard cache;
  std::vector<std::uint64_t> retries;
  std::vector<std::uint64_t> reconnects;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    LoadGenOptions options;
    options.requests = 96;
    options.connections = 4;
    options.chaos = true;
    auto report = run_loadgen(options);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report.value().dropped_requests, 0u) << "jobs=" << jobs_level;
    EXPECT_EQ(report.value().ok + report.value().failed + report.value().client_errors,
              report.value().requests)
        << "jobs=" << jobs_level << ": every request needs exactly one outcome";
    EXPECT_GT(report.value().retries, 0u) << "the default chaos plan must actually bite";
    retries.push_back(report.value().retries);
    reconnects.push_back(report.value().reconnects);
  }
  EXPECT_EQ(retries[1], retries[0]) << "retry accounting differs between jobs=1 and jobs=2";
  EXPECT_EQ(retries[2], retries[0]) << "retry accounting differs between jobs=1 and jobs=8";
  EXPECT_EQ(reconnects[1], reconnects[0]);
  EXPECT_EQ(reconnects[2], reconnects[0]);
}

}  // namespace
}  // namespace clara::serve
