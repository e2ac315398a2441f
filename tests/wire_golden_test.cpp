// Golden parse outcomes of the clara-serve/1 wire codec. Every input
// line goes through the three readers of the JSON scanner —
// Request::from_json, Response::from_json and Json::parse — and each
// outcome is one line of tests/data/wire_golden.txt:
//
//   <case> <reader> ok <FNV-1a of the message written back out>
//   <case> <reader> err <code> <message>
//
// A request or response is written back with its own to_json(); a Json
// document with this file's canonical writer (map order, %.17g numbers).
// Bytes outside printable ASCII, and backslashes, appear as \xHH.
//
// Inputs: every request of serve::build_mix() and of perfbench's two
// workloads (its template lines as run.py writes them, and the request
// the harness sends), each with its warm response; the server's hello
// line; the wire fuzz corpus under its seeded mutations; every prefix
// of one request; and hand cases for duplicate and unknown keys, number
// spellings, escapes, control bytes, trailing bytes and the depth bomb.
//
// A case whose line is missing or differs fails with its actual line,
// and the test writes its whole group to <build>/tests/wire_golden/ so
// a deliberate change can be reviewed as a diff.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/request.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "wire_corpus.hpp"

#ifndef CLARA_WIRE_GOLDEN
#define CLARA_WIRE_GOLDEN "tests/data/wire_golden.txt"
#endif
#ifndef CLARA_WIRE_GOLDEN_OUT
#define CLARA_WIRE_GOLDEN_OUT "wire_golden"
#endif

namespace {

using namespace clara;
using core::Request;
using core::RequestKind;
using core::Response;

/// Golden file lines keyed by their first two fields (case, reader).
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(CLARA_WIRE_GOLDEN);
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line.front() == '#') continue;
      const auto second = line.find(' ', line.find(' ') + 1);
      out[line.substr(0, second)] = line;
    }
    return out;
  }();
  return lines;
}

/// Bytes outside printable ASCII, and backslashes, as \xHH.
std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte >= 0x7f || c == '\\') {
      out += strf("\\x%02x", byte);
    } else {
      out += c;
    }
  }
  return out;
}

/// A Json tree written back out: object members in map order, numbers
/// as %.17g, strings through printable().
std::string canonical(const Json& json) {  // NOLINT(misc-no-recursion)
  switch (json.kind()) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return json.as_bool() ? "true" : "false";
    case Json::Kind::kNumber: return strf("%.17g", json.as_double());
    case Json::Kind::kString: return '"' + printable(json.as_string()) + '"';
    case Json::Kind::kArray: {
      std::string out = "[";
      for (const Json& item : json.as_array()) out += (out.size() > 1 ? "," : "") + canonical(item);
      return out + "]";
    }
    case Json::Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, value] : json.as_object()) {
        out += (out.size() > 1 ? ",\"" : "\"") + printable(key) + "\":" + canonical(value);
      }
      return out + "}";
    }
  }
  return "?";
}

std::string hex(std::string_view text) {
  return strf("%016llx", static_cast<unsigned long long>(Fnv1a().mix(text).digest()));
}

template <class T>
std::string outcome(const Result<T>& parsed, auto write) {
  if (!parsed) {
    return strf("err %s %s", to_string(parsed.error().code), printable(parsed.error().message).c_str());
  }
  return "ok " + hex(write(parsed.value()));
}

/// One input's three outcome lines, keyed `<name> <reader>`.
void add_outcomes(std::vector<std::string>& lines, const std::string& name, std::string_view input) {
  const auto to_json = [](const auto& message) { return message.to_json(); };
  lines.push_back(name + " request " + outcome(Request::from_json(input), to_json));
  lines.push_back(name + " response " + outcome(Response::from_json(input), to_json));
  lines.push_back(name + " json " + outcome(Json::parse(input), canonical));
}

/// Checks a group's lines against the fixture; on any difference writes
/// the group's actual lines to CLARA_WIRE_GOLDEN_OUT/<group>.txt.
void check_group(const std::string& group, const std::vector<std::string>& lines) {
  bool differs = false;
  for (const std::string& actual : lines) {
    const auto key = actual.substr(0, actual.find(' ', actual.find(' ') + 1));
    const auto it = golden().find(key);
    if (it == golden().end()) {
      differs = true;
      ADD_FAILURE() << "no golden line for this case; actual:\n" << actual;
    } else if (it->second != actual) {
      differs = true;
      ADD_FAILURE() << "expected:\n" << it->second << "\nactual:\n" << actual;
    }
  }
  if (!differs) return;
  std::filesystem::create_directories(CLARA_WIRE_GOLDEN_OUT);
  const std::string path = std::string(CLARA_WIRE_GOLDEN_OUT) + "/" + group + ".txt";
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  ADD_FAILURE() << "this group's actual lines are in " << path;
}

/// `request` and the response a warm server gives it (the second of two
/// answers, so every cache stage has been filled).
std::pair<std::string, std::string> with_warm_response(serve::Service& service, const Request& request) {
  (void)service.handle(request);
  return {request.to_json(), service.handle(request).to_json()};
}

// perfbench/run.py's request mix and workload specs, and the line
// json.dumps writes for each template (key order and spacing included).
struct Template {
  const char* kind;
  const char* nf;
  const char* extra;  // json.dumps text of the extra field, or ""
};
constexpr Template kPerfbenchMix[] = {
    {"analyze", "lpm", ""},
    {"analyze", "nat", ""},
    {"analyze", "rewrite", ""},
    {"analyze", "meter", ""},
    {"sweep", "nat", R"(, "sweep_pps": [40000, 80000])"},
    {"repair", "nat", R"(, "fault_plan": "fail-unit csum\n")"},
    {"validate", "rewrite", ""},
};
constexpr std::pair<const char*, const char*> kPerfbenchSpecs[] = {
    {"loadgen_warm", "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000"},
    {"loadgen_cold", "tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000"},
};

TEST(WireGoldenTest, ServedRequestsAndTheirWarmResponses) {
  serve::Service service(serve::ServiceOptions{0});
  std::vector<std::string> lines;
  std::size_t inputs = 0;
  const auto add = [&](const std::string& name, const std::string& text) {
    add_outcomes(lines, name, text);
    ++inputs;
  };
  const auto mix = serve::build_mix();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const auto [request, response] = with_warm_response(service, mix[i]);
    add(strf("mix/%zu", i), request);
    add(strf("mix/%zu/answer", i), response);
  }
  for (const auto& [workload, spec] : kPerfbenchSpecs) {
    for (std::size_t t = 0; t < std::size(kPerfbenchMix); ++t) {
      const Template& tmpl = kPerfbenchMix[t];
      const std::string line = strf(R"({"proto": "clara-serve/1", "workload": "%s", "kind": "%s", "nf": "%s"%s})",
                                    spec, tmpl.kind, tmpl.nf, tmpl.extra);
      add(strf("%s/%zu/template", workload, t), line);
      // What the harness sends: the template with an id and a trace seed.
      auto request = Request::from_json(line);
      ASSERT_TRUE(request.ok()) << line << "\n" << request.error().message;
      request.value().id = strf("t%zu", t);
      request.value().workload += strf(" seed=%zu", 401 + t);
      const auto [sent, response] = with_warm_response(service, request.value());
      add(strf("%s/%zu", workload, t), sent);
      add(strf("%s/%zu/answer", workload, t), response);
    }
  }
  Response hello;
  hello.id = "clarad";
  hello.kind = RequestKind::kHello;
  hello.ok = true;
  add("hello", hello.to_json());
  EXPECT_EQ(inputs, 2 * 7 + 2 * 3 * 7 + 1u);
  check_group("served", lines);
}

TEST(WireGoldenTest, MutatedFuzzCorpus) {
  const auto corpus = wire_corpus::corpus();
  std::vector<std::string> lines;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    add_outcomes(lines, strf("corpus/%zu", c), corpus[c].text);
    for (std::uint64_t round = 0; round < wire_corpus::kRounds; ++round) {
      add_outcomes(lines, strf("fuzz/%zu/%llu", c, static_cast<unsigned long long>(round)),
                   wire_corpus::mutate(corpus[c].text, c, round));
    }
  }
  EXPECT_EQ(lines.size(), 3 * corpus.size() * (1 + wire_corpus::kRounds));
  check_group("fuzz", lines);
}

TEST(WireGoldenTest, EveryPrefixOfOneRequest) {
  const std::string line = wire_corpus::analyze("truncate-me").to_json();
  std::vector<std::string> lines;
  for (std::size_t cut = 0; cut <= line.size(); ++cut) {
    add_outcomes(lines, strf("prefix/%zu", cut), std::string_view(line).substr(0, cut));
  }
  EXPECT_EQ(lines.size(), 3 * (line.size() + 1));
  check_group("prefix", lines);
}

/// A request line with `fields` after its proto, id and kind.
std::string request_with(const std::string& fields) {
  return R"({"proto":"clara-serve/1","id":"x","kind":"analyze",)" + fields + "}";
}

TEST(WireGoldenTest, HandCases) {
  std::vector<std::pair<std::string, std::string>> cases = {
      // Keys: the last duplicate wins; the first unknown key in sorted
      // order is the one named; a key may be spelled with escapes.
      {"duplicate-keys", R"({"proto":"clara-serve/1","id":"a","kind":"analyze","id":"b","nf":"lpm","nf":"nat"})"},
      {"duplicate-proto", R"({"proto":"clara-serve/2","id":"x","kind":"analyze","proto":"clara-serve/1"})"},
      {"duplicate-proto-last-foreign", R"({"proto":"clara-serve/1","id":"x","kind":"analyze","proto":"v2"})"},
      {"duplicate-nested", request_with(R"("map":{"pps":1,"pps":2},"map":{"pps":3})")},
      {"unknown-two-keys", request_with(R"("zeta":1,"alpha":2)")},
      {"unknown-duplicated", request_with(R"("nf":"lpm","zeta":1,"nf":"nat","zeta":2,"beta":3)")},
      {"unknown-nested", request_with(R"("map":{"pps":1,"time_budget_m":5})")},
      {"unknown-with-nul", request_with(R"("a\u0000b":1)")},
      {"unknown-and-foreign-proto", R"({"proto":"v2","kind":"analyze","zz":1})"},
      {"escaped-key", R"({"proto":"clara-serve/1","\u0069d":"x","kind":"analyze"})"},
      {"escaped-proto", R"({"proto":"clara-serve\/1","id":"x","kind":"analyze"})"},
      {"missing-kind", R"({"proto":"clara-serve/1","id":"x"})"},
      {"missing-proto", R"({"id":"x","kind":"analyze"})"},
      {"proto-not-a-string", R"({"proto":1,"id":"x","kind":"analyze"})"},
      {"kind-typo", R"({"proto":"clara-serve/1","id":"x","kind":"analyse"})"},
      {"kind-hello", R"({"proto":"clara-serve/1","kind":"hello"})"},
      {"reordered", R"({"nf":"lpm","kind":"analyze","id":"x","proto":"clara-serve/1"})"},
      {"whitespace", " \t{ \"proto\" :\r\n\"clara-serve/1\" , \"kind\":\"sweep\",\"sweep_pps\" : [ 1 , 2.5 ] }\n "},
      {"empty-object", "{}"},
      {"empty-array", "[]"},
      {"empty-line", ""},
      {"blank-line", "  \t"},
      {"null", "null"},
      {"true", "true"},
      {"bare-string", R"("clara")"},
      {"bare-number", "42"},
      {"map-not-an-object", request_with(R"("map":[])")},
      {"sweep-not-numbers", request_with(R"("kind":"sweep","sweep_pps":[1,"2"])")},
      {"count-fraction", request_with(R"("predict":{"payload_buckets":2.5})")},
      {"count-too-large", request_with(R"("predict":{"payload_buckets":65537})")},
      {"count-as-string", request_with(R"("map":{"max_ilp_nodes":"5"})")},
      {"count-exponent", request_with(R"("predict":{"payload_buckets":3e1})")},
      // Responses: rows, counts, enum names and u64 seeds.
      {"response-class-not-an-object", R"({"proto":"clara-serve/1","kind":"analyze","classes":[1]})"},
      {"response-rows", R"({"proto":"clara-serve/1","kind":"sweep","ok":true,"classes":[{"name":"tcp","fraction":0.5},)"
                        R"({"name":"udp","latency_cycles":1e2}],"sweep":[{"pps":1,"seed":"18446744073709551615"}]})"},
      {"response-row-unknown", R"({"proto":"clara-serve/1","kind":"sweep","sweep":[{"pps":1},{"bogus":2}]})"},
      {"response-seed-escaped", R"({"proto":"clara-serve/1","kind":"sweep","sweep":[{"seed":"\u0031\u0032"}]})"},
      {"response-seed-overflow", R"({"proto":"clara-serve/1","kind":"sweep","sweep":[{"seed":"18446744073709551616"}]})"},
      {"response-error-code", R"({"proto":"clara-serve/1","kind":"analyze","error_code":"overloded"})"},
      {"response-count-negative", R"({"proto":"clara-serve/1","kind":"analyze","substituted":-1})"},
      {"response-retry-huge", R"({"proto":"clara-serve/1","kind":"analyze","retry_after_ms":1e400})"},
      // Strings: escapes, raw bytes, controls.
      {"escape-u00e9", request_with(R"("nf":"caf\u00e9")")},
      {"escape-slash", request_with(R"("nf":"a\/b")")},
      {"escape-all", request_with(R"("nf":"\"\\\/\b\f\n\r\t\u0041\u00ff\u07ff\u0800\uffff")")},
      {"escape-lone-surrogate", request_with(R"("nf":"\ud800")")},
      {"escape-surrogate-pair", request_with(R"("nf":"\ud83d\ude00")")},
      {"escape-nul", request_with(R"("nf":"a\u0000b")")},
      {"escape-upper-hex", request_with(R"("nf":"\u00E9\u00e9")")},
      {"escape-bad-digit", request_with(R"("nf":"\u00g9")")},
      {"escape-truncated", R"({"nf":"\u00)"},
      {"escape-unknown", request_with(R"("nf":"\x41")")},
      {"escape-at-end", R"({"nf":"\)"},
      {"raw-utf8", request_with("\"nf\":\"caf\xc3\xa9\"")},
      {"raw-control-byte", request_with("\"nf\":\"a\x01z\"")},
      {"raw-tab", request_with("\"nf\":\"a\tz\"")},
      {"raw-del", request_with("\"nf\":\"a\x7fz\"")},
      {"unterminated-string", R"({"proto":"clara-serve/1","id":"x)"},
      // Structure.
      {"trailing-bytes", request_with(R"("nf":"lpm")") + " x"},
      {"trailing-object", request_with(R"("nf":"lpm")") + "{}"},
      {"trailing-whitespace", request_with(R"("nf":"lpm")") + " \r\n\t"},
      {"missing-colon", R"({"proto" "clara-serve/1"})"},
      {"missing-comma", R"({"proto":"clara-serve/1" "id":"x"})"},
      {"trailing-comma-object", R"({"proto":"clara-serve/1",})"},
      {"trailing-comma-array", request_with(R"("sweep_pps":[1,])")},
      {"key-not-a-string", R"({proto:"clara-serve/1"})"},
      {"unclosed-array", request_with(R"("sweep_pps":[1,2)")},
      {"bad-literal", request_with(R"("energy":tru)")},
      {"literal-prefix", request_with(R"("energy":truex)")},
      {"literal-null", request_with(R"("energy":null)")},
  };
  // Number spellings, each as map.pps and as a whole document.
  for (const char* number :
       {"1e400", "-1e400", "1e-400", "-0", "0", "1.", ".5", "-", "01", "+1", "1e", "1e+", "1E5", "1e+2", "-.5",
        "1.e5", ".", "-.", ".e1", "0x10", "Infinity", "NaN", "2.5e-320", "4.9e-324", "2e-324",
        "1.7976931348623157e308", "1.7976931348623159e308", "9007199254740993", "0.1", "123456789012345678901234567890",
        "1e99999999999999999999", "0e99999999999999999999", "-0.0e-0", "00.5", "1.5e-", "1..5", "1e5.5", "--1"}) {
    cases.emplace_back(strf("number[%s]", number), request_with(strf(R"("map":{"pps":%s})", number)));
    cases.emplace_back(strf("document[%s]", number), number);
  }
  // Nesting: at the depth limit and one past it.
  const auto nested = [](int depth) {
    return request_with(R"("kind":"sweep","sweep_pps":)" + std::string(depth, '[') + "1" + std::string(depth, ']'));
  };
  cases.emplace_back("depth-64", nested(63));
  cases.emplace_back("depth-65", nested(64));
  cases.emplace_back("depth-bomb", nested(256));
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += R"({"map":)";
  cases.emplace_back("depth-bomb-objects", objects);

  std::vector<std::string> lines;
  for (const auto& [name, text] : cases) add_outcomes(lines, "hand/" + name, text);
  EXPECT_EQ(lines.size(), 3 * cases.size());
  check_group("hand", lines);
}

TEST(WireGoldenTest, GoldenFileHasNoStaleCases) {
  EXPECT_EQ(golden().size(), 3903u) << "golden file has cases this test no longer runs";
}

}  // namespace
