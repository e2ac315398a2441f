// Golden `clara` output. tests/data/cli_golden.txt holds one case per
// "$ clara <args>" line, followed by the stdout those args must print,
// byte for byte; "#" lines are comments. The cases are the NF listing
// and every ported corpus NF under each `clara simulate` flag, so a
// change to the corpus, a port, its table sizes or its hand placement
// shows up as a diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string run_cli(const std::string& args) {
  FILE* pipe = ::popen((std::string(CLARA_CLI) + " " + args + " 2>/dev/null").c_str(), "r");
  std::string out;
  char buffer[4096];
  for (std::size_t n; pipe != nullptr && (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    out.append(buffer, n);
  }
  if (pipe != nullptr) ::pclose(pipe);
  return out;
}

TEST(CliGoldenTest, EveryCommandReproducesItsOutput) {
  std::ifstream in(CLARA_CLI_GOLDEN);
  std::vector<std::pair<std::string, std::string>> cases;  // args, expected stdout
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("$ clara ")) {
      cases.emplace_back(line.substr(8), "");
    } else if (!line.starts_with("#") && !cases.empty()) {
      cases.back().second += line + "\n";
    }
  }
  ASSERT_EQ(cases.size(), 45u) << "cannot read " << CLARA_CLI_GOLDEN;
  for (const auto& [args, expected] : cases) EXPECT_EQ(run_cli(args), expected) << "$ clara " << args;
}

}  // namespace
