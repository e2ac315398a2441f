// NF corpus tests: every builder's function verifies, and each hand port
// keeps its pairing with the function it is given — one simulator table
// per state object, sized from that object, at the requested level —
// while state a port cannot serve is refused by a typed error. The
// `clara list-nfs` listing is pinned by tests/data/cli_golden.txt.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cir/verify.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"

namespace clara::nf {
namespace {

using nicsim::MemLevel;

TEST(NfCorpus, IsCompleteAndBuildable) {
  std::set<std::string> names;
  for (const auto& entry : corpus()) {
    names.insert(entry.name);
    const auto status = cir::verify(entry.build());
    EXPECT_TRUE(status.ok()) << entry.name << ": " << status.error().message;
  }
  EXPECT_EQ(names.size(), 13u) << "missing or duplicate NF names";
  EXPECT_EQ(find_nf("lpm"), &corpus().front());
  EXPECT_EQ(find_nf("no-such-nf"), nullptr);
}

TEST(NfCorpus, EveryPortMakesOneTablePerStateObjectAtTheRequestedLevel) {
  std::size_t ported = 0;
  for (const auto& entry : corpus()) {
    // The built function at the hand placement, then one with every table
    // grown by an entry, all in EMEM: sizes come from the function given.
    auto grown = entry.build();
    for (auto& s : grown.state_objects) ++s.entries;
    const std::vector<MemLevel> emem(grown.state_objects.size(), MemLevel::kEmem);
    for (const auto& [fn, levels] : {std::pair{entry.build(), entry.placement}, std::pair{grown, emem}}) {
      nicsim::NicSim sim;
      const auto made = port(entry.name, fn, sim, levels);
      if (entry.port == nullptr) {
        ASSERT_FALSE(made.ok()) << entry.name;
        EXPECT_EQ(made.error().code, ErrorCode::kParse);
        EXPECT_NE(made.error().message.find(entry.name), std::string::npos) << made.error().message;
        continue;
      }
      ASSERT_TRUE(made.ok()) << entry.name << ": " << made.error().message;
      const auto& tables = made.value().tables;
      ASSERT_EQ(tables.size(), fn.state_objects.size()) << entry.name;
      for (std::size_t i = 0; i < tables.size(); ++i) {
        const auto& s = fn.state_objects[i];
        if (const auto* lpm = std::get_if<const nicsim::LpmTable*>(&tables[i])) {
          EXPECT_EQ(std::tuple((*lpm)->name(), (*lpm)->rule_entries()), std::tuple(s.name, s.entries));
          continue;
        }
        const auto* table = std::get<const nicsim::ExactTable*>(tables[i]);
        ASSERT_NE(table, nullptr) << entry.name << ": no table for " << s.name;
        EXPECT_EQ(std::tuple(table->name(), table->entries(), table->entry_bytes(), table->placement()),
                  std::tuple(s.name, s.entries, s.entry_bytes, levels[i]));
        // Same-level tables take addresses in creation order.
        if (i > 0 && levels[i] == levels[i - 1]) {
          EXPECT_LT(std::get<const nicsim::ExactTable*>(tables[i - 1])->base(), table->base()) << entry.name;
        }
      }
    }
    ported += entry.port != nullptr ? 1 : 0;
  }
  EXPECT_EQ(ported, 11u);
}

TEST(NfCorpus, PortRefusesStateItCannotServe) {
  auto empty = build_nat_nf();
  empty.state_objects[0].entries = 0;
  auto weightless = build_nat_nf();
  weightless.state_objects[0].entry_bytes = 0;
  auto extra = build_nat_nf();
  extra.state_objects.push_back(extra.state_objects[0]);
  auto stateless = build_nat_nf();
  stateless.state_objects.clear();
  nicsim::NicSim sim;
  for (const auto& fn : {empty, weightless, extra, stateless}) {
    const auto refused = port("nat", fn, sim, {});
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, ErrorCode::kParse) << refused.error().message;
    EXPECT_NE(refused.error().message.find("'nat'"), std::string::npos) << refused.error().message;
  }
  EXPECT_EQ(port("no-such-nf", build_nat_nf(), sim, {}).error().code, ErrorCode::kParse);
  EXPECT_EQ(port("nat", build_nat_nf(), sim, {}).error().code, ErrorCode::kInternal);  // no level given
}

TEST(NfCorpus, MappedLevelsFollowEachRegionsMemoryKind) {
  const auto profile = lnic::netronome_agilio_cx();
  std::vector<NodeId> regions;
  for (const char* name : {"local0_0", "ctm0", "imem", "emem"}) {
    regions.push_back(profile.graph.find_by_name(name).value());
  }
  EXPECT_EQ(mapped_levels(profile, regions),
            (std::vector<MemLevel>{MemLevel::kLocal, MemLevel::kCtm, MemLevel::kImem, MemLevel::kEmem}));
}

}  // namespace
}  // namespace clara::nf
