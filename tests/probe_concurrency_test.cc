// Concurrent HandleProbe calls share one optimizer and one memory store, as
// server sessions do. A memory hit must copy what it needs out of the cached
// artifact while the optimizer's state lock is held: once the lock is
// released, a concurrent probe can free that artifact, for example by
// superseding it with its own answer to the same query. Meant to run under
// TSan and ASan (tools/check.sh).
//
// Each round, one INSERT bumps the table's data version, then four threads
// probe the same query as the same agent. Threads that miss the new version
// run the scan and store their answer, each superseding (freeing) the one
// stored before it, while the others are being served from memory. Writes
// run between rounds, never beside a probe, and a dry-run probe after each
// write rebuilds the catalog's lazily refreshed hash index on the filtered
// column (adaptive indexing creates it): neither table storage nor that
// rebuild synchronizes with concurrent readers, and this test is about the
// memory store, not about those.
//
// The race is timing-dependent: on code that reads the artifact after
// releasing the lock, TSan flags it in about half of the runs.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace agentfirst {
namespace {

TEST(ProbeConcurrencyTest, MemoryHitSurvivesConcurrentSupersede) {
  AgentFirstSystem system;
  testing_util::BuildPeopleDb(system.engine());
  constexpr int kRows = 1000;
  constexpr int kRounds = 300;
  constexpr int kProbers = 4;
  constexpr int kProbesPerRound = 4;
  std::string insert = "INSERT INTO people VALUES ";
  for (int i = 0; i < kRows; ++i) {
    insert += (i > 0 ? ", (" : "(") + std::to_string(100 + i) + ", 'p', 30, 'c" +
              std::to_string(i % 50) + "')";
  }
  ASSERT_TRUE(system.ExecuteSql(insert).ok());

  Probe probe;
  probe.agent_id = "agent-1";
  probe.brief.text = "validate: how many people live in berkeley";
  probe.queries = {"SELECT COUNT(*) FROM people WHERE city = 'berkeley'"};
  Probe dry_run = probe;
  dry_run.dry_run = true;

  std::atomic<int> from_memory{0};
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(system
                    .ExecuteSql("INSERT INTO people VALUES (" +
                                std::to_string(1000000 + round) +
                                ", 'w', 30, 'berkeley')")
                    .ok());
    ASSERT_TRUE(system.HandleProbe(dry_run).ok());
    const int64_t want = 3 + round + 1;
    auto prober = [&] {
      for (int i = 0; i < kProbesPerRound; ++i) {
        auto response = system.HandleProbe(probe);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->answers.size(), 1u);
        const QueryAnswer& answer = response->answers[0];
        ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
        ASSERT_NE(answer.result, nullptr);
        ASSERT_EQ(answer.result->rows.size(), 1u);
        EXPECT_EQ(answer.result->rows[0][0].int_value(), want);
        if (answer.from_memory) from_memory.fetch_add(1);
      }
    };
    // Dedicated threads, like server sessions: the probes must overlap
    // whatever the shared pool's size. aflint:allow(raw-thread)
    std::vector<std::thread> probers;
    for (int t = 0; t < kProbers; ++t) probers.emplace_back(prober);
    // aflint:allow(raw-thread)
    for (std::thread& t : probers) t.join();
  }
  EXPECT_GT(from_memory.load(), 0);
}

}  // namespace
}  // namespace agentfirst
